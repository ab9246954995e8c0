package service

// Service-level observability: per-endpoint request latency histograms
// and the session manager's backpressure signals. Since the obs registry
// became the single metrics substrate, this file owns only the service's
// side of the contract — which instruments exist, and how /v1/stats
// renders the same atomics as JSON so its shape never changed:
//
//   - every routed endpoint gets one gpsd_http_request_duration_seconds
//     histogram child (microsecond-native, lock-free on the request
//     path) and a gpsd_http_requests_total{endpoint,code} counter;
//   - the manager's admission state (live loops vs capacity, loops
//     parked on the question/answer bridge, finished retention) surfaces
//     as gpsd_sessions_* gauges and the BackpressureStats JSON view.

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// latencyBucketBoundsUs are the inclusive upper bounds, in microseconds,
// of the latency histogram buckets; a final implicit bucket catches
// everything slower.
var latencyBucketBoundsUs = []int64{100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000}

// HistogramBucket is one bucket of a latency histogram view. LeUs is the
// bucket's inclusive upper bound in microseconds; the overflow bucket
// reports -1.
type HistogramBucket struct {
	LeUs  int64 `json:"le_us"`
	Count int64 `json:"count"`
}

// LatencyView is the JSON-facing snapshot of one endpoint's latency
// histogram. Percentiles are upper-bound estimates: the bound of the first
// bucket whose cumulative count covers the quantile (the overflow bucket
// reports the observed maximum).
type LatencyView struct {
	Count   int64             `json:"count"`
	MeanUs  float64           `json:"mean_us"`
	MaxUs   int64             `json:"max_us"`
	P50Us   int64             `json:"p50_us"`
	P90Us   int64             `json:"p90_us"`
	P99Us   int64             `json:"p99_us"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// latencyView renders a histogram snapshot in the /v1/stats JSON shape.
// The snapshot reads one atomic at a time, so a view racing observes may
// be off by the in-flight requests, which is fine for monitoring.
func latencyView(s obs.HistogramSnapshot) LatencyView {
	v := LatencyView{Count: s.Count, MaxUs: s.Max}
	if v.Count == 0 {
		return v
	}
	v.MeanUs = float64(s.Sum) / float64(v.Count)
	total := int64(0)
	for _, c := range s.Buckets {
		total += c
	}
	quantile := func(q float64) int64 {
		target := int64(float64(total)*q + 0.5)
		cum := int64(0)
		for i, c := range s.Buckets {
			cum += c
			if cum >= target {
				if i < len(s.Bounds) {
					return s.Bounds[i]
				}
				return v.MaxUs
			}
		}
		return v.MaxUs
	}
	v.P50Us, v.P90Us, v.P99Us = quantile(0.50), quantile(0.90), quantile(0.99)
	v.Buckets = make([]HistogramBucket, 0, len(s.Buckets))
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		le := int64(-1)
		if i < len(s.Bounds) {
			le = s.Bounds[i]
		}
		v.Buckets = append(v.Buckets, HistogramBucket{LeUs: le, Count: c})
	}
	return v
}

// httpMetrics tracks the per-endpoint latency histograms registered on
// the obs registry. Histograms are registered while the handler is
// assembled; the request path only touches the captured histogram
// pointer.
type httpMetrics struct {
	reg       *obs.Registry
	mu        sync.Mutex
	endpoints map[string]*obs.Histogram
}

func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	return &httpMetrics{reg: reg, endpoints: make(map[string]*obs.Histogram)}
}

func (m *httpMetrics) register(pattern string) *obs.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.endpoints[pattern]
	if !ok {
		h = m.reg.Histogram("gpsd_http_request_duration_seconds",
			"HTTP request latency by endpoint pattern (SSE streams record their lifetime).",
			latencyBucketBoundsUs, 1e-6, obs.L("endpoint", pattern))
		m.endpoints[pattern] = h
	}
	return h
}

// Snapshot returns the per-endpoint latency views keyed by route pattern.
func (m *httpMetrics) Snapshot() map[string]LatencyView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]LatencyView, len(m.endpoints))
	for pattern, h := range m.endpoints {
		out[pattern] = latencyView(h.Snapshot())
	}
	return out
}

// statusRecorder captures the response status for request counters and
// logs. flushRecorder additionally forwards Flush, and is used whenever
// the inner writer is an http.Flusher so the SSE handler's
// `w.(http.Flusher)` assertion keeps succeeding through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

type flushRecorder struct {
	*statusRecorder
}

func (r flushRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// authExempt lists the routes served without an API key even when a
// keyring is configured: liveness probes, metric scrapers, replication
// followers and failover re-resolution are operator infrastructure, not
// tenants. The replication routes expose only feed bytes and counters —
// no tenant data beyond what the follower will hold anyway.
func authExempt(pattern string) bool {
	switch pattern {
	case "GET /healthz", "GET /metrics",
		"GET /v1/replication/status", "GET /v1/replication/feed":
		return true
	}
	return false
}

// instrument wraps a handler so its requests carry a request id, resolve
// to a tenant (answering 401 when a keyring is configured and the key does
// not resolve), are recorded against the endpoint's histogram and request
// counter — plus tenant-labelled twins behind the cardinality guard —
// logged at debug level, and — when Options.RequestTimeout is set —
// bounded by a per-request context deadline. Streaming endpoints (SSE)
// record the lifetime of the stream, which is what their tail latency
// means, and are exempt from the deadline — a tail is supposed to stay
// open.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.register(pattern)
	endpoint := obs.L("endpoint", pattern)
	streaming := strings.HasSuffix(pattern, "/events") || pattern == "GET /v1/replication/feed"
	exempt := authExempt(pattern)
	log := s.opts.Logger
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = "r" + strconv.FormatInt(s.reqSeq.Add(1), 10)
		}
		w.Header().Set("X-Request-ID", reqID)
		rec := &statusRecorder{ResponseWriter: w}
		var rw http.ResponseWriter = rec
		if _, ok := w.(http.Flusher); ok {
			rw = flushRecorder{rec}
		}
		if s.opts.RequestTimeout > 0 && !streaming {
			ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		tenant := DefaultTenant
		authed := true
		if kr := s.opts.Keyring; kr != nil && !exempt {
			if tn, ok := kr.Resolve(apiKey(r)); ok {
				tenant = tn.Name
				r = r.WithContext(withTenant(r.Context(), tn))
			} else {
				authed = false
				writeError(rw, http.StatusUnauthorized, CodeUnauthorized,
					fmt.Errorf("missing or unknown API key"))
			}
		}
		if authed && !s.fenceRefused(rw, r) {
			h(rw, r)
		}
		d := time.Since(start)
		hist.Observe(d.Microseconds())
		code := rec.code
		if code == 0 {
			code = http.StatusOK
		}
		s.opts.Metrics.Counter("gpsd_http_requests_total",
			"HTTP requests served, by endpoint pattern and status code.",
			endpoint, obs.L("code", strconv.Itoa(code))).Inc()
		tl := s.tenantLabels.label(tenant)
		s.opts.Metrics.Counter("gpsd_tenant_http_requests_total",
			"HTTP requests served, by tenant and status code.",
			obs.L("tenant", tl), obs.L("code", strconv.Itoa(code))).Inc()
		s.opts.Metrics.Histogram("gpsd_tenant_http_request_duration_seconds",
			"HTTP request latency by tenant (all endpoints pooled).",
			latencyBucketBoundsUs, 1e-6, obs.L("tenant", tl)).Observe(d.Microseconds())
		log.Debug("http request",
			"request_id", reqID,
			"endpoint", pattern,
			"path", r.URL.Path,
			"tenant", tenant,
			"code", code,
			"duration_us", d.Microseconds())
	}
}

// BackpressureStats is the session manager's admission and queueing state.
type BackpressureStats struct {
	// LiveSessions counts sessions that have not finished.
	LiveSessions int `json:"live_sessions"`
	// MaxSessions is the admission limit LiveSessions is checked against.
	MaxSessions int `json:"max_sessions"`
	// QueueDepth counts sessions parked on the question/answer bridge —
	// a pending question published, no answer delivered yet. Under client
	// stalls this is the number of loops holding a live slot while doing
	// no work.
	QueueDepth int `json:"queue_depth"`
	// FinishedRetained counts finished sessions retained for inspection.
	FinishedRetained int `json:"finished_retained"`
}

// Backpressure returns the manager's current admission and queueing state.
func (m *Manager) Backpressure() BackpressureStats {
	m.mu.Lock()
	st := BackpressureStats{
		LiveSessions:     m.live,
		MaxSessions:      m.opts.MaxSessions,
		FinishedRetained: len(m.finishedIDs),
	}
	sessions := make([]*HostedSession, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	for _, s := range sessions {
		s.mu.Lock()
		if s.pending != nil {
			st.QueueDepth++
		}
		s.mu.Unlock()
	}
	return st
}

// registerBackpressure exposes the manager's admission state as gauges on
// the registry. One Backpressure snapshot feeds all four families per
// scrape would be nicer, but each gauge sampling its own snapshot keeps
// the registration trivially idempotent and the cost is a few mutex
// rounds per scrape.
func (m *Manager) registerBackpressure(reg *obs.Registry) {
	reg.GaugeFunc("gpsd_sessions_live", "Sessions that have not finished.",
		func() float64 { return float64(m.Backpressure().LiveSessions) })
	reg.GaugeFunc("gpsd_sessions_max", "Admission limit for live sessions.",
		func() float64 { return float64(m.opts.MaxSessions) })
	reg.GaugeFunc("gpsd_sessions_queue_depth", "Sessions parked on the question/answer bridge awaiting a client.",
		func() float64 { return float64(m.Backpressure().QueueDepth) })
	reg.GaugeFunc("gpsd_sessions_finished_retained", "Finished sessions retained for inspection.",
		func() float64 { return float64(m.Backpressure().FinishedRetained) })
}
