package service

// Service-level observability: per-endpoint request latency histograms
// and the session manager's backpressure signals. Since the obs registry
// became the single metrics substrate, this file owns only the service's
// side of the contract — which instruments exist:
//
//   - every routed endpoint gets one gpsd_http_request_duration_seconds
//     histogram child (microsecond-native, lock-free on the request
//     path) and a gpsd_http_requests_total{endpoint,code} counter;
//   - the manager's admission state (live loops vs capacity, loops
//     parked on the question/answer bridge, finished retention) surfaces
//     as gpsd_sessions_* gauges.

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// latencyBucketBoundsUs are the inclusive upper bounds, in microseconds,
// of the latency histogram buckets; a final implicit bucket catches
// everything slower.
var latencyBucketBoundsUs = []int64{100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000}

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
	endpoint := obs.L("endpoint", pattern)
	hist := s.opts.Metrics.Histogram("gpsd_http_request_duration_seconds",
		"HTTP request latency by endpoint pattern (SSE streams record their lifetime).",
		latencyBucketBoundsUs, 1e-6, endpoint)
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
	LiveSessions int
	// MaxSessions is the admission limit LiveSessions is checked against.
	MaxSessions int
	// QueueDepth counts sessions parked on the question/answer bridge —
	// a pending question published, no answer delivered yet. Under client
	// stalls this is the number of loops holding a live slot while doing
	// no work.
	QueueDepth int
	// FinishedRetained counts finished sessions retained for inspection.
	FinishedRetained int
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
