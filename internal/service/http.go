package service

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rpq"
	"repro/internal/rpq/index"
	"repro/internal/store"
)

// Server is the JSON/HTTP front-end of the service.
//
//	PUT    /v1/graphs/{name}            load (or replace) a graph
//	GET    /v1/graphs                   list graphs with stats
//	GET    /v1/graphs/{name}            one graph's stats
//	DELETE /v1/graphs/{name}            unregister a graph
//	POST   /v1/graphs/{name}/evaluate   evaluate a query (sharded, cached)
//	POST   /v1/sessions                 create a learning session
//	GET    /v1/sessions                 list sessions
//	GET    /v1/sessions/{id}            session state + pending question
//	GET    /v1/sessions/{id}/events     server-sent event stream (journal tail)
//	POST   /v1/sessions/{id}/label      answer the pending question
//	GET    /v1/sessions/{id}/hypothesis current hypothesis + its answer set
//	DELETE /v1/sessions/{id}            cancel and drop a session
//	GET    /v1/stats                    server-wide statistics
//	POST   /v1/admin/compact            run one store compaction (durable only)
//	GET    /v1/replication/status       replication role, epoch and feed state
//	GET    /v1/replication/feed         binary WAL stream for a warm follower
//	POST   /v1/admin/promote            confirm the primary role (idempotent)
//	GET    /healthz                     liveness probe
type Server struct {
	opts     Options
	registry *Registry
	manager  *Manager
	start    time.Time
	// recovery is what Recover restored; written once at boot, before the
	// handler serves.
	recovery RecoveryReport
	// shutdown is closed by NotifyShutdown so long-lived streams (SSE)
	// drain instead of pinning a graceful http.Server.Shutdown forever.
	shutdown     chan struct{}
	shutdownOnce sync.Once
	// metrics records per-endpoint request latency (see metrics.go).
	metrics *httpMetrics
	// tenantLabels caps the tenant label cardinality of the per-tenant
	// request metrics; graphLabels does the same for the per-graph cache
	// and index families.
	tenantLabels *labelGuard
	graphLabels  *labelGuard
	// reqSeq numbers requests arriving without an X-Request-ID header.
	reqSeq atomic.Int64
	// fenced latches once this daemon observes a successor primary epoch
	// (see replication.go); mutating requests answer 503 fenced from then
	// on.
	fenced atomic.Bool
}

// NewServer assembles a service instance. withDefaults resolves
// Options.Metrics to one registry before the sub-components are built, so
// the registry, the manager and the store all register into the same
// scrape.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:         opts,
		registry:     NewRegistry(opts),
		manager:      NewManager(opts),
		start:        time.Now(),
		shutdown:     make(chan struct{}),
		metrics:      newHTTPMetrics(opts.Metrics),
		tenantLabels: newLabelGuard(maxTenantLabels),
		graphLabels:  newLabelGuard(maxGraphLabels),
	}
	s.loadFence()
	s.registerObs()
	return s
}

// registerObs wires the server-level observability families: uptime and
// recovery gauges, the manager's backpressure gauges, per-graph cache
// counters, and — on a durable service — the store engine's counters.
func (s *Server) registerObs() {
	reg := s.opts.Metrics
	reg.GaugeFunc("gpsd_uptime_seconds", "Seconds since the server was assembled.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("gpsd_graphs_registered", "Graphs currently registered.",
		func() float64 { return float64(len(s.registry.List())) })
	s.manager.registerBackpressure(reg)
	s.manager.registerTenantObs(reg)
	graphFamily := func(name, help, kind string, get func(GraphInfo) float64) {
		reg.SampleFunc(name, help, kind, func() []obs.Sample {
			return s.registry.graphSamples(s.graphLabels, get)
		})
	}
	graphFamily("gpsd_cache_hits_total", "Engine cache hits, by graph.", obs.KindCounter,
		func(gi GraphInfo) float64 { return float64(gi.Cache.Hits) })
	graphFamily("gpsd_cache_misses_total", "Engine cache misses, by graph.", obs.KindCounter,
		func(gi GraphInfo) float64 { return float64(gi.Cache.Misses) })
	graphFamily("gpsd_cache_evictions_total", "Engine cache LRU evictions, by graph.", obs.KindCounter,
		func(gi GraphInfo) float64 { return float64(gi.Cache.Evictions) })
	graphFamily("gpsd_cache_entries", "Compiled queries resident in the engine cache, by graph.", obs.KindGauge,
		func(gi GraphInfo) float64 { return float64(gi.Cache.Size) })
	indexStat := func(get func(index.Stats) float64) func(GraphInfo) float64 {
		return func(gi GraphInfo) float64 {
			if gi.Index.Stats == nil {
				return 0
			}
			return get(*gi.Index.Stats)
		}
	}
	graphFamily("gpsd_index_ready", "Whether the reachability index is built (1) or still building/disabled (0), by graph.", obs.KindGauge,
		func(gi GraphInfo) float64 {
			if gi.Index.State == indexStateNames[indexReady] {
				return 1
			}
			return 0
		})
	graphFamily("gpsd_index_bytes", "Resident bytes of the reachability index, by graph.", obs.KindGauge,
		indexStat(func(st index.Stats) float64 { return float64(st.Bytes) }))
	graphFamily("gpsd_index_build_seconds", "Wall-clock build time of the reachability index, by graph.", obs.KindGauge,
		indexStat(func(st index.Stats) float64 { return float64(st.BuildMs) / 1000 }))
	graphFamily("gpsd_index_hits_total", "Reachability-index closure jumps taken by the indexed sweep, by graph.", obs.KindCounter,
		indexStat(func(st index.Stats) float64 { return float64(st.Hits) }))
	reg.GaugeFunc("gpsd_recovery_graphs", "Graph snapshots restored by the last recovery.",
		func() float64 { return float64(s.recovery.Graphs) })
	reg.GaugeFunc("gpsd_recovery_sessions_resumed", "In-flight sessions resumed by the last recovery.",
		func() float64 { return float64(s.recovery.SessionsResumed) })
	reg.GaugeFunc("gpsd_recovery_sessions_finished", "Finished sessions restored by the last recovery.",
		func() float64 { return float64(s.recovery.SessionsFinished) })
	if s.opts.Store != nil {
		store.RegisterMetrics(reg, s.opts.Store)
	}
	s.registerReplObs(reg)
}

// NotifyShutdown tells the service a graceful shutdown has begun: every
// open event stream ends after its current flush, so http.Server.Shutdown
// is not held hostage by idle SSE tailers. Wire it up with
// httpServer.RegisterOnShutdown(srv.NotifyShutdown). Idempotent.
func (s *Server) NotifyShutdown() {
	s.shutdownOnce.Do(func() { close(s.shutdown) })
}

// Registry exposes the graph registry (for preloading in cmd/gpsd and
// tests).
func (s *Server) Registry() *Registry { return s.registry }

// Manager exposes the session manager.
func (s *Server) Manager() *Manager { return s.manager }

// RecoveryReport returns what the last Recover restored (the zero value
// before Recover ran). A promoted follower surfaces it so the failover
// harness can assert the adopted session counts.
func (s *Server) RecoveryReport() RecoveryReport { return s.recovery }

// Handler returns the routed HTTP handler. Every route is instrumented
// with a request-latency histogram keyed by its pattern (see metrics.go).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	route("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	route("GET /v1/stats", s.handleStats)
	route("GET /v1/graphs", s.handleListGraphs)
	route("PUT /v1/graphs/{name}", s.handleLoadGraph)
	route("GET /v1/graphs/{name}", s.handleGetGraph)
	route("DELETE /v1/graphs/{name}", s.handleDeleteGraph)
	route("POST /v1/graphs/{name}/evaluate", s.handleEvaluate)
	route("POST /v1/sessions", s.handleCreateSession)
	route("GET /v1/sessions", s.handleListSessions)
	route("GET /v1/sessions/{id}", s.handleGetSession)
	route("GET /v1/sessions/{id}/events", s.handleSessionEvents)
	route("POST /v1/sessions/{id}/label", s.handleAnswer)
	route("GET /v1/sessions/{id}/hypothesis", s.handleHypothesis)
	route("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	route("POST /v1/admin/compact", s.handleAdminCompact)
	route("GET /v1/replication/status", s.handleReplicationStatus)
	route("GET /v1/replication/feed", s.handleReplicationFeed)
	route("POST /v1/admin/promote", s.handlePromote)
	route("GET /metrics", s.handleMetrics)
	return mux
}

// handleMetrics serves the observability registry in Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	_ = s.opts.Metrics.WritePrometheus(w)
}

// handleAdminCompact triggers one store compaction pass. On the binary
// engine this is the live path: appends keep flowing while dead segments
// are rewritten. A pass already in flight answers 409 — compaction is not
// a queue.
func (s *Server) handleAdminCompact(w http.ResponseWriter, r *http.Request) {
	eng := s.opts.Store
	if eng == nil {
		writeError(w, http.StatusBadRequest, CodeNotDurable, fmt.Errorf("service is not durable: no store engine configured"))
		return
	}
	rep, err := eng.Compact()
	if err != nil {
		if errors.Is(err, store.ErrCompacting) {
			writeError(w, http.StatusConflict, CodeCompacting, err)
			return
		}
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// writeJSON answers with v as compact JSON (pipe it through jq to read
// it).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("invalid request body: %w", err))
		return false
	}
	return true
}

func (s *Server) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	var spec LoadSpec
	if !readJSON(w, r, &spec) {
		return
	}
	g, err := BuildGraph(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	h, err := s.registry.RegisterForWith(tenantFromRequest(r), r.PathValue("name"), g, RegisterOptions{NoIndex: spec.NoIndex})
	if err != nil {
		if errors.Is(err, ErrQuota) {
			writeRateLimited(w, CodeQuotaExceeded, err)
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, h.info())
}

func (s *Server) graphOr404(w http.ResponseWriter, r *http.Request) (*GraphHandle, bool) {
	h, ok := s.registry.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeGraphNotFound, fmt.Errorf("graph %q is not registered", r.PathValue("name")))
	}
	return h, ok
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.graphOr404(w, r); ok {
		writeJSON(w, http.StatusOK, h.info())
	}
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	if !s.registry.Remove(r.PathValue("name")) {
		writeError(w, http.StatusNotFound, CodeGraphNotFound, fmt.Errorf("graph %q is not registered", r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	h, ok := s.graphOr404(w, r)
	if !ok {
		return
	}
	var req EvaluateRequest
	if !readJSON(w, r, &req) {
		return
	}
	started := time.Now()
	engine, err := h.Engine(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	ctx := r.Context()
	if deadlineHit(w, ctx) {
		return
	}
	count := engine.NumSelected()
	if !req.Witnesses && (req.Limit <= 0 || req.Limit >= count) {
		writeEvaluate(w, engine.QueryString(), count, time.Since(started).Microseconds(), engine.SelectedJSON())
		return
	}
	// A truncated or witnessed answer is encoded per request; it never
	// builds the memo, so a cold miss with a small limit pays only for the
	// nodes it sends.
	nodes := engine.Selected()
	if req.Limit > 0 && count > req.Limit {
		nodes = nodes[:req.Limit]
	}
	resp := EvaluateResult{
		Query:      engine.QueryString(),
		Count:      count,
		DurationUs: time.Since(started).Microseconds(),
		Nodes:      nodes,
	}
	if req.Witnesses {
		resp.Witnesses = witnessFanOut(ctx, engine, nodes, s.opts.EvalWorkers)
		// A fan-out cut short by the deadline would return a silently
		// partial witness map; fail the request instead.
		if deadlineHit(w, ctx) {
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeEvaluate answers an evaluate that sends the whole answer set and
// no witnesses. It encodes the EvaluateResult head by hand, splices in the
// engine's memoised node array without re-scanning it, and sends the body
// in one Write with its Content-Length. The bytes are exactly what
// writeJSON would send for the same EvaluateResult.
func writeEvaluate(w http.ResponseWriter, query string, count int, durationUs int64, nodes []byte) {
	q, _ := json.Marshal(query)
	body := make([]byte, 0, len(q)+len(nodes)+96)
	body = append(body, `{"query":`...)
	body = append(body, q...)
	body = append(body, `,"count":`...)
	body = strconv.AppendInt(body, int64(count), 10)
	body = append(body, `,"duration_us":`...)
	body = strconv.AppendInt(body, durationUs, 10)
	body = append(body, `,"nodes":`...)
	body = append(body, nodes...)
	body = append(body, "}\n"...)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// deadlineHit answers 503 when the per-request deadline (or the client)
// canceled the context, and reports whether it did.
func deadlineHit(w http.ResponseWriter, ctx context.Context) bool {
	if err := ctx.Err(); err != nil {
		writeError(w, http.StatusServiceUnavailable, CodeDeadlineExceeded, fmt.Errorf("request deadline exceeded: %w", err))
		return true
	}
	return false
}

// witnessFanOut computes one shortest witness path per selected node,
// sharding the per-node searches across the service worker pool. Each
// rpq.Engine.Witness call is independent (it draws its scratch from a
// pool), so the fan-out parallelises cleanly; workers claim nodes off an
// atomic cursor and write into index-aligned slots, and the result map is
// identical to the sequential loop's. A canceled context stops workers
// at the next claim — the caller must check ctx before trusting the map
// to be complete.
func witnessFanOut(ctx context.Context, engine *rpq.Engine, nodes []graph.NodeID, workers int) map[graph.NodeID][]graph.Edge {
	out := make(map[graph.NodeID][]graph.Edge, len(nodes))
	if workers > len(nodes) {
		workers = len(nodes)
	}
	if workers <= 1 {
		for _, n := range nodes {
			if ctx.Err() != nil {
				return out
			}
			if path, ok := engine.Witness(n); ok {
				out[n] = path
			}
		}
		return out
	}
	paths := make([][]graph.Edge, len(nodes))
	found := make([]bool, len(nodes))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(cursor.Add(1)) - 1
				if i >= len(nodes) {
					return
				}
				paths[i], found[i] = engine.Witness(nodes[i])
			}
		}()
	}
	wg.Wait()
	for i, n := range nodes {
		if found[i] {
			out[n] = paths[i]
		}
	}
	return out
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var cfg SessionConfig
	if !readJSON(w, r, &cfg) {
		return
	}
	h, ok := s.registry.Get(cfg.Graph)
	if !ok {
		writeError(w, http.StatusNotFound, CodeGraphNotFound, fmt.Errorf("graph %q is not registered", cfg.Graph))
		return
	}
	sess, err := s.manager.CreateFor(tenantFromRequest(r), h, cfg)
	if err != nil {
		switch {
		case errors.Is(err, ErrQuota):
			writeRateLimited(w, CodeQuotaExceeded, err)
		case errors.Is(err, ErrLimit):
			writeRateLimited(w, CodeOverloaded, err)
		default:
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, sess.View())
}

func (s *Server) sessionOr404(w http.ResponseWriter, r *http.Request) (*HostedSession, bool) {
	sess, ok := s.manager.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeSessionNotFound, fmt.Errorf("session %q does not exist", r.PathValue("id")))
	}
	return sess, ok
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	if sess, ok := s.sessionOr404(w, r); ok {
		writeJSON(w, http.StatusOK, sess.View())
	}
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessionOr404(w, r)
	if !ok {
		return
	}
	var a Answer
	if !readJSON(w, r, &a) {
		return
	}
	if err := sess.Answer(a); err != nil {
		if errors.Is(err, ErrConflict) {
			writeError(w, http.StatusConflict, CodeConflict, err)
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.View())
}

func (s *Server) handleHypothesis(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessionOr404(w, r)
	if !ok {
		return
	}
	learned := sess.Learned()
	if learned == "" {
		writeJSON(w, http.StatusOK, HypothesisResult{Nodes: []graph.NodeID{}})
		return
	}
	engine, err := sess.handle.Engine(learned)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	nodes := engine.Selected()
	resp := HypothesisResult{Learned: learned, Nodes: nodes, Count: len(nodes)}
	if witnessNode := r.URL.Query().Get("witness"); witnessNode != "" {
		path, ok := engine.Witness(graph.NodeID(witnessNode))
		if !ok {
			writeError(w, http.StatusNotFound, CodeNodeNotFound, fmt.Errorf("node %q is not selected by the hypothesis", witnessNode))
			return
		}
		resp.Witness = path
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	if !s.manager.Remove(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, CodeSessionNotFound, fmt.Errorf("session %q does not exist", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "canceled"})
}

// pageParams are the pagination controls shared by the listing endpoints.
// A request without limit and cursor is unpaged and keeps the original
// serialize-the-world shape.
type pageParams struct {
	limit  int
	cursor string
	paged  bool
}

// parsePage reads ?limit= and ?cursor= and reports false after answering
// the error itself. Cursors are opaque: base64 over the last item's sort
// key, prefixed with the listing kind so a graphs cursor cannot be replayed
// against sessions.
func parsePage(w http.ResponseWriter, r *http.Request, kind string) (pageParams, bool) {
	var p pageParams
	q := r.URL.Query()
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("limit must be a positive integer (got %q)", raw))
			return p, false
		}
		p.limit = n
		p.paged = true
	}
	if raw := q.Get("cursor"); raw != "" {
		decoded, err := base64.RawURLEncoding.DecodeString(raw)
		key, ok := strings.CutPrefix(string(decoded), kind+":")
		if err != nil || !ok {
			writeError(w, http.StatusBadRequest, CodeInvalidCursor, fmt.Errorf("cursor %q is not a %s cursor", raw, kind))
			return p, false
		}
		p.cursor = key
		p.paged = true
	}
	return p, true
}

func encodeCursor(kind, key string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(kind + ":" + key))
}

// page applies the cursor and limit to items already sorted by key and
// returns the page plus the next cursor ("" on the last page).
func page[T any](items []T, p pageParams, kind string, key func(T) string) ([]T, string) {
	if p.cursor != "" {
		i := sort.Search(len(items), func(i int) bool { return key(items[i]) > p.cursor })
		items = items[i:]
	}
	if p.limit > 0 && len(items) > p.limit {
		return items[:p.limit], encodeCursor(kind, key(items[p.limit-1]))
	}
	return items, ""
}

// handleListGraphs serves GET /v1/graphs with optional ?limit=&cursor=
// pagination (stable order: graph name).
func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	p, ok := parsePage(w, r, "graphs")
	if !ok {
		return
	}
	graphs, next := page(s.registry.List(), p, "graphs", func(g GraphInfo) string { return g.Name })
	writeJSON(w, http.StatusOK, GraphPage{Graphs: graphs, NextCursor: next})
}

// handleListSessions serves GET /v1/sessions with optional ?limit=&cursor=
// pagination (stable order: session id) and ?state=/?graph= filters.
func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	p, ok := parsePage(w, r, "sessions")
	if !ok {
		return
	}
	q := r.URL.Query()
	state, graphName := q.Get("state"), q.Get("graph")
	views := s.manager.List()
	if state != "" || graphName != "" {
		filtered := views[:0]
		for _, v := range views {
			if state != "" && string(v.Status) != state {
				continue
			}
			if graphName != "" && v.Graph != graphName {
				continue
			}
			filtered = append(filtered, v)
		}
		views = filtered
	}
	sessions, next := page(views, p, "sessions", func(v SessionView) string { return v.ID })
	writeJSON(w, http.StatusOK, SessionPage{Sessions: sessions, NextCursor: next})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := ServerStats{
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		EvalWorkers:   s.opts.EvalWorkers,
		IndexEnabled:  !s.opts.DisableIndex,
		CacheCapacity: s.opts.CacheCapacity,
		MaxSessions:   s.opts.MaxSessions,
		Graphs:        s.registry.List(),
		Sessions:      s.manager.Counts(),
		Backpressure:  s.manager.Backpressure(),
		Tenants:       s.manager.TenantStats(),
		HTTP:          s.metrics.Snapshot(),
	}
	if st := s.opts.Store; st != nil {
		m := st.Metrics()
		resp.Store = &m
		resp.Recovery = &s.recovery
	}
	writeJSON(w, http.StatusOK, resp)
}
