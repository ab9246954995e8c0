// Package service hosts the interactive query-learning system as a
// concurrent, multi-tenant server. It ties three pieces together:
//
//   - a graph Registry handing out one handle per graph: registration
//     freezes the graph (graph.Graph.Freeze), and each graph owns one
//     shared LRU engine cache, so every session and ad-hoc evaluation on
//     that graph reuses each other's compiled queries;
//   - a session Manager hosting many interactive.Machine learning loops
//     concurrently — one step-function state machine per session, answered
//     either by a server-side simulated oracle or by a remote client that
//     answers label/path/satisfied questions over the API; no goroutine
//     waits on a client;
//   - an HTTP front-end (see http.go and cmd/gpsd) exposing graph loading,
//     session management, labelling, hypothesis retrieval, server-sent
//     session event streams, cached query evaluation and server
//     statistics as a JSON API;
//   - an optional durable layer (internal/store, enabled by Options.Store):
//     registered graphs are snapshotted, every session state transition is
//     write-ahead journaled, and Server.Recover replays both after a crash
//     — finished sessions come back as inspectable records and in-flight
//     manual sessions resume at their exact pre-crash question by folding
//     the journaled answers through a new, deterministic learning loop
//     (see recover.go).
//
// Query evaluation everywhere in the service goes through each graph's
// rpq.EngineCache, which runs the one product sweep (a bitset fixpoint)
// with the graph's closure index once that index is built.
package service

import (
	"io"
	"log/slog"
	"time"

	"repro/internal/obs"
	"repro/internal/rpq"
	"repro/internal/store"
)

// Options configures a service instance.
type Options struct {
	// CacheCapacity is the per-graph engine-cache capacity (LRU entries).
	// 0 means rpq.DefaultCacheCapacity.
	CacheCapacity int
	// DisableIndex turns off the background per-graph closure-index
	// builds (rpq/index). Evaluations then always sweep without closures;
	// results are identical, star-heavy queries on large graphs just answer
	// slower. Individual graphs can opt out instead via LoadSpec.NoIndex.
	DisableIndex bool
	// MaxSessions bounds the number of live (not yet finished) sessions
	// across all tenants. 0 means 256. Per-tenant caps come from the
	// Keyring's TenantLimits and bind inside this global pool.
	MaxSessions int
	// Keyring, when non-nil, turns on API-key authentication: every request
	// outside GET /healthz and GET /metrics must carry a key the ring
	// resolves, and the resolved tenant's quotas govern admission. Nil runs
	// the service in open mode (every request is the default tenant).
	Keyring *Keyring
	// AdmitWait bounds how long a session create may park on the fair-share
	// admission queue before answering 429. 0 means 2s. Only tenants with
	// MaxQueued > 0 ever queue.
	AdmitWait time.Duration
	// Store, when non-nil, makes the service durable: graph registrations
	// are snapshotted and session transcripts write-ahead journaled under
	// the engine's data directory, and the engine's wal is what
	// GET /v1/replication/feed streams. Nil keeps everything in memory
	// (session event streams still work off in-memory journals).
	Store *store.Engine
	// RequestTimeout bounds each non-streaming HTTP request with a context
	// deadline: evaluation fan-outs stop claiming work and the handler
	// answers 503 once it expires. 0 disables the per-request deadline.
	// SSE event streams are exempt — their lifetime is the tail's.
	RequestTimeout time.Duration
	// Metrics is the observability registry every telemetry surface of the
	// service registers into: per-endpoint latency histograms, request
	// counters, backpressure gauges, per-graph cache counters, store
	// counters and session-trace histograms. The server exposes it at
	// GET /metrics. Nil creates a private registry, so embedders and tests
	// need no setup; pass one explicitly to share a registry across
	// components or add families of your own.
	Metrics *obs.Registry
	// Logger receives the service's structured logs: session lifecycle at
	// info, per-request and per-question events at debug. Nil discards
	// everything — the daemon (cmd/gpsd) always passes its own.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.CacheCapacity <= 0 {
		o.CacheCapacity = rpq.DefaultCacheCapacity
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 256
	}
	if o.AdmitWait <= 0 {
		o.AdmitWait = 2 * time.Second
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}
