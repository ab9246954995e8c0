package service

import (
	"repro/internal/graph"
	"repro/internal/store"
)

// The success bodies of the v1 API. Every handler answers with one of
// these declared types (or another exported struct such as GraphInfo or
// SessionView), never an ad-hoc map, and pkg/client aliases them, so the
// server and the client decode one definition. cmd/apicheck fails CI on a
// map[string]any literal in this package.

// EvaluateRequest is the body of POST /v1/graphs/{name}/evaluate.
type EvaluateRequest struct {
	// Query is the path query in the paper's syntax.
	Query string `json:"query"`
	// Witnesses requests one shortest witness path per selected node.
	Witnesses bool `json:"witnesses,omitempty"`
	// Limit truncates the returned node (and witness) lists; 0 means all.
	Limit int `json:"limit,omitempty"`
}

// EvaluateResult is the evaluate response. Count is the size of the full
// answer set even when Limit truncated Nodes. The field order is the wire
// order: writeEvaluate splices a pre-encoded Nodes array after the first
// three fields and relies on it.
type EvaluateResult struct {
	Query      string                        `json:"query"`
	Count      int                           `json:"count"`
	DurationUs int64                         `json:"duration_us"`
	Nodes      []graph.NodeID                `json:"nodes"`
	Witnesses  map[graph.NodeID][]graph.Edge `json:"witnesses,omitempty"`
}

// HypothesisResult is a session's current hypothesis and its answer set.
// Learned is "" (and Nodes empty) while the session has no hypothesis yet.
type HypothesisResult struct {
	Learned string         `json:"learned"`
	Nodes   []graph.NodeID `json:"nodes"`
	Count   int            `json:"count"`
	Witness []graph.Edge   `json:"witness,omitempty"`
}

// GraphPage is one page of GET /v1/graphs.
type GraphPage struct {
	Graphs []GraphInfo `json:"graphs"`
	// NextCursor is "" on the last page; pass it back to continue.
	NextCursor string `json:"next_cursor,omitempty"`
}

// ReplicaGraphs is a standby follower's GET /v1/graphs: the names of its
// replicated snapshots, with no structure or cache stats because no
// engine is open to serve them. It decodes into a GraphPage.
type ReplicaGraphs struct {
	Graphs []ReplicaGraph `json:"graphs"`
}

// ReplicaGraph names one replicated graph snapshot.
type ReplicaGraph struct {
	Name string `json:"name"`
}

// SessionPage is one page of GET /v1/sessions.
type SessionPage struct {
	Sessions []SessionView `json:"sessions"`
	// NextCursor is "" on the last page; pass it back to continue.
	NextCursor string `json:"next_cursor,omitempty"`
}

// ServerStats is the body of GET /v1/stats. Store and Recovery are set
// only on a durable service.
type ServerStats struct {
	UptimeSeconds int64                         `json:"uptime_seconds"`
	EvalWorkers   int                           `json:"eval_workers"`
	IndexEnabled  bool                          `json:"index_enabled"`
	CacheCapacity int                           `json:"cache_capacity"`
	MaxSessions   int                           `json:"max_sessions"`
	Graphs        []GraphInfo                   `json:"graphs"`
	Sessions      map[SessionStatus]int         `json:"sessions"`
	Backpressure  BackpressureStats             `json:"backpressure"`
	Tenants       map[string]TenantBackpressure `json:"tenants"`
	HTTP          map[string]LatencyView        `json:"http"`
	Store         *store.Metrics                `json:"store,omitempty"`
	Recovery      *RecoveryReport               `json:"recovery,omitempty"`
}
