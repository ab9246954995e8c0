// Package core is the top-level facade of GPS — the "system for interactive
// Graph Path query Specification" of the paper. It ties together the graph
// store, the RPQ evaluator, the learner and the interactive engine behind a
// small API that the command-line front-end and the examples use:
//
//	sys := core.New(g)
//	result := sys.Evaluate(regex.MustParse("(tram+bus)*.cinema"))
//	tr, _ := sys.InteractiveSession(aUser, core.SessionConfig{PathValidation: true})
//	learned, _ := sys.LearnFromExamples(sample)
//
// Everything the facade exposes is also available from the underlying
// packages; core exists so that a downstream user has one obvious entry
// point.
package core

import (
	"fmt"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/interactive"
	"repro/internal/learn"
	"repro/internal/regex"
	"repro/internal/rpq"
	"repro/internal/user"
)

// System wraps one graph database and offers query evaluation, learning and
// interactive specification on it.
type System struct {
	g *graph.Graph
	// cache memoises evaluated query engines; repeated Evaluate calls with
	// the same query (the CLI console, the examples) cost one map lookup.
	cache *rpq.EngineCache
}

// New returns a System over the given graph database.
func New(g *graph.Graph) *System {
	return NewWith(g, Config{})
}

// Config tunes a System's evaluation pipeline.
type Config struct {
	// EvalWorkers is the worker-pool size for the sharded
	// product-reachability sweep of engines built through the system's
	// cache. 0 or 1 evaluates sequentially (identical results either way).
	EvalWorkers int
	// CacheCapacity bounds the LRU engine cache. 0 means
	// rpq.DefaultCacheCapacity.
	CacheCapacity int
}

// NewWith returns a System with an explicitly configured evaluation
// pipeline (see Config), for embedders of the facade that want sharded
// evaluation or a sized cache. The HTTP service does not go through this
// facade — internal/service builds its per-graph caches directly with
// rpq.NewCacheWith.
func NewWith(g *graph.Graph, cfg Config) *System {
	return &System{g: g, cache: rpq.NewCacheWith(g, rpq.CacheOptions{
		Capacity: cfg.CacheCapacity,
		Workers:  cfg.EvalWorkers,
	})}
}

// Graph returns the underlying graph database.
func (s *System) Graph() *graph.Graph { return s.g }

// QueryResult is the answer of a path query on the system's graph.
type QueryResult struct {
	// Query is the evaluated query.
	Query *regex.Expr
	// Nodes is the sorted list of selected nodes.
	Nodes []graph.NodeID
	// Witnesses maps each selected node to one shortest witness path.
	Witnesses map[graph.NodeID][]graph.Edge
}

// Evaluate runs a path query and returns the selected nodes together with a
// shortest witness path for each.
func (s *System) Evaluate(query *regex.Expr) *QueryResult {
	engine := s.cache.Get(query)
	res := &QueryResult{
		Query:     query,
		Nodes:     engine.Selected(),
		Witnesses: make(map[graph.NodeID][]graph.Edge),
	}
	for _, node := range res.Nodes {
		if w, ok := engine.Witness(node); ok {
			res.Witnesses[node] = w
		}
	}
	return res
}

// EvaluateString parses and evaluates a query written in the paper's
// syntax.
func (s *System) EvaluateString(query string) (*QueryResult, error) {
	q, err := regex.Parse(query)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return s.Evaluate(q), nil
}

// LearnFromExamples runs the two-step learning algorithm on a sample of
// labelled nodes and returns the learned query.
func (s *System) LearnFromExamples(sample *learn.Sample) (*learn.Result, error) {
	return learn.Learn(s.g, sample, learn.Options{})
}

// SessionConfig configures an interactive specification session.
type SessionConfig struct {
	// Strategy names the node-proposal strategy: "informative" (default),
	// "random", "hybrid" or "disagreement".
	Strategy string
	// Seed drives the random strategy.
	Seed int64
	// PathValidation enables the path-validation step (third demo
	// scenario).
	PathValidation bool
	// InitialRadius is the first neighbourhood radius shown (default 2).
	InitialRadius int
	// MaxInteractions bounds the number of label interactions.
	MaxInteractions int
	// MaxPathLength bounds witness search and informativeness counting.
	MaxPathLength int
}

// strategyByName resolves a strategy name.
func strategyByName(cfg SessionConfig) (interactive.Strategy, error) {
	switch cfg.Strategy {
	case "", "informative":
		return &interactive.InformativeStrategy{MaxPathLength: cfg.MaxPathLength}, nil
	case "random":
		return interactive.NewRandomStrategy(cfg.Seed), nil
	case "hybrid":
		return &interactive.HybridStrategy{MaxPathLength: cfg.MaxPathLength}, nil
	case "disagreement":
		return &interactive.DisagreementStrategy{MaxPathLength: cfg.MaxPathLength}, nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q (want informative, random, hybrid or disagreement)", cfg.Strategy)
	}
}

// InteractiveSession runs the Figure 2 loop against the given user and
// returns the transcript.
func (s *System) InteractiveSession(u user.User, cfg SessionConfig) (*interactive.Transcript, error) {
	strat, err := strategyByName(cfg)
	if err != nil {
		return nil, err
	}
	return interactive.Run(s.g, u, interactive.Options{
		Strategy:        strat,
		InitialRadius:   cfg.InitialRadius,
		PathValidation:  cfg.PathValidation,
		MaxInteractions: cfg.MaxInteractions,
		Learn:           learn.Options{MaxPathLength: cfg.MaxPathLength},
	})
}

// StaticSession runs the static-labelling scenario (first demo part)
// against the given user.
func (s *System) StaticSession(u user.User, choice user.StaticChoice, maxLabels int) *interactive.StaticResult {
	return interactive.RunStatic(s.g, u, interactive.StaticOptions{Choice: choice, MaxLabels: maxLabels})
}

// SimulateUser returns a simulated user pursuing the goal query on the
// system's graph, for demos and experiments.
func (s *System) SimulateUser(goal *regex.Expr) *user.Simulated {
	return user.NewSimulated(s.g, goal)
}

// EquivalentQueries reports whether two queries denote the same language
// (not merely the same answer set on a particular graph).
func EquivalentQueries(a, b *regex.Expr) bool {
	return automaton.EquivalentNFA(automaton.FromRegex(a), automaton.FromRegex(b))
}

// SameAnswerSet reports whether two queries select exactly the same nodes
// of the system's graph.
func (s *System) SameAnswerSet(a, b *regex.Expr) bool {
	return s.cache.Get(a).SameSelection(s.cache.Get(b))
}
