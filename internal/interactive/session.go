package interactive

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/learn"
	"repro/internal/paths"
	"repro/internal/regex"
	"repro/internal/rpq"
	"repro/internal/user"
)

// Options configures an interactive session (the knobs of Figure 2).
type Options struct {
	// Strategy proposes nodes; nil means the informative strategy.
	Strategy Strategy
	// InitialRadius is the neighbourhood radius first shown to the user
	// (the paper uses 2). Zero means 2.
	InitialRadius int
	// MaxRadius bounds how far the user may zoom out. Zero means 4.
	MaxRadius int
	// PathValidation enables the path-validation step after each positive
	// label (the paper's third demonstration scenario).
	PathValidation bool
	// DisablePropagation turns off label propagation. By default, when the
	// user validates a path of interest w for a positive node, every other
	// node that also has a path spelling w is implied positive (any query
	// containing w selects it) and is not asked again — the "propagate
	// label for ν" step of Figure 2.
	DisablePropagation bool
	// MaxInteractions bounds the number of label interactions. Zero means
	// 100.
	MaxInteractions int
	// Learn configures the learner invoked after each interaction.
	Learn learn.Options
	// Cache, when non-nil and built for the session's graph, is shared by
	// the session instead of allocating a private engine cache. A service
	// hosting many sessions on one graph passes the graph's shared cache so
	// concurrent sessions reuse each other's evaluated hypotheses.
	Cache *rpq.EngineCache
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Strategy == nil {
		out.Strategy = &InformativeStrategy{MaxPathLength: out.Learn.MaxPathLength}
	}
	if out.InitialRadius <= 0 {
		out.InitialRadius = 2
	}
	if out.MaxRadius < out.InitialRadius {
		out.MaxRadius = out.InitialRadius + 2
	}
	if out.MaxInteractions <= 0 {
		out.MaxInteractions = 100
	}
	if out.Learn.MaxPathLength <= 0 {
		out.Learn.MaxPathLength = learn.DefaultMaxPathLength
	}
	return out
}

// HaltReason explains why a session ended.
type HaltReason string

// Halt reasons.
const (
	HaltSatisfied     HaltReason = "user-satisfied"
	HaltNoInformative HaltReason = "no-informative-nodes"
	HaltMaxReached    HaltReason = "max-interactions"
	HaltCanceled      HaltReason = "canceled"
)

// Interaction records one round of the Figure 2 loop.
type Interaction struct {
	// Node is the node proposed to the user.
	Node graph.NodeID
	// Decision is the user's final label for the node.
	Decision user.Decision
	// Zooms counts how many times the user enlarged the neighbourhood
	// before deciding.
	Zooms int
	// Radius is the neighbourhood radius at decision time.
	Radius int
	// ValidatedWord is the path of interest validated by the user (only
	// for positive labels in sessions with path validation).
	ValidatedWord []string
	// Pruned counts nodes pruned as uninformative after this interaction.
	Pruned int
	// Implied counts nodes labelled positive by propagation after this
	// interaction (they share the validated path of interest).
	Implied int
	// Learned is the query learned from all labels so far ("" when the
	// learner could not produce a consistent query).
	Learned string
}

// Transcript is the full record of a session.
type Transcript struct {
	Interactions []Interaction
	// Sample is the final example set.
	Sample *learn.Sample
	// Final is the last successfully learned query (nil if none).
	Final *regex.Expr
	// Halt explains why the session ended.
	Halt HaltReason
	// Strategy is the name of the strategy used.
	Strategy string
	// PrunedTotal counts nodes pruned as uninformative over the session.
	PrunedTotal int
	// ZoomsTotal counts zoom requests over the session.
	ZoomsTotal int
	// ImpliedTotal counts nodes labelled positive by propagation over the
	// session (the user never had to look at them).
	ImpliedTotal int
}

// Labels returns the number of label interactions (the paper's measure of
// user effort).
func (t *Transcript) Labels() int { return len(t.Interactions) }

// Session drives the interactive loop against a User.
type Session struct {
	g    *graph.Graph
	u    user.User
	opts Options

	sample *learn.Sample
	pruned map[graph.NodeID]bool
	// cache memoises evaluated query engines across the whole session; the
	// cache-aware strategies keep probing the same hypothesis queries.
	cache *rpq.EngineCache
	// cov caches the covered-word set of the current negatives at the
	// learner's path-length bound. Pruning and the coverage-aware
	// strategies probe it every round, but it only changes when a new
	// negative label arrives, so rounds that add positive labels reuse it
	// as-is.
	cov     *paths.Coverage
	covNegs int
}

// NewSession prepares a session on the graph for the given user.
func NewSession(g *graph.Graph, u user.User, opts Options) *Session {
	cache := opts.Cache
	if cache == nil || cache.Graph() != g {
		cache = rpq.NewCache(g)
	}
	s := &Session{
		g:      g,
		u:      u,
		opts:   opts.withDefaults(),
		sample: learn.NewSample(),
		pruned: make(map[graph.NodeID]bool),
		cache:  cache,
	}
	if ca, ok := s.opts.Strategy.(CacheAware); ok {
		ca.SetCache(s.cache)
	}
	if ca, ok := s.opts.Strategy.(CoverageAware); ok {
		ca.SetCoverageSource(s.coverageAt)
	}
	return s
}

// negCoverage returns the covered-word set of the current negatives at the
// learner's path-length bound, rebuilding it only when the negative set
// changed since the last probe.
func (s *Session) negCoverage() *paths.Coverage {
	if s.cov == nil || s.covNegs != len(s.sample.Negatives) {
		s.cov = paths.NewCoverage(s.g, s.sample.Negatives, s.opts.Learn.MaxPathLength)
		s.covNegs = len(s.sample.Negatives)
	}
	return s.cov
}

// coverageAt is the CoverageSource handed to coverage-aware strategies: at
// the session's own bound it serves the cached round-to-round coverage, at
// any other bound it builds a fresh one.
func (s *Session) coverageAt(bound int) *paths.Coverage {
	if bound == s.opts.Learn.MaxPathLength {
		return s.negCoverage()
	}
	return paths.NewCoverage(s.g, s.sample.Negatives, bound)
}

// Run executes the interactive loop until a halt condition fires and
// returns the transcript.
func (s *Session) Run() (*Transcript, error) {
	return s.RunContext(context.Background())
}

// errCanceled aborts an in-flight interaction when the session context is
// done; RunContext translates it into HaltCanceled.
var errCanceled = errors.New("interactive: session canceled")

// RunContext executes the interactive loop like Run and additionally halts
// with HaltCanceled as soon as the context is done. Cancellation is
// checked between interactions and again inside each interaction after
// every user callback, so a decision fabricated by a user implementation
// that unblocked on the same context is never recorded and no learner
// iteration runs on a canceled session.
func (s *Session) RunContext(ctx context.Context) (*Transcript, error) {
	t := &Transcript{Sample: s.sample, Strategy: s.opts.Strategy.Name(), Halt: HaltMaxReached}
	hypothesisAware, _ := s.opts.Strategy.(HypothesisAware)
	for len(t.Interactions) < s.opts.MaxInteractions {
		if ctx.Err() != nil {
			t.Halt = HaltCanceled
			break
		}
		if hypothesisAware != nil {
			hypothesisAware.SetHypothesis(t.Final)
		}
		node, ok := s.opts.Strategy.Propose(s.g, s.sample, s.pruned)
		if !ok {
			t.Halt = HaltNoInformative
			break
		}
		inter, err := s.interact(ctx, node)
		if errors.Is(err, errCanceled) {
			t.Halt = HaltCanceled
			break
		}
		if err != nil {
			return t, err
		}
		t.Interactions = append(t.Interactions, *inter)
		t.PrunedTotal += inter.Pruned
		t.ZoomsTotal += inter.Zooms
		t.ImpliedTotal += inter.Implied
		if inter.Learned != "" {
			t.Final = regex.MustParse(inter.Learned)
			if s.u.Satisfied(t.Final) {
				t.Halt = HaltSatisfied
				break
			}
		}
	}
	return t, nil
}

// interact runs one round: propose, show neighbourhood, zoom, label,
// validate path, propagate labels/prune, learn.
func (s *Session) interact(ctx context.Context, node graph.NodeID) (*Interaction, error) {
	inter := &Interaction{Node: node}

	// Steps 4-5 of Figure 2: show the neighbourhood, let the user zoom.
	radius := s.opts.InitialRadius
	var decision user.Decision
	for {
		n := s.g.NeighborhoodAround(node, radius, graph.NeighborhoodOptions{Directed: true})
		canZoom := radius < s.opts.MaxRadius
		decision = s.u.LabelNode(node, n, canZoom)
		if decision != user.Zoom {
			break
		}
		if !canZoom {
			// The user insists on zooming but the radius limit is reached;
			// treat the answer as negative to guarantee progress. The
			// simulated users never hit this branch.
			decision = user.Negative
			break
		}
		inter.Zooms++
		radius++
	}
	// A canceled session must not record whatever decision the unblocked
	// user callback fabricated.
	if ctx.Err() != nil {
		return nil, errCanceled
	}
	inter.Radius = radius
	inter.Decision = decision

	// Step 6 / path validation: record the label (and validated word).
	switch decision {
	case user.Positive:
		var word []string
		if s.opts.PathValidation {
			word = s.validatePath(node, radius)
			// Same guard as after the label loop: a word fabricated by a
			// ValidatePath callback that unblocked on cancellation must not
			// enter the sample (nor drive label propagation).
			if ctx.Err() != nil {
				return nil, errCanceled
			}
		}
		s.sample.AddPositive(node, word)
		inter.ValidatedWord = word
		// Label propagation: every other node that has a path spelling the
		// validated word is selected by any query containing that word, so
		// it is implied positive and never proposed.
		if len(word) > 0 && !s.opts.DisablePropagation {
			inter.Implied = s.propagatePositive(word)
		}
	case user.Negative:
		s.sample.AddNegative(node)
	}

	// Label propagation, negative side: prune nodes that became
	// uninformative (all their bounded-length paths covered by negatives).
	// Only a new negative can prune additional nodes.
	if decision == user.Negative {
		inter.Pruned = s.prune()
	}

	// Skip the learner on a canceled session: its result would be thrown
	// away, and the candidate-merge checks are the expensive part of a
	// round.
	if ctx.Err() != nil {
		return nil, errCanceled
	}

	// Learn a query from all labels collected so far.
	res, err := learn.Learn(s.g, s.sample, s.opts.Learn)
	if err == nil {
		inter.Learned = res.Query.String()
	} else if s.opts.PathValidation {
		// With path validation the sample should always stay consistent;
		// surface unexpected failures instead of silently looping.
		return nil, fmt.Errorf("interactive: learning failed on a validated sample: %w", err)
	}
	return inter, nil
}

// validatePath implements the Figure 3(c) step: present the uncovered words
// of the node (up to the last shown radius) as a prefix tree, highlight a
// candidate and let the user validate or correct it. It returns the chosen
// word, or nil when the user's choice cannot be used (the learner then
// picks a witness itself).
func (s *Session) validatePath(node graph.NodeID, radius int) []string {
	words := paths.UncoveredWordsWith(s.g, node, radius, s.coverageAt(radius))
	if len(words) == 0 {
		return nil
	}
	trie := paths.BuildTrie(words)
	// The paper highlights the path whose length equals the last zoomed
	// radius, inferring that the user zoomed because her path of interest
	// was longer than the previous fragment.
	candidate, ok := trie.LongestWithin(radius)
	if !ok {
		candidate = words[0]
	}
	chosen := s.u.ValidatePath(node, words, candidate)
	if chosen == nil {
		chosen = candidate
	}
	// Guard against users returning a word that is not usable.
	if !paths.HasWord(s.g, node, chosen) || paths.Covered(s.g, chosen, s.sample.Negatives) {
		return nil
	}
	return chosen
}

// propagatePositive labels every unlabelled node that has a path spelling
// the validated word as an implied positive (with that same word as its
// witness) and returns how many nodes were implied. The membership test is
// one backward StartsOfWord sweep shared by all nodes rather than a
// per-node HasWord walk.
func (s *Session) propagatePositive(word []string) int {
	count := 0
	starts := paths.StartsOfWord(s.g, word)
	for _, id := range s.g.Nodes() {
		if s.sample.Labeled(id) || s.pruned[id] {
			continue
		}
		if starts.Has(id) {
			s.sample.AddPositive(id, append([]string(nil), word...))
			count++
		}
	}
	return count
}

// prune marks unlabelled nodes all of whose bounded-length words are
// covered by the negative examples and returns how many new nodes were
// pruned. Every candidate node re-enumerates its bounded words against one
// shared negative coverage, in node order.
func (s *Session) prune() int {
	cov := s.negCoverage()
	bound := s.opts.Learn.MaxPathLength
	count := 0
	for _, id := range s.g.Nodes() {
		if s.sample.Labeled(id) || s.pruned[id] {
			continue
		}
		if paths.CountUncoveredWith(s.g, id, bound, cov) == 0 {
			s.pruned[id] = true
			count++
		}
	}
	return count
}

// Run is a convenience wrapper creating and running a session.
func Run(g *graph.Graph, u user.User, opts Options) (*Transcript, error) {
	return NewSession(g, u, opts).Run()
}
