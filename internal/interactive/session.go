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
		out.Strategy = &InformativeStrategy{}
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

// QuestionKind says what a Question asks.
type QuestionKind int

// Question kinds, in the order a round of Figure 2 asks them.
const (
	// AskLabel shows a node's neighbourhood and asks whether the node is
	// part of the query result (steps 4-5); a Zoom answer enlarges it.
	AskLabel QuestionKind = iota
	// AskPath asks which path of interest explains a positive label (the
	// path-validation step, Figure 3(c)).
	AskPath
	// AskSatisfied asks whether the learned query is the one the user wants.
	AskSatisfied
)

// Question is what the Figure 2 loop waits on: one call of the user.User
// interface, as data.
type Question struct {
	Kind QuestionKind
	// Node is the proposed node (label and path questions).
	Node graph.NodeID
	// Neighborhood is the fragment shown around Node and CanZoom whether a
	// Zoom answer may still enlarge it (label questions).
	Neighborhood *graph.Neighborhood
	CanZoom      bool
	// Words are the node's uncovered words up to the shown radius and
	// Candidate the one the system would pick (path questions).
	Words     [][]string
	Candidate []string
	// Learned is the hypothesis under review (satisfied questions).
	Learned *regex.Expr
}

// Answer is the reply to a Question; each kind reads one field.
type Answer struct {
	// Decision answers a label question.
	Decision user.Decision
	// Word answers a path question; nil accepts the candidate.
	Word []string
	// Satisfied answers a satisfied question.
	Satisfied bool
}

// Ask puts the question to u and returns its reply.
func Ask(u user.User, q Question) Answer {
	switch q.Kind {
	case AskLabel:
		return Answer{Decision: u.LabelNode(q.Node, q.Neighborhood, q.CanZoom)}
	case AskPath:
		return Answer{Word: u.ValidatePath(q.Node, q.Words, q.Candidate)}
	default:
		return Answer{Satisfied: u.Satisfied(q.Learned)}
	}
}

// Machine is the Figure 2 loop as a step function: Next returns the
// question the loop waits on, and Answer applies the reply and runs every
// step up to the next question — label, path validation, propagation,
// pruning, learning, proposing the next node. It is plain state: it starts
// no goroutine and holds no context or user, so a caller stops a session by
// no longer answering, and a crashed session is rebuilt by answering a new
// Machine with the recorded replies. Not safe for concurrent use.
type Machine struct {
	g     *graph.Graph
	opts  Options
	cache *rpq.EngineCache

	sample *learn.Sample
	// open holds the nodes that are neither labelled nor pruned, in sorted
	// order. It starts as every node and is only ever filtered in place.
	open []graph.NodeID
	// cov caches the covered-word set of the current negatives at the
	// learner's path-length bound. Pruning and the strategies probe it
	// every round, but it only changes when a new negative label arrives,
	// so rounds that add positive labels reuse it as-is.
	cov     *paths.Coverage
	covNegs int
	// counts is the Turn memo of each node's uncovered count against cov,
	// by dense node index (-1: not yet counted). It is dropped together
	// with cov, so a negative turn counts each open node once (prune fills
	// it, propose reads it) and any other turn counts nothing anew. Before
	// the first negative its first read copies paths.WordCounts, which the
	// first session on the graph counts for all; a strategy that reads no
	// count (random) never builds that vector.
	counts []int32

	t *Transcript
	// q is the pending question; nil once the loop halted.
	q *Question
	// round is the interaction in progress; Radius is the shown radius.
	round Interaction
}

// NewMachine starts the loop on the graph and computes its first question.
func NewMachine(g *graph.Graph, opts Options) *Machine {
	cache := opts.Cache
	if cache == nil || cache.Graph() != g {
		cache = rpq.NewCache(g)
	}
	// The view interns nodes in sorted order, so reading it in index order
	// yields g.Nodes() without walking the node map and sorting it.
	ix := g.Indexed()
	open := make([]graph.NodeID, ix.NumNodes())
	for i := range open {
		open[i] = ix.NodeAt(int32(i))
	}
	m := &Machine{
		g:      g,
		opts:   opts.withDefaults(),
		cache:  cache,
		sample: learn.NewSample(),
		open:   open,
	}
	m.t = &Transcript{Sample: m.sample, Strategy: m.opts.Strategy.Name(), Halt: HaltMaxReached}
	m.propose()
	return m
}

// Next returns the pending question; false once the loop has halted.
func (m *Machine) Next() (Question, bool) {
	if m.q == nil {
		return Question{}, false
	}
	return *m.q, true
}

// Transcript returns the session's record so far; Halt is final once Next
// reports false.
func (m *Machine) Transcript() *Transcript { return m.t }

// Answer applies the reply to the pending question and runs the loop up to
// its next question or halt. It fails when no question is pending, and when
// the learner fails on a sample with validated paths, which halts the loop.
func (m *Machine) Answer(a Answer) error {
	q := m.q
	if q == nil {
		return errors.New("interactive: the session has halted")
	}
	switch q.Kind {
	case AskLabel:
		d := a.Decision
		if d == user.Zoom {
			if q.CanZoom {
				m.round.Zooms++
				m.round.Radius++
				m.askLabel()
				return nil
			}
			// The user insists on zooming but the radius limit is reached;
			// treat the answer as negative to guarantee progress. The
			// simulated users never hit this branch.
			d = user.Negative
		}
		m.round.Decision = d
		if d == user.Positive && m.opts.PathValidation && m.askPath() {
			return nil
		}
		return m.label(nil)
	case AskPath:
		chosen := a.Word
		if chosen == nil {
			chosen = q.Candidate
		}
		// Guard against users returning a word that is not usable.
		if !paths.HasWord(m.g, q.Node, chosen) || paths.Covered(m.g, chosen, m.sample.Negatives) {
			chosen = nil
		}
		return m.label(chosen)
	default:
		if a.Satisfied {
			m.halt(HaltSatisfied)
		} else {
			m.propose()
		}
		return nil
	}
}

// propose starts the next round: it halts the loop at the interaction
// bound or when the strategy finds no informative node, and otherwise asks
// for a label on the proposed node.
func (m *Machine) propose() {
	if len(m.t.Interactions) >= m.opts.MaxInteractions {
		m.halt(HaltMaxReached)
		return
	}
	node, ok := m.opts.Strategy.Propose(m.turn())
	if !ok {
		m.halt(HaltNoInformative)
		return
	}
	m.round = Interaction{Node: node, Radius: m.opts.InitialRadius}
	m.askLabel()
}

func (m *Machine) halt(reason HaltReason) {
	m.t.Halt = reason
	m.q = nil
}

// askLabel shows the round's node at the current radius (steps 4-5).
func (m *Machine) askLabel() {
	node, radius := m.round.Node, m.round.Radius
	m.q = &Question{
		Kind:         AskLabel,
		Node:         node,
		Neighborhood: m.g.NeighborhoodAround(node, radius, graph.NeighborhoodOptions{Directed: true}),
		CanZoom:      radius < m.opts.MaxRadius,
	}
}

// askPath implements the Figure 3(c) step: present the uncovered words of
// the node (up to the last shown radius) as a prefix tree and highlight a
// candidate for the user to validate or correct. It reports false, asking
// nothing, when the node has no uncovered word; the learner then picks a
// witness itself.
func (m *Machine) askPath() bool {
	node, radius := m.round.Node, m.round.Radius
	words := paths.UncoveredWordsWith(m.g, node, radius, m.coverageAt(radius))
	if len(words) == 0 {
		return false
	}
	// The paper highlights the path whose length equals the last zoomed
	// radius, inferring that the user zoomed because her path of interest
	// was longer than the previous fragment.
	candidate, ok := paths.BuildTrie(words).LongestWithin(radius)
	if !ok {
		candidate = words[0]
	}
	m.q = &Question{Kind: AskPath, Node: node, Words: words, Candidate: candidate}
	return true
}

// label records the round's decision (step 6) with its validated word,
// propagates it, learns a query from all labels so far and asks whether it
// is the goal.
func (m *Machine) label(word []string) error {
	in := &m.round
	m.filterOpen(func(id graph.NodeID) bool { return id == in.Node })
	switch in.Decision {
	case user.Positive:
		m.sample.AddPositive(in.Node, word)
		in.ValidatedWord = word
		// Label propagation — the "propagate label for ν" step of Figure
		// 2: every other node that has a path spelling the validated word
		// is selected by any query containing that word, so it is implied
		// positive and never proposed.
		if len(word) > 0 {
			in.Implied = m.propagatePositive(word)
		}
	case user.Negative:
		m.sample.AddNegative(in.Node)
		// Label propagation, negative side: prune nodes that became
		// uninformative (all their bounded-length paths covered by
		// negatives). Only a new negative can prune additional nodes.
		in.Pruned = m.prune()
	}

	res, err := learn.Learn(m.g, m.sample, m.opts.Learn)
	if err == nil {
		in.Learned = res.Query.String()
	} else if m.opts.PathValidation {
		// With path validation the sample should always stay consistent;
		// surface unexpected failures instead of silently looping.
		m.q = nil
		return fmt.Errorf("interactive: learning failed on a validated sample: %w", err)
	}
	t := m.t
	t.Interactions = append(t.Interactions, *in)
	t.PrunedTotal += in.Pruned
	t.ZoomsTotal += in.Zooms
	t.ImpliedTotal += in.Implied
	if in.Learned == "" {
		m.propose()
		return nil
	}
	t.Final = regex.MustParse(in.Learned)
	m.q = &Question{Kind: AskSatisfied, Learned: t.Final}
	return nil
}

// turn returns the state the strategy and pruning read, sharing the
// Machine's count memo.
func (m *Machine) turn() *Turn {
	// negCoverage may drop the memo, so it runs before m.counts is read.
	cov := m.negCoverage()
	return &Turn{
		Graph:       m.g,
		K:           m.opts.Learn.MaxPathLength,
		Open:        m.open,
		Coverage:    cov,
		Hypothesis:  m.t.Final,
		Cache:       m.cache,
		counts:      m.counts,
		noNegatives: m.covNegs == 0,
	}
}

// negCoverage returns the covered-word set of the current negatives at the
// learner's path-length bound, rebuilding it, and dropping the count memo,
// only when the negative set changed since the last probe.
func (m *Machine) negCoverage() *paths.Coverage {
	if m.cov == nil || m.covNegs != len(m.sample.Negatives) {
		k := m.opts.Learn.MaxPathLength
		m.cov = paths.NewCoverage(m.g, m.sample.Negatives, k)
		m.covNegs = len(m.sample.Negatives)
		m.counts = make([]int32, m.g.Indexed().NumNodes())
		for i := range m.counts {
			m.counts[i] = -1
		}
	}
	return m.cov
}

// coverageAt returns the negatives' coverage at the given bound: the cached
// round-to-round one at the session's own bound, else a fresh one.
func (m *Machine) coverageAt(bound int) *paths.Coverage {
	if bound == m.opts.Learn.MaxPathLength {
		return m.negCoverage()
	}
	return paths.NewCoverage(m.g, m.sample.Negatives, bound)
}

// Session drives a Machine against a User.
type Session struct {
	m *Machine
	u user.User
}

// NewSession prepares a session on the graph for the given user.
func NewSession(g *graph.Graph, u user.User, opts Options) *Session {
	return &Session{m: NewMachine(g, opts), u: u}
}

// Run executes the interactive loop until a halt condition fires and
// returns the transcript.
func (s *Session) Run() (*Transcript, error) {
	return s.RunContext(context.Background())
}

// RunContext executes the interactive loop like Run and additionally halts
// with HaltCanceled as soon as the context is done. The context is checked
// before each question is put to the user and again before its answer is
// applied, so a reply fabricated by a user implementation that unblocked
// on the same context is never recorded.
func (s *Session) RunContext(ctx context.Context) (*Transcript, error) {
	for {
		q, ok := s.m.Next()
		if !ok {
			return s.m.Transcript(), nil
		}
		if ctx.Err() != nil {
			break
		}
		a := Ask(s.u, q)
		if ctx.Err() != nil {
			break
		}
		if err := s.m.Answer(a); err != nil {
			return s.m.Transcript(), err
		}
	}
	t := s.m.Transcript()
	t.Halt = HaltCanceled
	return t, nil
}

// propagatePositive labels every open node that has a path spelling
// the validated word as an implied positive (with that same word as its
// witness) and returns how many nodes were implied. The membership test is
// one backward StartsOfWord sweep shared by all nodes rather than a
// per-node HasWord walk.
func (m *Machine) propagatePositive(word []string) int {
	starts := paths.StartsOfWord(m.g, word)
	return m.filterOpen(func(id graph.NodeID) bool {
		if !starts.Has(id) {
			return false
		}
		m.sample.AddPositive(id, append([]string(nil), word...))
		return true
	})
}

// prune drops from the open set the nodes all of whose bounded-length
// words are covered by the negative examples and returns how many it
// pruned. It counts every open node against the new negative coverage, in
// node order, and leaves the counts in the memo for the next proposal.
func (m *Machine) prune() int {
	t := m.turn()
	return m.filterOpen(func(id graph.NodeID) bool { return t.uncovered(id) == 0 })
}

// filterOpen removes from the open set, in order, the nodes for which drop
// reports true, and returns how many it removed.
func (m *Machine) filterOpen(drop func(graph.NodeID) bool) int {
	kept := m.open[:0]
	for _, id := range m.open {
		if !drop(id) {
			kept = append(kept, id)
		}
	}
	removed := len(m.open) - len(kept)
	m.open = kept
	return removed
}

// Run is a convenience wrapper creating and running a session.
func Run(g *graph.Graph, u user.User, opts Options) (*Transcript, error) {
	return NewSession(g, u, opts).Run()
}
