// Package user simulates the human in GPS's interactive loop. The
// interaction protocol only ever observes three things from the user: a
// label decision on a proposed node (positive, negative, or "zoom out"), a
// validated path of interest for a positive node, and whether she is
// satisfied with the currently learned query. Simulated users implement
// exactly that interface, parameterised by a goal query, which makes the
// demo's human-in-the-loop scenario reproducible.
package user

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/regex"
	"repro/internal/rpq"
)

// Decision is the answer to "is this node part of your query result?".
type Decision int

const (
	// Zoom asks the system to enlarge the shown neighbourhood.
	Zoom Decision = iota
	// Positive labels the node as part of the desired result.
	Positive
	// Negative labels the node as not part of the desired result.
	Negative
)

// String renders the decision.
func (d Decision) String() string {
	switch d {
	case Positive:
		return "positive"
	case Negative:
		return "negative"
	default:
		return "zoom"
	}
}

// User is the behaviour GPS needs from the person driving the session.
type User interface {
	// LabelNode is asked when the system proposes node with the given
	// neighbourhood. Returning Zoom requests a larger fragment; the system
	// may refuse further zooms once its radius limit is reached, in which
	// case the user is asked again with the same radius and must answer
	// Positive or Negative.
	LabelNode(node graph.NodeID, n *graph.Neighborhood, canZoom bool) Decision
	// ValidatePath is asked after a positive label. words are the
	// candidate paths of interest (uncovered words of the node) and
	// candidate is the one the system would pick. The user returns the
	// word she actually cares about; returning nil accepts the candidate.
	ValidatePath(node graph.NodeID, words [][]string, candidate []string) []string
	// Satisfied is asked after each learning step with the currently
	// learned query; returning true stops the session early.
	Satisfied(learned *regex.Expr) bool
}

// Simulated is a deterministic oracle user driven by a hidden goal query.
// It labels nodes according to the goal query's answer set, zooms until a
// witness path of the goal query fits inside the shown fragment, validates
// the path of interest as a word matching the goal query, and is satisfied
// as soon as the learned query returns exactly the goal answer set on the
// graph.
type Simulated struct {
	g      *graph.Graph
	goal   *regex.Expr
	engine *rpq.Engine
	// cache memoises engines for the learned queries the session asks
	// about; consecutive interactions frequently re-learn the same query.
	cache *rpq.EngineCache
	// MaxZoom bounds how many times the user asks to zoom before deciding
	// with the information at hand (her "patience"). Zero means 2.
	MaxZoom int
	zoomed  map[graph.NodeID]int
}

// NewSimulated returns a simulated user pursuing the goal query on g.
func NewSimulated(g *graph.Graph, goal *regex.Expr) *Simulated {
	return NewSimulatedWith(g, goal, nil)
}

// NewSimulatedWith is NewSimulated with an explicit engine cache to
// evaluate through. A service hosting many sessions on one graph passes
// the graph's shared cache; nil (or a cache for a different graph) falls
// back to a private one.
func NewSimulatedWith(g *graph.Graph, goal *regex.Expr, cache *rpq.EngineCache) *Simulated {
	if cache == nil || cache.Graph() != g {
		cache = rpq.NewCache(g)
	}
	return &Simulated{
		g:       g,
		goal:    goal,
		engine:  cache.Get(goal),
		cache:   cache,
		MaxZoom: 2,
		zoomed:  make(map[graph.NodeID]int),
	}
}

// Goal returns the hidden goal query.
func (u *Simulated) Goal() *regex.Expr { return u.goal }

// GoalSelects reports whether the goal query selects the node.
func (u *Simulated) GoalSelects(node graph.NodeID) bool { return u.engine.Selects(node) }

// LabelNode implements User. The user answers as soon as the fragment
// contains enough evidence: a visible witness path for a positive node, or
// a fragment with no outgoing "..." continuations for a negative node.
// Otherwise she asks to zoom, up to her patience bound.
func (u *Simulated) LabelNode(node graph.NodeID, n *graph.Neighborhood, canZoom bool) Decision {
	if u.engine.Selects(node) {
		// Positive node: zoom until a witness path of the goal query is
		// fully visible inside the fragment, then answer yes.
		if u.witnessVisible(node, n) {
			return Positive
		}
		if canZoom && u.zoomed[node] < u.maxZoom() && u.fragmentIncomplete(node, n) {
			u.zoomed[node]++
			return Zoom
		}
		return Positive
	}
	// Negative node: if paths from the node continue beyond the fragment
	// (the "..." markers of Figure 3), a cautious user zooms before
	// concluding that no interesting path exists.
	if canZoom && u.zoomed[node] < u.maxZoom() && u.fragmentIncomplete(node, n) {
		u.zoomed[node]++
		return Zoom
	}
	return Negative
}

// fragmentIncomplete reports whether some path from node leaves the shown
// fragment, i.e. a frontier node is reachable from node inside the
// fragment. When false, the fragment shows everything reachable from the
// node and zooming cannot reveal more.
func (u *Simulated) fragmentIncomplete(node graph.NodeID, n *graph.Neighborhood) bool {
	if n == nil || !n.Fragment.HasNode(node) {
		return true
	}
	if len(n.Frontier) == 0 {
		return false
	}
	reached := n.Fragment.ReachableFrom(node)
	for _, f := range n.Frontier {
		if reached[f] {
			return true
		}
	}
	return false
}

func (u *Simulated) maxZoom() int {
	if u.MaxZoom <= 0 {
		return 2
	}
	return u.MaxZoom
}

// witnessVisible reports whether the node has a path inside the fragment
// whose word matches the goal query.
func (u *Simulated) witnessVisible(node graph.NodeID, n *graph.Neighborhood) bool {
	if n == nil || n.Fragment.NumNodes() == 0 {
		return false
	}
	local := rpq.New(n.Fragment, u.goal)
	return local.Selects(node)
}

// ValidatePath implements User: pick a word matching the goal query,
// preferring the system's candidate, then the shortest matching word.
func (u *Simulated) ValidatePath(node graph.NodeID, words [][]string, candidate []string) []string {
	if candidate != nil && u.goal.Matches(candidate) {
		return candidate
	}
	for _, w := range words {
		if u.goal.Matches(w) {
			return w
		}
	}
	// No shown word matches the goal (the fragment was too small); accept
	// the candidate — this is precisely the failure mode the paper's third
	// scenario eliminates by zooming before validation.
	return candidate
}

// Satisfied implements User: the user stops when the learned query returns
// exactly the goal answer set on the graph instance.
func (u *Simulated) Satisfied(learned *regex.Expr) bool {
	if learned == nil {
		return false
	}
	return u.cache.Get(learned).SameSelection(u.engine)
}

// Noisy wraps a user and flips a fraction of its label decisions. It is
// used only by the static-labelling scenario, which is the single scenario
// where the paper allows inconsistent labelling.
type Noisy struct {
	Inner     User
	ErrorRate float64
	rng       *rand.Rand
}

// NewNoisy returns a noisy wrapper with the given error rate in [0,1].
func NewNoisy(inner User, errorRate float64, seed int64) *Noisy {
	return &Noisy{Inner: inner, ErrorRate: errorRate, rng: rand.New(rand.NewSource(seed))}
}

// LabelNode implements User, occasionally flipping the decision.
func (n *Noisy) LabelNode(node graph.NodeID, nb *graph.Neighborhood, canZoom bool) Decision {
	d := n.Inner.LabelNode(node, nb, canZoom)
	if d == Zoom {
		return d
	}
	if n.rng.Float64() < n.ErrorRate {
		if d == Positive {
			return Negative
		}
		return Positive
	}
	return d
}

// ValidatePath implements User by delegation.
func (n *Noisy) ValidatePath(node graph.NodeID, words [][]string, candidate []string) []string {
	return n.Inner.ValidatePath(node, words, candidate)
}

// Satisfied implements User by delegation.
func (n *Noisy) Satisfied(learned *regex.Expr) bool { return n.Inner.Satisfied(learned) }

// StaticChoice is how a user picks nodes herself in the static-labelling
// scenario (first demonstration part), where the system does not guide the
// exploration.
type StaticChoice interface {
	// NextNode returns the next node the user decides to inspect, skipping
	// nodes already labelled. ok=false means she gives up.
	NextNode(g *graph.Graph, labeled map[graph.NodeID]bool) (graph.NodeID, bool)
}

// RandomChoice inspects unlabelled nodes uniformly at random, modelling a
// user scrolling through an unfamiliar large graph.
type RandomChoice struct {
	rng *rand.Rand
}

// NewRandomChoice returns a RandomChoice with the given seed.
func NewRandomChoice(seed int64) *RandomChoice {
	return &RandomChoice{rng: rand.New(rand.NewSource(seed))}
}

// NextNode implements StaticChoice.
func (c *RandomChoice) NextNode(g *graph.Graph, labeled map[graph.NodeID]bool) (graph.NodeID, bool) {
	var candidates []graph.NodeID
	for _, id := range g.Nodes() {
		if !labeled[id] {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		return "", false
	}
	return candidates[c.rng.Intn(len(candidates))], true
}

// WitnessWord returns a shortest word of the node matching the goal query
// within the bound, used by simulations that need the "true" path of
// interest of a positive node. ok=false if none exists within the bound.
func WitnessWord(g *graph.Graph, goal *regex.Expr, node graph.NodeID, maxLen int) ([]string, bool) {
	for _, w := range paths.Words(g, node, maxLen) {
		if goal.Matches(w) {
			return w, true
		}
	}
	return nil, false
}
