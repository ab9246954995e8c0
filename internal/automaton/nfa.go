// Package automaton implements the finite-automaton toolkit that backs GPS:
// Thompson construction from path regular expressions, prefix-tree
// acceptors over witness paths, subset-construction determinisation,
// minimisation by Moore's partition refinement, boolean operations,
// language emptiness, containment and equivalence, state-merging quotients
// (used by the learner's generalisation step) and state-elimination
// conversion back to a regular expression.
//
// Words are sequences of edge labels ([]string); the alphabet is the finite
// set of labels appearing in the graph or the expression.
package automaton

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/regex"
)

// State identifies an automaton state. States are small dense integers.
type State int

// Epsilon is the reserved label for ε-transitions inside NFAs.
const Epsilon = ""

// NFA is a nondeterministic finite automaton with ε-transitions, a single
// start state and a set of accepting states.
type NFA struct {
	numStates int
	start     State
	accepting map[State]bool
	// trans[state][label] -> successor states (sorted, deduplicated lazily).
	trans map[State]map[string][]State
}

// NewNFA returns an NFA with a single (non-accepting) start state.
func NewNFA() *NFA {
	n := &NFA{
		accepting: make(map[State]bool),
		trans:     make(map[State]map[string][]State),
	}
	n.start = n.AddState()
	return n
}

// AddState adds a fresh state and returns it.
func (n *NFA) AddState() State {
	s := State(n.numStates)
	n.numStates++
	return s
}

// NumStates returns the number of states.
func (n *NFA) NumStates() int { return n.numStates }

// Start returns the start state.
func (n *NFA) Start() State { return n.start }

// SetAccepting marks a state accepting or not.
func (n *NFA) SetAccepting(s State, accepting bool) {
	if accepting {
		n.accepting[s] = true
	} else {
		delete(n.accepting, s)
	}
}

// IsAccepting reports whether the state accepts.
func (n *NFA) IsAccepting(s State) bool { return n.accepting[s] }

// AcceptingStates returns the sorted accepting states.
func (n *NFA) AcceptingStates() []State {
	out := make([]State, 0, len(n.accepting))
	for s := range n.accepting {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddTransition adds a labelled transition. Label Epsilon ("") adds an
// ε-transition. Duplicate transitions are ignored.
func (n *NFA) AddTransition(from State, label string, to State) {
	m := n.trans[from]
	if m == nil {
		m = make(map[string][]State)
		n.trans[from] = m
	}
	for _, existing := range m[label] {
		if existing == to {
			return
		}
	}
	m[label] = append(m[label], to)
}

// Successors returns the states reachable from s by a transition with the
// given label (ε not included unless label is Epsilon).
func (n *NFA) Successors(s State, label string) []State {
	succ := append([]State(nil), n.trans[s][label]...)
	sort.Slice(succ, func(i, j int) bool { return succ[i] < succ[j] })
	return succ
}

// Labels returns the sorted set of non-ε labels used on transitions.
func (n *NFA) Labels() []string {
	set := make(map[string]bool)
	for _, m := range n.trans {
		for label := range m {
			if label != Epsilon {
				set[label] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// String renders the NFA for debugging.
func (n *NFA) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "NFA states=%d start=%d accepting=%v\n", n.numStates, n.start, n.AcceptingStates())
	for s := State(0); s < State(n.numStates); s++ {
		m := n.trans[s]
		labels := make([]string, 0, len(m))
		for l := range m {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			name := l
			if l == Epsilon {
				name = "ε"
			}
			fmt.Fprintf(&sb, "  %d -%s-> %v\n", s, name, n.Successors(s, l))
		}
	}
	return sb.String()
}

// FromRegex builds an NFA accepting exactly the language of the expression
// using Thompson's construction.
func FromRegex(e *regex.Expr) *NFA {
	n := NewNFA()
	accept := n.AddState()
	n.SetAccepting(accept, true)
	n.build(e, n.start, accept)
	return n
}

// build wires the fragment for e between states from and to.
func (n *NFA) build(e *regex.Expr, from, to State) {
	if e == nil {
		return // empty language: no transitions at all
	}
	switch e.Kind {
	case regex.KindEmpty:
		// No transitions: the fragment accepts nothing.
	case regex.KindEps:
		n.AddTransition(from, Epsilon, to)
	case regex.KindLabel:
		n.AddTransition(from, e.Label, to)
	case regex.KindConcat:
		prev := from
		for i, sub := range e.Subs {
			var next State
			if i == len(e.Subs)-1 {
				next = to
			} else {
				next = n.AddState()
			}
			n.build(sub, prev, next)
			prev = next
		}
		if len(e.Subs) == 0 {
			n.AddTransition(from, Epsilon, to)
		}
	case regex.KindUnion:
		for _, sub := range e.Subs {
			n.build(sub, from, to)
		}
	case regex.KindStar:
		mid := n.AddState()
		n.AddTransition(from, Epsilon, mid)
		n.AddTransition(mid, Epsilon, to)
		n.build(e.Sub, mid, mid)
	case regex.KindPlus:
		mid := n.AddState()
		n.build(e.Sub, from, mid)
		n.build(e.Sub, mid, mid)
		n.AddTransition(mid, Epsilon, to)
	case regex.KindOpt:
		n.AddTransition(from, Epsilon, to)
		n.build(e.Sub, from, to)
	}
}

// FromWords builds a prefix-tree acceptor (PTA): a tree-shaped DFA-like NFA
// accepting exactly the given words. This is the starting point of the
// learner's generalisation step.
func FromWords(words [][]string) *NFA {
	n := NewNFA()
	// children[state][label] -> child state.
	children := map[State]map[string]State{n.start: {}}
	for _, w := range words {
		cur := n.start
		for _, label := range w {
			kids := children[cur]
			if kids == nil {
				kids = make(map[string]State)
				children[cur] = kids
			}
			next, ok := kids[label]
			if !ok {
				next = n.AddState()
				kids[label] = next
				n.AddTransition(cur, label, next)
			}
			cur = next
		}
		n.SetAccepting(cur, true)
	}
	return n
}

// Quotient returns the automaton obtained by merging states according to
// the partition: partition[s] gives the block representative of state s.
// Any state not present maps to itself. The start state maps to its block;
// a block is accepting if any of its members is.
func (n *NFA) Quotient(partition map[State]State) *NFA {
	rep := func(s State) State {
		if r, ok := partition[s]; ok {
			return r
		}
		return s
	}
	// Normalise representatives to canonical roots (follow chains).
	root := func(s State) State {
		cur := s
		for {
			r := rep(cur)
			if r == cur {
				return cur
			}
			cur = r
		}
	}
	// Renumber blocks densely.
	blockOf := make(map[State]State)
	q := &NFA{
		accepting: make(map[State]bool),
		trans:     make(map[State]map[string][]State),
	}
	getBlock := func(s State) State {
		r := root(s)
		if b, ok := blockOf[r]; ok {
			return b
		}
		b := State(q.numStates)
		q.numStates++
		blockOf[r] = b
		return b
	}
	// Number every block up front — the start state's first, then in
	// first-touch order over ascending states — so the numbering does not
	// depend on the map-iteration order of the transition labels below.
	// Quotients are therefore deterministic for a given partition, which
	// the learner's oracle tests and the service's deterministic
	// crash-resume replay rely on.
	q.start = getBlock(n.start)
	for s := State(0); s < State(n.numStates); s++ {
		getBlock(s)
	}
	for s := State(0); s < State(n.numStates); s++ {
		b := getBlock(s)
		if n.accepting[s] {
			q.accepting[b] = true
		}
		for label, targets := range n.trans[s] {
			for _, t := range targets {
				q.AddTransition(b, label, getBlock(t))
			}
		}
	}
	return q
}
