package automaton

// Dense access to the DFA transition relation for the integer-indexed
// evaluation core. The DFA already stores its transitions as a flat
// [numStates × numLabels] table; the methods here expose that layout by
// label index (no string hashing on the hot path) together with a
// precomputed reverse table for backward product reachability.

import "slices"

// LabelIndex returns the dense index of a label in the DFA alphabet.
func (d *DFA) LabelIndex(label string) (int, bool) {
	i, ok := d.labelIndex[label]
	return i, ok
}

// NextByIndex returns the successor of state from under the label with the
// given dense index. The index must be in [0, NumLabels).
func (d *DFA) NextByIndex(from State, labelIdx int) State {
	return d.trans[int(from)*len(d.alphabet)+labelIdx]
}

// AcceptingMask returns a dense accepting-state mask indexed by State.
func (d *DFA) AcceptingMask() []bool { return slices.Clone(d.accepting) }

// ReverseTransitions is the reverse of a DFA's transition table in CSR
// layout: for a (state, label) pair it lists every state whose successor
// under that label is the state. It is immutable once built and safe for
// concurrent use.
type ReverseTransitions struct {
	numLabels int
	// pred[start[s*numLabels+l] : start[s*numLabels+l+1]] are the states q
	// with q -l-> s.
	start []int32
	pred  []State
}

// Reverse builds the reverse transition table of the DFA. It reflects the
// transition relation at the time of the call; callers build it after the
// DFA is fully constructed.
func (d *DFA) Reverse() *ReverseTransitions {
	n, m := d.numStates, len(d.alphabet)
	rt := &ReverseTransitions{
		numLabels: m,
		start:     make([]int32, n*m+1),
		pred:      make([]State, len(d.trans)),
	}
	// Counting sort over the forward table: every (q, l) contributes one
	// entry to bucket (trans[q,l], l).
	for q := 0; q < n; q++ {
		for l := 0; l < m; l++ {
			s := d.trans[q*m+l]
			rt.start[int(s)*m+l+1]++
		}
	}
	for b := 1; b < len(rt.start); b++ {
		rt.start[b] += rt.start[b-1]
	}
	fill := make([]int32, n*m)
	copy(fill, rt.start[:n*m])
	for q := 0; q < n; q++ {
		for l := 0; l < m; l++ {
			s := d.trans[q*m+l]
			b := int(s)*m + l
			rt.pred[fill[b]] = State(q)
			fill[b]++
		}
	}
	return rt
}

// Pred returns the predecessor states of (state, labelIdx) as a shared
// slice view. The caller must not modify it.
func (rt *ReverseTransitions) Pred(state State, labelIdx int) []State {
	b := int(state)*rt.numLabels + labelIdx
	return rt.pred[rt.start[b]:rt.start[b+1]]
}
