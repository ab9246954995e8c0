package rpq

import (
	"math/bits"

	"repro/internal/automaton"
	"repro/internal/rpq/index"
)

// The product sweep: a state-wise bitset backward fixpoint. It keeps one
// node bitset per DFA state and a dirty frontier per state. Popping a
// target state t runs one backward step per graph label gl that leads
// into t: the predecessor set P = In_gl(frontier) is built once, into one
// reusable row, and ORed word-parallel into every source state of
// (t, gl). The first step out of an accepting state (a full frontier)
// takes the label's source bitset (graph.Indexed.SourceBits) as P. When
// an index.Index is present and a DFA state carries a self-loop on a
// label the index has closed, the label-star saturation collapses to
// ORing precomputed closure rows (graph-diameter many BFS levels become
// one jump), and t is no source of its own generic step on that label.
// Either way the fixpoint is the exact set of configurations that reach
// acceptance; the tests pin it, bit for bit, to a configuration-queue BFS
// oracle.

// forEachConfigBit calls fn for every set bit index in ascending order.
func forEachConfigBit(set []uint64, fn func(i int32)) {
	for wi, w := range set {
		for w != 0 {
			fn(int32(wi<<6 + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// jumpEdge is one closure-served self-loop of a DFA state: the state's
// frontier is saturated along cl instead of by generic backward steps.
// gl is the looping graph label, or -1 for a set closure over every label
// the state loops on. sat holds the nodes whose closure row has already
// been ORed: for a predecessor closure row(u) ⊆ row(v) whenever
// u ∈ row(v), so a node absorbed by a jump never needs a jump of its own.
type jumpEdge struct {
	gl  int32
	cl  *index.Closure
	sat []uint64
}

// sweep runs the backward fixpoint into e.reach and counts the start-state
// row into e.numSelected.
func (e *Engine) sweep() {
	n := e.ix.NumNodes()
	S := e.numStates
	words := (n + 63) / 64
	e.words = words
	if words == 0 {
		return
	}
	// reach is kept as the engine's answer; dirty, frontier and the
	// predecessor row p share one scratch array that dies with the sweep.
	reach := make([]uint64, S*words)
	scratch := make([]uint64, (S+2)*words)
	dirty := scratch[:S*words]
	frontier := scratch[S*words : (S+1)*words]
	p := scratch[(S+1)*words:]

	rev := e.rev
	numLabels := e.ix.NumLabels()
	jumps := e.jumpEdges(rev, words)

	inQueue := make([]bool, S)
	queue := make([]int, 0, S)
	push := func(s int) {
		if !inQueue[s] {
			inQueue[s] = true
			queue = append(queue, s)
		}
	}
	// Seed: every node at every accepting state.
	for s := 0; s < S; s++ {
		if !e.accepting[s] {
			continue
		}
		row := reach[s*words : (s+1)*words]
		for i := range row {
			row[i] = ^uint64(0)
		}
		if n%64 != 0 {
			row[words-1] = (1 << uint(n%64)) - 1
		}
		copy(dirty[s*words:(s+1)*words], row)
		push(s)
	}

	var hits uint64
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		inQueue[t] = false
		tDirty := dirty[t*words : (t+1)*words]
		copy(frontier, tDirty)
		clear(tDirty)
		full := fullFrontier(frontier, n)

		setLoop := false
		if jumps != nil {
			tRow := reach[t*words : (t+1)*words]
			grew := false
			for ji := range jumps[t] {
				j := &jumps[t][ji]
				setLoop = setLoop || j.gl < 0
				// Self-loop saturation: OR the predecessor-closure row of
				// every not-yet-saturated frontier node.
				sat := j.sat
				forEachConfigBit(frontier, func(v int32) {
					if sat[v>>6]&(1<<(uint(v)&63)) != 0 {
						return
					}
					sat[v>>6] |= 1 << (uint(v) & 63)
					span, lo := j.cl.RowSpan(v)
					if span == nil {
						return // closure of v is {v}: already in reach[t]
					}
					hits++
					for k, w := range span {
						i := int(lo) + k
						if nw := tRow[i] | w; nw != tRow[i] {
							tDirty[i] |= nw ^ tRow[i]
							tRow[i] = nw
							grew = true
						}
						sat[i] |= w
					}
				})
			}
			if grew {
				push(t)
			}
		}

		for gl := 0; gl < numLabels; gl++ {
			dl := e.dfaLabel[gl]
			if dl < 0 {
				continue
			}
			preds := rev.Pred(automaton.State(t), dl)
			// A self-loop that a closure jump serves is not a source of
			// the generic step.
			skipSelf := jumps != nil && (setLoop || e.idx.PredStar(int32(gl)) != nil)
			if !hasSource(preds, t, skipSelf) {
				continue
			}
			// P = In_gl(frontier), restricted to its populated words
			// [lo, hi).
			var pw []uint64
			lo, hi := 0, words
			if full {
				pw = e.ix.SourceBits(int32(gl))
			} else {
				lo, hi = words, 0
				for wi, w := range frontier {
					for w != 0 {
						v := int32(wi<<6 + bits.TrailingZeros64(w))
						w &= w - 1
						for _, u := range e.ix.In(v, int32(gl)) {
							ui := int(u >> 6)
							p[ui] |= 1 << (uint(u) & 63)
							lo = min(lo, ui)
							hi = max(hi, ui+1)
						}
					}
				}
				if lo >= hi {
					continue
				}
				pw = p
			}
			for _, q := range preds {
				s := int(q)
				if s == t && skipSelf {
					continue
				}
				sRow := reach[s*words : (s+1)*words]
				sDirty := dirty[s*words : (s+1)*words]
				grew := false
				for i := lo; i < hi; i++ {
					if nw := sRow[i] | pw[i]; nw != sRow[i] {
						sDirty[i] |= nw ^ sRow[i]
						sRow[i] = nw
						grew = true
					}
				}
				if grew {
					push(s)
				}
			}
			if !full {
				clear(p[lo:hi])
			}
		}
	}
	if hits > 0 {
		e.idx.AddHits(hits)
	}

	e.reach = reach
	for _, w := range e.startRow() {
		e.numSelected += bits.OnesCount64(w)
	}
}

// jumpEdges returns, per DFA state, the closure jumps that serve its
// self-loops, each with its own sat row; nil when the engine has no index.
func (e *Engine) jumpEdges(rev *automaton.ReverseTransitions, words int) [][]jumpEdge {
	if e.idx == nil {
		return nil
	}
	S := e.numStates
	numLabels := e.ix.NumLabels()
	jumps := make([][]jumpEdge, S)
	var loopLabels []int32
	nSat := 0
	for t := 0; t < S; t++ {
		loopLabels = loopLabels[:0]
		for gl := 0; gl < numLabels; gl++ {
			if e.dfaLabel[gl] < 0 {
				continue
			}
			for _, q := range rev.Pred(automaton.State(t), e.dfaLabel[gl]) {
				if int(q) == t {
					loopLabels = append(loopLabels, int32(gl))
				}
			}
		}
		// A state looping on several labels (an alternation star like
		// (a+b)*) consumes the union reachability relation, and a single
		// set-closure jump over that union replaces a cascade of
		// per-label jumps that would otherwise alternate once per SCC of
		// each single-label subgraph.
		if len(loopLabels) > 1 {
			if cl := e.idx.PredStarSet(loopLabels); cl != nil {
				jumps[t] = append(jumps[t], jumpEdge{gl: -1, cl: cl})
				nSat++
				continue
			}
		}
		for _, gl := range loopLabels {
			if cl := e.idx.PredStar(gl); cl != nil {
				jumps[t] = append(jumps[t], jumpEdge{gl: gl, cl: cl})
				nSat++
			}
		}
	}
	// One sat arena for every jump, sized up front.
	if nSat > 0 {
		arena := make([]uint64, nSat*words)
		for t := range jumps {
			for ji := range jumps[t] {
				jumps[t][ji].sat, arena = arena[:words:words], arena[words:]
			}
		}
	}
	return jumps
}

// hasSource reports whether preds names a source state of the generic
// step into t: any state but t itself when skipSelf is set.
func hasSource(preds []automaton.State, t int, skipSelf bool) bool {
	for _, q := range preds {
		if int(q) != t || !skipSelf {
			return true
		}
	}
	return false
}

// fullFrontier reports whether the frontier bitset contains all n nodes.
func fullFrontier(frontier []uint64, n int) bool {
	for i := 0; i < n>>6; i++ {
		if frontier[i] != ^uint64(0) {
			return false
		}
	}
	if n&63 != 0 {
		return frontier[n>>6] == (1<<uint(n&63))-1
	}
	return true
}
