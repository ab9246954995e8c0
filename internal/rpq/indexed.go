package rpq

import (
	"math/bits"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/rpq/index"
)

// Index-assisted product reachability. The unindexed sweeps
// (computeReachability and its sharded twin) walk a queue of product
// configurations, paying per-configuration overhead and one BFS level per
// path edge. With a prebuilt index.Index the engine runs a state-wise
// bitset fixpoint instead: one node bitset per DFA state, per-state dirty
// frontiers, and word-parallel ORs over the CSR in-edges — and when a DFA
// state carries a self-loop on a label the index has closed, the
// label-star saturation collapses to ORing precomputed closure rows
// (graph-diameter many BFS levels become one jump). The fixpoint it
// reaches is the exact accReach set, so Selected, Witness and every other
// engine API stay byte-identical to the unindexed engine; the equivalence
// tests pin that.

// forEachConfigBit calls fn for every set bit index in ascending order.
func forEachConfigBit(set []uint64, fn func(i int32)) {
	for wi, w := range set {
		for w != 0 {
			fn(int32(wi<<6 + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// usableIndex reports whether idx was built on the exact Indexed view
// this engine evaluates over. Pointer identity is the strongest check:
// the view is cached per graph version, so a version bump (or a different
// graph) yields a different view and the index is ignored.
func (e *Engine) usableIndex(idx *index.Index) bool {
	return idx != nil && idx.View() == e.ix
}

// computeReachabilityIndexed runs the state-wise bitset backward fixpoint
// using the index. It produces exactly the same accReach bitset and
// selected set as computeReachability.
func (e *Engine) computeReachabilityIndexed() {
	n := e.ix.NumNodes()
	S := e.numStates
	total := n * S
	if total == 0 {
		e.accReach = make([]uint64, 0)
		e.collectSelected()
		return
	}
	words := (n + 63) / 64
	// One backing array for every per-sweep bitset; the sweep is short
	// enough that allocation (and the GC scanning it induces) is a visible
	// fraction of an indexed evaluation.
	scratch := make([]uint64, (2*S+1)*words)
	reach := scratch[:S*words]
	dirty := scratch[S*words : 2*S*words]
	frontier := scratch[2*S*words:]

	// The DFA's in-edges grouped by target state, one entry per (source
	// state, graph label) transition pair. sat tracks, per self-loop edge
	// with a closure, the nodes whose closure row has already been ORed:
	// for a predecessor closure row(u) ⊆ row(v) whenever u ∈ row(v), so a
	// node absorbed by a jump never needs a jump of its own.
	type dfaInEdge struct {
		src int
		gl  int32
		cl  *index.Closure // pred closure when src == target self-loop
		sat []uint64
	}
	rev := e.dfa.Reverse()
	numLabels := e.ix.NumLabels()
	dfaIn := make([][]dfaInEdge, S)
	for t := 0; t < S; t++ {
		// Gather the self-loop labels of t first: a state looping on
		// several labels (an alternation star like (a+b)*) consumes the
		// union reachability relation, and a single set-closure jump over
		// that union replaces a cascade of per-label jumps that would
		// otherwise alternate once per SCC of each single-label subgraph.
		var loopLabels []int32
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
		var setCl *index.Closure
		if len(loopLabels) > 1 {
			setCl = e.idx.PredStarSet(loopLabels)
		}
		if setCl != nil {
			dfaIn[t] = append(dfaIn[t], dfaInEdge{src: t, gl: -1, cl: setCl})
		}
		for gl := 0; gl < numLabels; gl++ {
			if e.dfaLabel[gl] < 0 {
				continue
			}
			for _, q := range rev.Pred(automaton.State(t), e.dfaLabel[gl]) {
				if int(q) == t && setCl != nil {
					continue // subsumed by the set-closure jump edge
				}
				edge := dfaInEdge{src: int(q), gl: int32(gl)}
				if int(q) == t {
					edge.cl = e.idx.PredStar(int32(gl))
				}
				dfaIn[t] = append(dfaIn[t], edge)
			}
		}
	}

	// One sat arena for every closure-jump edge, sized up front.
	nSat := 0
	for t := range dfaIn {
		for ei := range dfaIn[t] {
			if dfaIn[t][ei].cl != nil {
				nSat++
			}
		}
	}
	if nSat > 0 {
		arena := make([]uint64, nSat*words)
		k := 0
		for t := range dfaIn {
			for ei := range dfaIn[t] {
				if dfaIn[t][ei].cl != nil {
					dfaIn[t][ei].sat = arena[k*words : (k+1)*words]
					k++
				}
			}
		}
	}

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

	var jumps uint64
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		inQueue[t] = false
		tDirty := dirty[t*words : (t+1)*words]
		copy(frontier, tDirty)
		for i := range tDirty {
			tDirty[i] = 0
		}
		for ei := range dfaIn[t] {
			edge := &dfaIn[t][ei]
			s := edge.src
			sRow := reach[s*words : (s+1)*words]
			sDirty := dirty[s*words : (s+1)*words]
			grew := false
			if edge.cl != nil {
				// Self-loop saturation: OR the predecessor-closure row of
				// every not-yet-saturated frontier node.
				sat := edge.sat
				forEachConfigBit(frontier, func(v int32) {
					if sat[v>>6]&(1<<(uint(v)&63)) != 0 {
						return
					}
					sat[v>>6] |= 1 << (uint(v) & 63)
					span, lo := edge.cl.RowSpan(v)
					if span == nil {
						return // closure of v is {v}: already in reach[t]
					}
					jumps++
					for j, w := range span {
						i := int(lo) + j
						if nw := sRow[i] | w; nw != sRow[i] {
							sDirty[i] |= nw ^ sRow[i]
							sRow[i] = nw
							grew = true
						}
						sat[i] |= w
					}
				})
			} else if src := e.idx.SourceBits(edge.gl); src != nil && fullFrontier(frontier, n) {
				// Full frontier (the first pop of an accepting seed): the
				// predecessor set is exactly the nodes with an outgoing
				// edge of the label, one word-parallel OR.
				for i, w := range src {
					if nw := sRow[i] | w; nw != sRow[i] {
						sDirty[i] |= nw ^ sRow[i]
						sRow[i] = nw
						grew = true
					}
				}
			} else {
				// Generic backward step over one graph label.
				forEachConfigBit(frontier, func(v int32) {
					for _, u := range e.ix.In(v, edge.gl) {
						wi, bit := u>>6, uint64(1)<<(uint(u)&63)
						if sRow[wi]&bit == 0 {
							sRow[wi] |= bit
							sDirty[wi] |= bit
							grew = true
						}
					}
				})
			}
			if grew {
				push(s)
			}
		}
	}
	if jumps > 0 {
		e.idx.AddHits(jumps)
	}

	// Park the product-layout scatter for the first configuration probe
	// (Witness, Selects, the forward searches): Selected is served off the
	// start-state row below, so an /evaluate-only engine skips the scatter
	// entirely. Node-word wi of any state lands in output words
	// [wi*S, wi*S+S) — the config base 64*wi*S is word-aligned — so
	// two-state DFAs (every `expr*.label` goal query) get a word-parallel
	// bit interleave and the general case a tight per-bit loop.
	e.accFill = func() []uint64 {
		acc := make([]uint64, (total+63)/64)
		if S == 2 {
			r0 := reach[:words]
			r1 := reach[words : 2*words]
			for wi := 0; wi < words; wi++ {
				w0, w1 := r0[wi], r1[wi]
				if w0 == 0 && w1 == 0 {
					continue
				}
				acc[2*wi] |= spreadBits2(uint32(w0)) | spreadBits2(uint32(w1))<<1
				if 2*wi+1 < len(acc) {
					acc[2*wi+1] |= spreadBits2(uint32(w0>>32)) | spreadBits2(uint32(w1>>32))<<1
				}
			}
		} else {
			for s := 0; s < S; s++ {
				row := reach[s*words : (s+1)*words]
				for wi, w := range row {
					base := wi<<6*S + s
					for w != 0 {
						c := base + bits.TrailingZeros64(w)*S
						w &= w - 1
						acc[c>>6] |= 1 << (uint(c) & 63)
					}
				}
			}
		}
		return acc
	}

	// Collect the answer straight off the start-state row: same ascending
	// node order as collectSelected, but with an exact preallocation (the
	// repeated growth of a several-thousand-entry NodeID slice otherwise
	// dominates a sub-millisecond evaluation).
	startRow := reach[int(e.start)*words : (int(e.start)+1)*words]
	cnt := 0
	for _, w := range startRow {
		cnt += bits.OnesCount64(w)
	}
	if cnt > 0 {
		e.selectedIDs = make([]graph.NodeID, 0, cnt)
		forEachConfigBit(startRow, func(v int32) {
			e.selectedIDs = append(e.selectedIDs, e.ix.NodeAt(v))
		})
	}
}

// spreadBits2 spaces the 32 bits of x one apart: bit i moves to bit 2i.
func spreadBits2(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
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
