package rpq

import (
	"sync"
	"sync/atomic"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/regex"
)

// The test oracles of the product sweep. Production runs one sweep, the
// state-wise bitset fixpoint (indexed.go); these are the two sweeps it
// replaced, kept here so every equivalence test can pin the fixpoint to an
// independent formulation of the same relation:
//
//   - computeReachability, a backward breadth-first propagation over a
//     queue of product configurations;
//   - computeReachabilityParallel, its level-synchronous sharded twin,
//     whose workers claim configurations with an atomic bit-set.
//
// Both fill a packed configuration bitset node*numStates+state, which
// useOracleBits transposes into the engine's per-state reach rows, so an
// oracle engine answers Selected, Selects and Witness from bits that no
// part of the fixpoint touched.

// queueOracle returns the engine for the query whose product bitset comes
// from the configuration-queue sweep.
func queueOracle(g *graph.Graph, query *regex.Expr) *Engine {
	e := newEngine(g, query)
	e.useOracleBits(e.computeReachability())
	return e
}

// shardedOracle returns the engine for the query whose product bitset comes
// from the sharded sweep on the given number of workers.
func shardedOracle(g *graph.Graph, query *regex.Expr, workers int) *Engine {
	e := newEngine(g, query)
	e.useOracleBits(e.computeReachabilityParallel(workers))
	return e
}

// useOracleBits installs the packed configuration bitset acc as the
// engine's per-state reach rows and counts the start-state row.
func (e *Engine) useOracleBits(acc []uint64) {
	n, S := e.ix.NumNodes(), e.numStates
	e.words = (n + 63) / 64
	e.reach = make([]uint64, S*e.words)
	for v := 0; v < n; v++ {
		for s := 0; s < S; s++ {
			if c := v*S + s; acc[c>>6]&(1<<(uint(c)&63)) != 0 {
				e.reach[s*e.words+v>>6] |= 1 << (uint(v) & 63)
				if s == int(e.start) {
					e.numSelected++
				}
			}
		}
	}
}

// computeReachability marks every configuration (node, state) from which an
// accepting DFA state is reachable in the product graph, by a backward
// breadth-first propagation from accepting configurations over the CSR
// in-edges and the DFA reverse-transition table.
func (e *Engine) computeReachability() []uint64 {
	n := e.ix.NumNodes()
	S := e.numStates
	total := n * S
	acc := make([]uint64, (total+63)/64)
	queue := make([]int32, 0, total)
	// Seed: every (node, state) with state accepting.
	for s := 0; s < S; s++ {
		if !e.accepting[s] {
			continue
		}
		for i := 0; i < n; i++ {
			c := i*S + s
			acc[c>>6] |= 1 << (uint(c) & 63)
			queue = append(queue, int32(c))
		}
	}
	rev := e.rev
	numLabels := e.ix.NumLabels()
	for head := 0; head < len(queue); head++ {
		c := int(queue[head])
		u := int32(c / S)
		sp := automaton.State(c % S)
		for gl := 0; gl < numLabels; gl++ {
			ins := e.ix.In(u, int32(gl))
			if len(ins) == 0 || e.dfaLabel[gl] < 0 {
				continue
			}
			preds := rev.Pred(sp, e.dfaLabel[gl])
			for _, v := range ins {
				base := int(v) * S
				for _, s := range preds {
					pc := base + int(s)
					if acc[pc>>6]&(1<<(uint(pc)&63)) == 0 {
						acc[pc>>6] |= 1 << (uint(pc) & 63)
						queue = append(queue, int32(pc))
					}
				}
			}
		}
	}
	return acc
}

// computeReachabilityParallel runs the backward sweep level by level, each
// level's frontier split into one chunk per worker. The fixpoint is unique
// regardless of the order bits are discovered in, so the result equals
// computeReachability's.
func (e *Engine) computeReachabilityParallel(workers int) []uint64 {
	n := e.ix.NumNodes()
	S := e.numStates
	acc := make([]uint64, (n*S+63)/64)
	var frontier []int32
	for s := 0; s < S; s++ {
		if !e.accepting[s] {
			continue
		}
		for i := 0; i < n; i++ {
			c := i*S + s
			acc[c>>6] |= 1 << (uint(c) & 63)
			frontier = append(frontier, int32(c))
		}
	}
	rev := e.rev
	next := make([][]int32, workers)
	for len(frontier) > 0 {
		chunk := (len(frontier) + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := min(w*chunk, len(frontier))
			hi := min(lo+chunk, len(frontier))
			wg.Add(1)
			go func(w int, part []int32) {
				defer wg.Done()
				next[w] = e.expandLevel(acc, part, next[w][:0], rev)
			}(w, frontier[lo:hi])
		}
		wg.Wait()
		var merged []int32
		for w := range next {
			merged = append(merged, next[w]...)
		}
		frontier = merged
	}
	return acc
}

// expandLevel claims every undiscovered predecessor of the configurations
// in part and appends it to out. The claim is an atomic bit-set so that
// concurrent workers never enqueue the same configuration twice.
func (e *Engine) expandLevel(acc []uint64, part, out []int32, rev *automaton.ReverseTransitions) []int32 {
	S := e.numStates
	numLabels := e.ix.NumLabels()
	for _, cc := range part {
		c := int(cc)
		u := int32(c / S)
		sp := automaton.State(c % S)
		for gl := 0; gl < numLabels; gl++ {
			if e.dfaLabel[gl] < 0 {
				continue
			}
			ins := e.ix.In(u, int32(gl))
			if len(ins) == 0 {
				continue
			}
			preds := rev.Pred(sp, e.dfaLabel[gl])
			for _, v := range ins {
				base := int(v) * S
				for _, s := range preds {
					pc := base + int(s)
					mask := uint64(1) << (uint(pc) & 63)
					if atomic.OrUint64(&acc[pc>>6], mask)&mask == 0 {
						out = append(out, int32(pc))
					}
				}
			}
		}
	}
	return out
}
