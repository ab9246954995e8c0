package learn

// The dense generalization engine: the integer-indexed implementation of
// step 2 (RPNI-style state merging). It replaces the three allocation
// hot-spots of the reference path — the partition-map copy per candidate,
// the NFA quotient materialised per candidate, and the map[config]bool
// product search with per-edge label hashing — with:
//
//   - a union-find partition held in a flat parent array that is kept fully
//     compressed (parent[s] is always s's block root), so a candidate merge
//     "block of j into block of i" needs no copy at all: checkers read the
//     base array and apply the single j→i override on the fly;
//   - a dense transition-table view of the PTA (automaton.DenseNFA) built
//     once per Learn call, probed by integer label index;
//   - a forward product reachability over graph.Indexed CSR adjacency and a
//     []uint64 bitset of (node, block) configurations, seeded only from the
//     negative examples and exiting on the first accepting block;
//   - per-worker scratch (bitset + queue) reused across all O(n²) candidate
//     checks of the merge fold, so the steady-state check allocates
//     nothing.
//
// The fold order, the accepted merges, the Merges/CandidateMerges counters
// and the final quotient automaton are byte-identical to the reference path
// at any Parallelism; dense_test.go pins that on randomized graphs.

import (
	"sort"
	"sync"
	"time"

	"repro/internal/automaton"
	"repro/internal/graph"
)

// denseGeneralizer is the per-Learn-call state of the dense engine.
type denseGeneralizer struct {
	ix    *graph.Indexed
	dense *automaton.DenseNFA
	// numStates is the PTA state count; blocks of the partition are
	// identified by their root PTA state, so product configurations pack as
	// node*numStates + rootState.
	numStates int
	start     automaton.State
	// denseLabel[gl] is the DenseNFA label index of graph label index gl,
	// or -1 when the PTA never uses that label (the product walk skips it).
	denseLabel []int
	// negatives holds the dense node indices of the negative examples that
	// exist in the graph; the product search is seeded from exactly these.
	negatives []int32
	// parent[s] is the root PTA state of s's block. merge keeps it fully
	// compressed (roots map to themselves, every other state directly to
	// its root), so concurrent checkers resolve a block with one load.
	parent []int32
	// members[r] lists the states of root r's block (r included); nil once
	// the block has been merged away.
	members [][]int32
	// blockAccepting[r] reports whether root r's block contains an
	// accepting PTA state.
	blockAccepting []bool
	// scratch[k] is worker k's reusable product-search state.
	scratch []*mergeScratch
}

// mergeScratch is one worker's reusable product-search state. seen is kept
// all-zero between checks: every set bit's configuration is in the queue,
// and the owner clears them before finishing a check.
type mergeScratch struct {
	seen  []uint64
	queue []int32
}

// newDenseGeneralizer interns the negatives and sizes the partition and the
// per-worker scratch for the PTA × graph product.
func newDenseGeneralizer(g *graph.Graph, pta *automaton.NFA, dense *automaton.DenseNFA, negatives []graph.NodeID, workers int) *denseGeneralizer {
	ix := g.Indexed()
	n := pta.NumStates()
	dg := &denseGeneralizer{
		ix:             ix,
		dense:          dense,
		numStates:      n,
		start:          pta.Start(),
		denseLabel:     make([]int, ix.NumLabels()),
		parent:         make([]int32, n),
		members:        make([][]int32, n),
		blockAccepting: make([]bool, n),
		scratch:        make([]*mergeScratch, workers),
	}
	for gl := 0; gl < ix.NumLabels(); gl++ {
		li, ok := dense.LabelIndex(string(ix.LabelAt(int32(gl))))
		if !ok {
			li = -1
		}
		dg.denseLabel[gl] = li
	}
	for _, neg := range negatives {
		if i, ok := ix.IndexOf(neg); ok {
			dg.negatives = append(dg.negatives, i)
		}
	}
	memberBuf := make([]int32, n)
	for s := 0; s < n; s++ {
		dg.parent[s] = int32(s)
		memberBuf[s] = int32(s)
		dg.members[s] = memberBuf[s : s+1 : s+1]
		dg.blockAccepting[s] = pta.IsAccepting(automaton.State(s))
	}
	words := (ix.NumNodes()*n + 63) / 64
	for k := range dg.scratch {
		dg.scratch[k] = &mergeScratch{seen: make([]uint64, words)}
	}
	return dg
}

// selectsNegative reports whether the quotient of the PTA under the trial
// partition "block of j merged into block i" selects at least one negative
// node: a forward reachability over (node, block) product configurations
// seeded from the negatives, exiting on the first accepting block. j must
// be a root of the base partition and i a root below it; the base arrays
// are only read, so any number of candidate checks may run concurrently on
// distinct scratch.
func (dg *denseGeneralizer) selectsNegative(j, i int32, sc *mergeScratch) bool {
	if len(dg.negatives) == 0 {
		return false
	}
	S := int32(dg.numStates)
	// The trial acceptance of a root differs from the base only at i, which
	// absorbs block j's acceptance.
	iAccepting := dg.blockAccepting[i] || dg.blockAccepting[j]
	startBlock := dg.parent[dg.start]
	if startBlock == j {
		startBlock = i
	}
	if dg.blockAccepting[startBlock] || (startBlock == i && iAccepting) {
		return true
	}
	seen, queue := sc.seen, sc.queue[:0]
	for _, neg := range dg.negatives {
		c := neg*S + startBlock
		if seen[c>>6]&(1<<(uint(c)&63)) == 0 {
			seen[c>>6] |= 1 << (uint(c) & 63)
			queue = append(queue, c)
		}
	}
	numLabels := dg.ix.NumLabels()
	found := false
search:
	for head := 0; head < len(queue); head++ {
		c := queue[head]
		u := c / S
		b := c % S
		// The trial members of block b: members[b], plus members[j] when b
		// is the absorbing root i. Labels are the outer loop so each
		// (config, label) fetches the graph adjacency once, however many
		// member groups the block has.
		groups := 1
		if b == i {
			groups = 2
		}
		for gl := 0; gl < numLabels; gl++ {
			outs := dg.ix.Out(u, int32(gl))
			if len(outs) == 0 || dg.denseLabel[gl] < 0 {
				continue
			}
			for grp := 0; grp < groups; grp++ {
				blockMembers := dg.members[b]
				if grp == 1 {
					blockMembers = dg.members[j]
				}
				for _, s := range blockMembers {
					for _, t := range dg.dense.Successors(automaton.State(s), dg.denseLabel[gl]) {
						tb := dg.parent[t]
						if tb == j {
							tb = i
						}
						if dg.blockAccepting[tb] || (tb == i && iAccepting) {
							found = true
							break search
						}
						for _, v := range outs {
							nc := v*S + tb
							if seen[nc>>6]&(1<<(uint(nc)&63)) == 0 {
								seen[nc>>6] |= 1 << (uint(nc) & 63)
								queue = append(queue, nc)
							}
						}
					}
				}
			}
		}
	}
	// Restore the all-zero invariant: every set bit sits in the queue.
	for _, c := range queue {
		seen[c>>6] &^= 1 << (uint(c) & 63)
	}
	sc.queue = queue[:0]
	return found
}

// merge commits the candidate "block of j into block i", keeping parent
// fully compressed: every member of j's block (including j) is re-pointed
// directly at root i.
func (dg *denseGeneralizer) merge(j, i int32) {
	for _, s := range dg.members[j] {
		dg.parent[s] = i
	}
	dg.members[i] = append(dg.members[i], dg.members[j]...)
	dg.members[j] = nil
	dg.blockAccepting[i] = dg.blockAccepting[i] || dg.blockAccepting[j]
}

// mergeTargets is the dense twin of the reference mergeTargets: the roots
// below j in increasing order, re-sorted by descending evidence weight for
// MergeEvidence. buf is reused across j to avoid per-state allocation.
func (dg *denseGeneralizer) mergeTargets(j automaton.State, order MergeOrder, weights []int, buf []automaton.State) []automaton.State {
	for i := automaton.State(0); i < j; i++ {
		if automaton.State(dg.parent[i]) != i {
			continue // merged away
		}
		buf = append(buf, i)
	}
	if order == MergeEvidence {
		sort.SliceStable(buf, func(a, b int) bool {
			return weights[buf[a]] > weights[buf[b]]
		})
	}
	return buf
}

// partitionMap renders the union-find state as the partition map
// automaton.Quotient expects.
func (dg *denseGeneralizer) partitionMap() map[automaton.State]automaton.State {
	out := make(map[automaton.State]automaton.State)
	for s, r := range dg.parent {
		if int32(s) != r {
			out[automaton.State(s)] = automaton.State(r)
		}
	}
	return out
}

// generalizeDense is the dense implementation of the generalisation
// contract described on generalize: same fold order, counters and result
// automaton as generalizeReference, with O(1) candidate setup and pooled
// product-search scratch instead of per-candidate maps and quotients.
func generalizeDense(g *graph.Graph, pta *automaton.NFA, dense *automaton.DenseNFA, negatives []graph.NodeID, opts Options, result *Result) *automaton.NFA {
	workers := opts.WorkerCount()
	n := automaton.State(pta.NumStates())
	dg := newDenseGeneralizer(g, pta, dense, negatives, workers)
	var weights []int
	if opts.MergeOrder == MergeEvidence {
		weights = evidenceWeights(pta)
	}
	targets := make([]automaton.State, 0, int(n))
	outcomes := make([]bool, workers)
	traced := opts.Trace != nil
	var checkTime time.Duration
	for j := automaton.State(1); j < n; j++ {
		targets = dg.mergeTargets(j, opts.MergeOrder, weights, targets[:0])
		merged := false
		for lo := 0; lo < len(targets) && !merged; lo += workers {
			hi := lo + workers
			if hi > len(targets) {
				hi = len(targets)
			}
			chunk := targets[lo:hi]
			var chunkStart time.Time
			if traced {
				chunkStart = time.Now()
			}
			if len(chunk) == 1 || workers == 1 {
				for k, i := range chunk {
					outcomes[k] = !dg.selectsNegative(int32(j), int32(i), dg.scratch[0])
				}
			} else {
				var wg sync.WaitGroup
				for k, i := range chunk {
					wg.Add(1)
					go func(k int, i automaton.State) {
						defer wg.Done()
						outcomes[k] = !dg.selectsNegative(int32(j), int32(i), dg.scratch[k])
					}(k, i)
				}
				wg.Wait()
			}
			if traced {
				checkTime += time.Since(chunkStart)
			}
			for k := range chunk {
				// Count exactly the attempts the sequential fold would have
				// made: everything up to and including the accepted merge.
				result.CandidateMerges++
				if !outcomes[k] {
					continue
				}
				dg.merge(int32(j), int32(chunk[k]))
				result.Merges++
				merged = true
				break
			}
		}
	}
	if traced {
		opts.Trace("negative_checks", checkTime)
	}
	if result.Merges == 0 {
		return pta
	}
	// One quotient at the end instead of one per accepted merge: rejected
	// candidates never changed the partition, so this is the same automaton
	// the reference path's last accepted Quotient produced.
	return pta.Quotient(dg.partitionMap())
}
