package learn

// Step 2 of Learn (RPNI-style state merging) over integer-indexed state:
//
//   - a union-find partition held in a flat parent array that is kept fully
//     compressed (parent[s] is always s's block root), so a candidate merge
//     "block of j into block of i" needs no copy at all: the check reads the
//     base array and applies the single j→i override on the fly;
//   - a dense transition-table view of the PTA (automaton.DenseNFA) built
//     once per Learn call, probed by integer label index;
//   - a forward product reachability over graph.Indexed CSR adjacency and a
//     []uint64 bitset of (node, block) configurations, seeded only from the
//     negative examples and exiting on the first accepting block;
//   - one scratch bitset and queue reused across all O(n²) candidate checks
//     of the merge fold, so the steady-state check allocates nothing.
//
// oracle_test.go pins the fold order, the accepted merges, the
// Merges/CandidateMerges counters and the final quotient automaton against
// a map-based reference on randomized graphs.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/automaton"
	"repro/internal/graph"
)

// denseGeneralizer is the per-Learn-call state of the merge fold.
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
	// its root), so a check resolves a block with one load.
	parent []int32
	// members[r] lists the states of root r's block (r included); nil once
	// the block has been merged away.
	members [][]int32
	// blockAccepting[r] reports whether root r's block contains an
	// accepting PTA state.
	blockAccepting []bool
	// seen and queue are the product search's scratch. seen is kept
	// all-zero between checks: every set bit's configuration is in the
	// queue, and selectsNegative clears them before it returns.
	seen  []uint64
	queue []int32
}

// newDenseGeneralizer interns the negatives and sizes the partition and the
// scratch for the PTA × graph product, which must fit in int32.
func newDenseGeneralizer(g *graph.Graph, pta *automaton.NFA, negatives []graph.NodeID) *denseGeneralizer {
	ix := g.Indexed()
	dense := pta.Dense()
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
		seen:           make([]uint64, (ix.NumNodes()*n+63)/64),
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
	return dg
}

// selectsNegative reports whether the quotient of the PTA under the trial
// partition "block of j merged into block i" selects at least one negative
// node: a forward reachability over (node, block) product configurations
// seeded from the negatives, exiting on the first accepting block. j must
// be a root of the base partition and i a root below it; the base arrays
// are only read.
func (dg *denseGeneralizer) selectsNegative(j, i int32) bool {
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
	seen, queue := dg.seen, dg.queue[:0]
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
	dg.queue = queue[:0]
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

// mergeTargets lists the candidate earlier states j may be merged into:
// the roots below j in increasing order, re-sorted by descending evidence
// weight for MergeEvidence (weights must then be non-nil). buf is reused
// across j to avoid per-state allocation.
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

// evidenceWeights precomputes the MergeEvidence weight of every PTA state
// (its total number of outgoing transitions). The weights depend only on
// the immutable PTA, so one pass per generalize call replaces the
// per-comparison recomputation the sort comparator used to do.
func evidenceWeights(pta *automaton.NFA) []int {
	labels := pta.Labels()
	weights := make([]int, pta.NumStates())
	for s := range weights {
		for _, l := range labels {
			weights[s] += len(pta.Successors(automaton.State(s), l))
		}
	}
	return weights
}

// generalize merges states of the PTA while the automaton's language keeps
// selecting no negative example on the graph. States are visited in a
// single increasing pass: each state j is merged into the first earlier
// (still unmerged) state i for which the merged automaton stays consistent,
// the usual RPNI-style folding order. The evidence-weighted order instead
// tries earlier states with more outgoing evidence first.
//
// Product configurations pack node*numStates+block into int32 (like the
// rpq core packs its product); generalize returns an error when the graph ×
// PTA product exceeds that range.
func generalize(g *graph.Graph, pta *automaton.NFA, negatives []graph.NodeID, opts Options, result *Result) (*automaton.NFA, error) {
	n := automaton.State(pta.NumStates())
	if int64(g.NumNodes())*int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("learn: a %d-node graph × %d-state prefix tree exceeds the merge fold's int32 configuration space",
			g.NumNodes(), n)
	}
	dg := newDenseGeneralizer(g, pta, negatives)
	var weights []int
	if opts.MergeOrder == MergeEvidence {
		weights = evidenceWeights(pta)
	}
	targets := make([]automaton.State, 0, int(n))
	traced := opts.Trace != nil
	var checkTime time.Duration
	for j := automaton.State(1); j < n; j++ {
		targets = dg.mergeTargets(j, opts.MergeOrder, weights, targets[:0])
		var checkStart time.Time
		if traced {
			checkStart = time.Now()
		}
		for _, i := range targets {
			result.CandidateMerges++
			if !dg.selectsNegative(int32(j), int32(i)) {
				dg.merge(int32(j), int32(i))
				result.Merges++
				break
			}
		}
		if traced {
			checkTime += time.Since(checkStart)
		}
	}
	if traced {
		opts.Trace("negative_checks", checkTime)
	}
	if result.Merges == 0 {
		return pta, nil
	}
	// One quotient at the end instead of one per accepted merge: rejected
	// candidates never changed the partition, so this is the automaton a
	// quotient after the last accepted merge would produce.
	return pta.Quotient(dg.partitionMap()), nil
}
