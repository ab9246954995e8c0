package rpq

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/rpq/index"
)

// Sharded product-reachability. The backward sweep of computeReachability
// is a breadth-first fixpoint: the set of configurations that reach an
// accepting configuration is unique regardless of the order bits are
// discovered in. That makes the sweep safe to shard level-synchronously —
// each level's frontier is split into node ranges handed to a bounded
// worker pool, workers claim configurations with an atomic bit-set on the
// shared accReach bitset, and the per-worker next frontiers are
// concatenated for the following level. The resulting accReach bitset and
// the selected answer set are byte-identical to the sequential sweep.

// Options configures how an Engine evaluates.
type Options struct {
	// Workers is the number of goroutines the product-reachability sweep
	// may use. 0 means DefaultWorkers(); 1 means fully sequential. Sharding
	// never changes results, only wall-clock time on large graphs.
	Workers int
	// Index, when non-nil and built on the graph's current Indexed view,
	// switches the sweep to the index-assisted state-wise bitset fixpoint
	// (see indexed.go). A stale or foreign index is ignored. Results are
	// always byte-identical to an index-less engine.
	Index *index.Index
}

// DefaultWorkers is the worker count used when Options.Workers is zero:
// one per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

const (
	// parallelMinConfigs is the product size (nodes × DFA states) below
	// which the sharded sweep falls back to the sequential one: tiny
	// products finish faster than the workers can be scheduled.
	parallelMinConfigs = 1 << 13
	// parallelMinFrontier is the per-level frontier size below which a
	// level is expanded inline instead of being split across workers.
	parallelMinFrontier = 256
)

// NewWith compiles the query like New and precomputes the selected node
// set with the given options. With Workers > 1 the product-reachability
// sweep is sharded across a worker pool; the engine it returns is
// indistinguishable from a sequentially built one.
func NewWith(g *graph.Graph, query *regex.Expr, opts Options) *Engine {
	e := newEngine(g, query)
	if e.usableIndex(opts.Index) {
		e.idx = opts.Index
		e.computeReachabilityIndexed()
		return e
	}
	workers := opts.Workers
	if workers == 0 {
		workers = DefaultWorkers()
	}
	e.computeReachabilityParallel(workers)
	return e
}

// computeReachabilityParallel runs the backward sweep on a worker pool.
// It produces exactly the same accReach bitset and selected set as
// computeReachability.
func (e *Engine) computeReachabilityParallel(workers int) {
	n := e.ix.NumNodes()
	S := e.numStates
	total := n * S
	if workers <= 1 || total < parallelMinConfigs {
		e.computeReachability()
		return
	}
	e.accReach = make([]uint64, (total+63)/64)
	// Seed: every (node, state) with state accepting.
	frontier := make([]int32, 0, n)
	for s := 0; s < S; s++ {
		if !e.accepting[s] {
			continue
		}
		for i := 0; i < n; i++ {
			c := i*S + s
			e.accReach[c>>6] |= 1 << (uint(c) & 63)
			frontier = append(frontier, int32(c))
		}
	}
	rev := e.dfa.Reverse()
	next := make([][]int32, workers)
	// spare ping-pongs with frontier in the inline (small-level) branch so
	// that expandLevel never appends into the buffer it is reading from.
	var spare []int32
	for len(frontier) > 0 {
		if len(frontier) < parallelMinFrontier {
			out := e.expandLevel(frontier, spare[:0], rev)
			spare = frontier[:0]
			frontier = out
			continue
		}
		chunk := (len(frontier) + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, len(frontier))
			if lo >= hi {
				next[w] = next[w][:0]
				continue
			}
			wg.Add(1)
			go func(w int, part []int32) {
				defer wg.Done()
				next[w] = e.expandLevel(part, next[w][:0], rev)
			}(w, frontier[lo:hi])
		}
		wg.Wait()
		merged := frontier[:0]
		for w := range next {
			merged = append(merged, next[w]...)
		}
		frontier = merged
	}
	e.collectSelected()
}

// expandLevel claims every undiscovered predecessor of the configurations
// in part and appends it to out. The claim is an atomic bit-set so that
// concurrent workers never enqueue the same configuration twice.
func (e *Engine) expandLevel(part, out []int32, rev *automaton.ReverseTransitions) []int32 {
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
			if len(preds) == 0 {
				continue
			}
			for _, v := range ins {
				base := int(v) * S
				for _, s := range preds {
					pc := base + int(s)
					mask := uint64(1) << (uint(pc) & 63)
					if atomic.OrUint64(&e.accReach[pc>>6], mask)&mask == 0 {
						out = append(out, int32(pc))
					}
				}
			}
		}
	}
	return out
}
