// Package index precomputes per-graph label-reachability structures that
// the RPQ product sweep consults instead of expanding frontiers edge by
// edge. One Index is built per graph.Indexed version (typically in the
// background at graph registration) and holds three layers:
//
//   - per-label predecessor closure bitsets for the most frequent labels,
//     under a memory budget: SCC-condensed reflexive-transitive closures
//     of each reversed single-label subgraph, so a label-star subquery (a
//     DFA self-loop) in the backward product sweep is answered by ORing
//     closure rows instead of running a diameter-deep BFS;
//   - lazily built closures over the union of a label set, for DFA states
//     that self-loop on several labels (an alternation star), cached on
//     the index under the same budget;
//   - per-label source bitsets (the nodes with an outgoing edge of the
//     label), which turn the first backward step out of an accepting
//     state into one word-parallel OR.
//
// An Index never changes results — every structure is an exact
// reachability relation — and the unindexed engine remains the
// equivalence oracle in the tests.
package index

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Default construction parameters.
const (
	// DefaultMaxClosureBytes caps the total memory spent on per-label
	// closure rows.
	DefaultMaxClosureBytes = 64 << 20
	// DefaultMaxClosureLabels caps how many labels get closures, budget
	// permitting; labels are considered in descending edge count.
	DefaultMaxClosureLabels = 4
	// maxSetClosures caps how many distinct label-set closures the lazy
	// cache holds; the engine requests one per DFA state with multiple
	// self-loop labels, so real workloads need a handful at most.
	maxSetClosures = 16
)

// Options tunes Build. The zero value picks every default.
type Options struct {
	// MaxClosureBytes caps closure-row memory; 0 means
	// DefaultMaxClosureBytes, negative disables closures entirely.
	MaxClosureBytes int64
	// MaxClosureLabels caps how many labels get closures; 0 means
	// DefaultMaxClosureLabels, negative disables closures.
	MaxClosureLabels int
}

func (o Options) withDefaults() Options {
	if o.MaxClosureBytes == 0 {
		o.MaxClosureBytes = DefaultMaxClosureBytes
	}
	if o.MaxClosureLabels == 0 {
		o.MaxClosureLabels = DefaultMaxClosureLabels
	}
	return o
}

// Index is the precomputed reachability layer of one graph version. It is
// immutable after Build apart from the hit counter and safe for
// concurrent use.
type Index struct {
	ix *graph.Indexed

	// pred[l] is the per-label closure (nil when the label was not
	// closed): its rows answer "which nodes reach v via l-paths".
	pred []*Closure

	// srcBits[l] is the bitset of nodes with at least one outgoing l-edge
	// — the exact predecessor set of a full frontier under l, which lets
	// the engine's first backward step out of an accepting state run
	// word-parallel instead of probing every node's in-list.
	srcBits [][]uint64

	// setPred caches closures over the union of a label set, built lazily
	// on first request (a nil value records a declined build so the budget
	// check runs once per set). setBytes is their byte accounting, atomic
	// because Stats may race with a lazy build.
	opts     Options
	setMu    sync.Mutex
	setPred  map[string]*Closure
	setBytes atomic.Int64

	memBytes  int64
	buildTime time.Duration

	hits atomic.Uint64
}

// Build constructs the index for one Indexed view. It only reads the view
// (safe to run in the background against a registered, frozen graph).
func Build(ix *graph.Indexed, opts Options) *Index {
	opts = opts.withDefaults()
	start := time.Now()
	numLabels := ix.NumLabels()
	x := &Index{
		ix:      ix,
		opts:    opts,
		pred:    make([]*Closure, numLabels),
		setPred: make(map[string]*Closure),
	}
	x.buildClosures(opts)
	x.buildSourceBits()
	x.buildTime = time.Since(start)
	return x
}

// View returns the Indexed view the index was built on. Engines use
// pointer identity to decide whether the index is aligned with the view
// they evaluate over.
func (x *Index) View() *graph.Indexed { return x.ix }

// PredStar returns the predecessor closure of label gl, or nil when the
// label was not closed.
func (x *Index) PredStar(gl int32) *Closure { return x.pred[gl] }

// PredStarSet returns the predecessor closure over the union of the given
// label subgraphs — the relation "u reaches v by a path whose edges all
// carry labels in gls, interleaved freely". A DFA state with self-loops on
// exactly that label set consumes this relation, and the union typically
// condenses far better than any single label (on transport grids the
// bidirectional tram rows and bus columns merge into one grid-spanning
// SCC), so one set-closure jump replaces a diameter-deep cascade of
// per-label jumps. Set closures are built lazily on first request, cached
// on the index, and bounded both in count and by the same byte budget as
// the eager per-label closures; nil means the set is not closed.
func (x *Index) PredStarSet(gls []int32) *Closure {
	if len(gls) == 0 || x.opts.MaxClosureBytes < 0 || x.opts.MaxClosureLabels < 0 {
		return nil
	}
	if len(gls) == 1 {
		return x.pred[gls[0]]
	}
	sorted := append([]int32(nil), gls...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	key := make([]byte, 0, len(sorted)*4)
	for _, gl := range sorted {
		key = append(key, byte(gl), byte(gl>>8), byte(gl>>16), byte(gl>>24))
	}
	x.setMu.Lock()
	defer x.setMu.Unlock()
	if cl, ok := x.setPred[string(key)]; ok {
		return cl
	}
	if len(x.setPred) >= maxSetClosures {
		return nil
	}
	cl := buildClosureSet(x.ix.NumNodes(), sorted, x.ix.In)
	if x.setBytes.Load()+cl.MemBytes() > x.opts.MaxClosureBytes {
		cl = nil // over budget: remember the decline, drop the rows
	} else {
		x.setBytes.Add(cl.MemBytes())
	}
	x.setPred[string(key)] = cl
	return cl
}

// buildClosures closes the most frequent labels (by edge count), in that
// order, while the byte budget holds.
func (x *Index) buildClosures(opts Options) {
	if opts.MaxClosureBytes < 0 || opts.MaxClosureLabels < 0 {
		return
	}
	ix := x.ix
	n := ix.NumNodes()
	numLabels := ix.NumLabels()
	type labelFreq struct {
		gl    int32
		edges int
	}
	freq := make([]labelFreq, 0, numLabels)
	for l := 0; l < numLabels; l++ {
		edges := 0
		for v := int32(0); v < int32(n); v++ {
			edges += len(ix.Out(v, int32(l)))
		}
		if edges > 0 {
			freq = append(freq, labelFreq{gl: int32(l), edges: edges})
		}
	}
	sort.Slice(freq, func(i, j int) bool {
		if freq[i].edges != freq[j].edges {
			return freq[i].edges > freq[j].edges
		}
		return freq[i].gl < freq[j].gl
	})
	if len(freq) > opts.MaxClosureLabels {
		freq = freq[:opts.MaxClosureLabels]
	}
	var spent int64
	for _, f := range freq {
		gl := f.gl
		cl := buildClosure(n, func(v int32) []int32 { return ix.In(v, gl) })
		if spent+cl.MemBytes() > opts.MaxClosureBytes {
			break
		}
		spent += cl.MemBytes()
		x.pred[gl] = cl
	}
	x.memBytes += spent
}

// buildSourceBits records, per label, which nodes have an outgoing edge of
// that label. One word per 64 nodes per label — negligible next to the
// closures — and always built.
func (x *Index) buildSourceBits() {
	ix := x.ix
	n := ix.NumNodes()
	numLabels := ix.NumLabels()
	if n == 0 || numLabels == 0 {
		return
	}
	words := (n + 63) / 64
	flat := make([]uint64, numLabels*words)
	x.srcBits = make([][]uint64, numLabels)
	for l := 0; l < numLabels; l++ {
		row := flat[l*words : (l+1)*words]
		for v := int32(0); v < int32(n); v++ {
			if len(ix.Out(v, int32(l))) > 0 {
				row[v>>6] |= 1 << (uint(v) & 63)
			}
		}
		x.srcBits[l] = row
	}
	x.memBytes += int64(numLabels*words) * 8
}

// SourceBits returns the bitset of nodes with at least one outgoing edge
// of label gl, or nil on an empty graph. Callers must not modify it.
func (x *Index) SourceBits(gl int32) []uint64 {
	if x.srcBits == nil {
		return nil
	}
	return x.srcBits[gl]
}

// AddHits bumps the consultation counter; the engine batches it per sweep
// so the hot loops touch no atomics.
func (x *Index) AddHits(n uint64) { x.hits.Add(n) }

// Stats is a point-in-time snapshot of the index for /v1/stats and the
// gpsd_index_* metric families.
type Stats struct {
	// Bytes is the approximate resident size of the index structures.
	Bytes int64 `json:"bytes"`
	// BuildMs is the wall-clock build time in milliseconds.
	BuildMs float64 `json:"build_ms"`
	// ClosedLabels counts labels with a closure.
	ClosedLabels int `json:"closed_labels"`
	// SetClosures counts the lazily built label-set closures resident.
	SetClosures int `json:"set_closures"`
	// Hits counts index consultations that answered or jumped a subquery.
	Hits uint64 `json:"hits"`
}

// Stats returns the current snapshot.
func (x *Index) Stats() Stats {
	closed := 0
	for _, cl := range x.pred {
		if cl != nil {
			closed++
		}
	}
	sets := 0
	x.setMu.Lock()
	for _, cl := range x.setPred {
		if cl != nil {
			sets++
		}
	}
	x.setMu.Unlock()
	return Stats{
		Bytes:        x.memBytes + x.setBytes.Load(),
		SetClosures:  sets,
		BuildMs:      float64(x.buildTime.Microseconds()) / 1e3,
		ClosedLabels: closed,
		Hits:         x.hits.Load(),
	}
}
