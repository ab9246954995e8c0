package index

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// randomGraph builds a random labelled graph with up to maxNodes nodes
// over a small alphabet.
func randomGraph(rng *rand.Rand, maxNodes int) *graph.Graph {
	g := graph.New()
	n := 1 + rng.Intn(maxNodes)
	labels := []graph.Label{"a", "b", "c", "d"}[:1+rng.Intn(4)]
	for i := 0; i < n; i++ {
		g.MustAddNode(graph.NodeID(fmt.Sprintf("n%02d", i)))
	}
	edges := rng.Intn(4*n + 1)
	for i := 0; i < edges; i++ {
		from := graph.NodeID(fmt.Sprintf("n%02d", rng.Intn(n)))
		to := graph.NodeID(fmt.Sprintf("n%02d", rng.Intn(n)))
		g.MustAddEdge(from, labels[rng.Intn(len(labels))], to)
	}
	return g
}

// Reaches reports whether w is in the closure of v (i.e. v reaches w via
// edges of the closed label, or v == w).
func (c *Closure) Reaches(v, w int32) bool {
	if v == w {
		return true
	}
	r := c.rowOf[v]
	if r < 0 {
		return false
	}
	return c.rows[int(r)*c.words+int(w>>6)]&(1<<(uint(w)&63)) != 0
}

// refReaches is the reference single-label reachability: BFS from v over
// gl-edges.
func refReaches(ix *graph.Indexed, v, w, gl int32) bool {
	if v == w {
		return true
	}
	seen := make([]bool, ix.NumNodes())
	seen[v] = true
	queue := []int32{v}
	for head := 0; head < len(queue); head++ {
		for _, t := range ix.Out(queue[head], gl) {
			if t == w {
				return true
			}
			if !seen[t] {
				seen[t] = true
				queue = append(queue, t)
			}
		}
	}
	return false
}

// TestIndexClosureMatchesBFS pins every closed label's closure rows to the
// reference BFS on randomized graphs.
func TestIndexClosureMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 80; c++ {
		g := randomGraph(rng, 14)
		ix := g.Indexed()
		// Close every label: large budget, no label cap pressure.
		x := Build(ix, Options{MaxClosureLabels: 8})
		n := int32(ix.NumNodes())
		for gl := int32(0); gl < int32(ix.NumLabels()); gl++ {
			pred := x.PredStar(gl)
			if pred == nil {
				continue
			}
			for v := int32(0); v < n; v++ {
				for w := int32(0); w < n; w++ {
					if got, want := pred.Reaches(w, v), refReaches(ix, v, w, gl); got != want {
						t.Fatalf("case %d label %d: pred.Reaches(%d,%d)=%v want %v (transposed)", c, gl, w, v, got, want)
					}
				}
			}
		}
	}
}

// refReachesSet is the reference label-set reachability: BFS from v over
// edges whose label is in gls.
func refReachesSet(ix *graph.Indexed, v, w int32, gls []int32) bool {
	if v == w {
		return true
	}
	seen := make([]bool, ix.NumNodes())
	seen[v] = true
	queue := []int32{v}
	for head := 0; head < len(queue); head++ {
		for _, gl := range gls {
			for _, t := range ix.Out(queue[head], gl) {
				if t == w {
					return true
				}
				if !seen[t] {
					seen[t] = true
					queue = append(queue, t)
				}
			}
		}
	}
	return false
}

// TestIndexPredStarSet pins the lazily built label-set closures (the union
// reachability a multi-self-loop DFA state consumes) to the reference
// multi-label BFS, including the singleton fall-through, the budget
// decline, and the repeat-request cache hit.
func TestIndexPredStarSet(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for c := 0; c < 60; c++ {
		g := randomGraph(rng, 14)
		ix := g.Indexed()
		x := Build(ix, Options{MaxClosureLabels: 8})
		numLabels := int32(ix.NumLabels())
		var sets [][]int32
		for gl := int32(0); gl < numLabels; gl++ {
			sets = append(sets, []int32{gl})
			for gl2 := gl + 1; gl2 < numLabels; gl2++ {
				sets = append(sets, []int32{gl, gl2}, []int32{gl2, gl}) // order-insensitive
			}
		}
		if numLabels >= 3 {
			sets = append(sets, []int32{2, 0, 1})
		}
		n := int32(ix.NumNodes())
		for _, gls := range sets {
			cl := x.PredStarSet(gls)
			if len(gls) == 1 {
				if cl != x.PredStar(gls[0]) {
					t.Fatalf("case %d: singleton set did not fall through to PredStar", c)
				}
			}
			if cl == nil {
				continue
			}
			if again := x.PredStarSet(gls); again != cl {
				t.Fatalf("case %d: repeated PredStarSet(%v) not served from cache", c, gls)
			}
			for v := int32(0); v < n; v++ {
				for w := int32(0); w < n; w++ {
					// Pred closure rows are the transposed relation.
					if got, want := cl.Reaches(w, v), refReachesSet(ix, v, w, gls); got != want {
						t.Fatalf("case %d set %v: Reaches(%d,%d)=%v want %v", c, gls, w, v, got, want)
					}
				}
			}
		}
	}

	// Disabled closures and a spent budget both decline set builds.
	g := graph.New()
	g.MustAddEdge("a", "x", "b")
	g.MustAddEdge("b", "y", "a")
	ix := g.Indexed()
	for _, opts := range []Options{{MaxClosureBytes: -1}, {MaxClosureBytes: 1}} {
		x := Build(ix, opts)
		if cl := x.PredStarSet([]int32{0, 1}); cl != nil {
			t.Fatalf("opts %+v: set closure built despite budget", opts)
		}
	}
}

// TestIndexClosureBudget checks that a tiny byte budget suppresses every
// closure, and that Stats.Bytes counts exactly the closures kept.
func TestIndexClosureBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 14)
	ix := g.Indexed()
	x := Build(ix, Options{MaxClosureBytes: 1})
	for gl := int32(0); gl < int32(ix.NumLabels()); gl++ {
		if x.PredStar(gl) != nil {
			t.Fatalf("label %d closed despite 1-byte budget", gl)
		}
	}
	if st := x.Stats(); st.ClosedLabels != 0 || st.Bytes != 0 {
		t.Fatalf("Stats = %+v, want no closed label and 0 bytes", st)
	}

	// A budget that fits only the most frequent label's closure keeps it
	// and counts it in Stats.Bytes.
	fig := dataset.Figure1().Indexed()
	tram := Build(fig, Options{MaxClosureLabels: 1})
	var first *Closure
	for gl := range tram.pred {
		if tram.pred[gl] != nil {
			first = tram.pred[gl]
		}
	}
	x = Build(fig, Options{MaxClosureBytes: first.MemBytes()})
	if st := x.Stats(); st.ClosedLabels != 1 || st.Bytes != first.MemBytes() {
		t.Fatalf("Stats = %+v, want 1 closed label and %d bytes", st, first.MemBytes())
	}
}

// TestIndexStats sanity-checks the snapshot fields on a non-trivial graph.
func TestIndexStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 14)
	x := Build(g.Indexed(), Options{})
	st := x.Stats()
	if st.Bytes <= 0 {
		t.Fatalf("Stats.Bytes = %d, want > 0", st.Bytes)
	}
	if st.ClosedLabels <= 0 {
		t.Fatalf("Stats.ClosedLabels = %d, want > 0", st.ClosedLabels)
	}
	x.AddHits(2)
	if st = x.Stats(); st.Hits != 2 {
		t.Fatalf("Stats.Hits = %d, want 2", st.Hits)
	}
}

// TestIndexBytesTransport pins the resident size of a default index on the
// transport grids the benchmarks use: per-label predecessor closures and
// nothing else.
func TestIndexBytesTransport(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int64
	}{{10, 9912}, {40, 1113760}, {60, 5406016}} {
		g := dataset.Transport(dataset.TransportOptions{Rows: tc.n, Cols: tc.n, Seed: 1, FacilityRate: 0.3})
		if got := Build(g.Indexed(), Options{}).Stats().Bytes; got != tc.want {
			t.Errorf("%dx%d: Stats().Bytes = %d, want %d", tc.n, tc.n, got, tc.want)
		}
	}
}
