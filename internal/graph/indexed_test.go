package graph

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func indexedFixture(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.MustAddEdge("a", "x", "b")
	g.MustAddEdge("a", "x", "c")
	g.MustAddEdge("a", "y", "b")
	g.MustAddEdge("b", "x", "c")
	g.MustAddEdge("c", "y", "a")
	g.MustAddNode("iso")
	return g
}

func TestIndexedRoundTrip(t *testing.T) {
	g := indexedFixture(t)
	ix := g.Indexed()
	if ix.NumNodes() != g.NumNodes() || ix.NumLabels() != 2 {
		t.Fatalf("interned sizes = %d nodes, %d labels; want %d, 2", ix.NumNodes(), ix.NumLabels(), g.NumNodes())
	}
	for i := int32(0); i < int32(ix.NumNodes()); i++ {
		id := ix.NodeAt(i)
		back, ok := ix.IndexOf(id)
		if !ok || back != i {
			t.Fatalf("IndexOf(NodeAt(%d)) = %d, %v", i, back, ok)
		}
	}
	for l := int32(0); l < int32(ix.NumLabels()); l++ {
		lab := ix.LabelAt(l)
		back, ok := ix.LabelIndexOf(lab)
		if !ok || back != l {
			t.Fatalf("LabelIndexOf(LabelAt(%d)) = %d, %v", l, back, ok)
		}
	}
	if _, ok := ix.IndexOf("missing"); ok {
		t.Fatal("IndexOf of a missing node must report false")
	}
}

// TestIndexedAdjacencyMatchesGraph cross-checks the CSR buckets against the
// map-based adjacency on random graphs.
func TestIndexedAdjacencyMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labels := []Label{"a", "b", "c"}
	for trial := 0; trial < 50; trial++ {
		g := New()
		n := 1 + rng.Intn(15)
		for i := 0; i < n; i++ {
			g.MustAddNode(NodeID(fmt.Sprintf("n%02d", i)))
		}
		for e := rng.Intn(4 * n); e > 0; e-- {
			g.MustAddEdge(
				NodeID(fmt.Sprintf("n%02d", rng.Intn(n))),
				labels[rng.Intn(len(labels))],
				NodeID(fmt.Sprintf("n%02d", rng.Intn(n))))
		}
		ix := g.Indexed()
		for _, id := range g.Nodes() {
			ni, _ := ix.IndexOf(id)
			for _, lab := range g.Alphabet() {
				li, _ := ix.LabelIndexOf(lab)
				var want []Edge
				for _, e := range g.Out(id) {
					if e.Label == lab {
						want = append(want, e)
					}
				}
				got := ix.Out(ni, li)
				if len(got) != len(want) {
					t.Fatalf("Out(%s, %s): %d successors, want %d", id, lab, len(got), len(want))
				}
				for k, succ := range got {
					if ix.NodeAt(succ) != want[k].To {
						t.Fatalf("Out(%s, %s)[%d] = %s, want %s", id, lab, k, ix.NodeAt(succ), want[k].To)
					}
				}
			}
			// Check In by re-deriving it from every node's out-edges.
			gotIn := 0
			for _, lab := range g.Alphabet() {
				li, _ := ix.LabelIndexOf(lab)
				gotIn += len(ix.In(ni, li))
			}
			if gotIn != g.InDegree(id) {
				t.Fatalf("in-degree of %s = %d, want %d", id, gotIn, g.InDegree(id))
			}
		}
	}
}

// TestIndexedCacheInvalidation checks that the view is built once and
// kept: building it freezes the graph, so nothing can invalidate it.
func TestIndexedCacheInvalidation(t *testing.T) {
	g := indexedFixture(t)
	ix1 := g.Indexed()
	if ix2 := g.Indexed(); ix2 != ix1 {
		t.Fatal("repeated Indexed() must return the cached view")
	}
}

// TestFrozenGraphRejectsMutation checks that every mutator panics once the
// graph is frozen, by Freeze or by building the Indexed view, even when
// the mutation would change nothing.
func TestFrozenGraphRejectsMutation(t *testing.T) {
	freezes := []struct {
		name   string
		freeze func(*Graph)
	}{
		{"Freeze", (*Graph).Freeze},
		{"Indexed", func(g *Graph) { g.Indexed() }},
	}
	mutators := []struct {
		name   string
		mutate func(*Graph) error
	}{
		{"AddNode", func(g *Graph) error { return g.AddNode("new") }},
		{"AddNode existing", func(g *Graph) error { return g.AddNode("a") }},
		{"AddEdge", func(g *Graph) error { return g.AddEdge("a", "x", "new") }},
		{"AddEdge existing", func(g *Graph) error { return g.AddEdge("a", "x", "b") }},
		{"SetAttr", func(g *Graph) error { return g.SetAttr("a", "kind", "k") }},
	}
	for _, f := range freezes {
		for _, m := range mutators {
			t.Run(f.name+"/"+m.name, func(t *testing.T) {
				g := indexedFixture(t)
				f.freeze(g)
				defer func() {
					if recover() == nil {
						t.Fatalf("%s after %s did not panic", m.name, f.name)
					}
				}()
				_ = m.mutate(g)
			})
		}
	}
}

// TestFreezeBuildsNoView checks that Freeze only marks the graph: the
// Indexed view is still built on first use, not at freeze time.
func TestFreezeBuildsNoView(t *testing.T) {
	g := indexedFixture(t)
	g.Freeze()
	if g.idx.Load() != nil {
		t.Fatal("Freeze built the Indexed view")
	}
	if ix := g.Indexed(); ix.NumNodes() != g.NumNodes() {
		t.Fatalf("view of a frozen graph has %d nodes, want %d", ix.NumNodes(), g.NumNodes())
	}
}

// TestFreezeConcurrent releases 32 goroutines at once onto a graph whose
// view is not built yet, half of them freezing it first: their first
// Indexed calls race for the build, and every caller must get the one view
// the graph then publishes. Run it under -race.
func TestFreezeConcurrent(t *testing.T) {
	g := indexedFixture(t)
	views := make([]*Indexed, 32)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				g.Freeze()
			}
			views[i] = g.Indexed()
		}()
	}
	close(start)
	wg.Wait()
	for i, ix := range views {
		if ix == nil || ix != g.idx.Load() {
			t.Fatalf("caller %d got view %p, want the published %p", i, ix, g.idx.Load())
		}
	}
}

// TestDerivedBuildsOncePerKey asks for two keys from 16 goroutines at once:
// each key's build runs once, every caller gets that key's value, and a
// later request returns it without building.
func TestDerivedBuildsOncePerKey(t *testing.T) {
	type key struct{ k int }
	ix := indexedFixture(t).Indexed()
	var builds [2]atomic.Int32
	got := make([]*int, 16)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			k := i % 2
			got[i] = ix.Derived(key{k}, func() any {
				builds[k].Add(1)
				v := k
				return &v
			}).(*int)
		}()
	}
	close(start)
	wg.Wait()
	for k := range builds {
		if n := builds[k].Load(); n != 1 {
			t.Fatalf("key %d was built %d times, want once", k, n)
		}
	}
	for i, p := range got {
		if p != got[i%2] || *p != i%2 {
			t.Fatalf("caller %d got %p (%d), want key %d's one value %p", i, p, *p, i%2, got[i%2])
		}
	}
	again := ix.Derived(key{0}, func() any { t.Fatal("a memoised key was rebuilt"); return nil })
	if again.(*int) != got[0] {
		t.Fatal("a later request returned another value")
	}
}

// TestIndexedSourceBits checks that each label's source bitset holds
// exactly the nodes with an outgoing edge of that label, on random graphs
// whose node counts straddle a word boundary and on the empty graph.
func TestIndexedSourceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	labels := []Label{"a", "b", "c", "d"}
	for trial := 0; trial < 40; trial++ {
		g := New()
		n := 1 + rng.Intn(140)
		for i := 0; i < n; i++ {
			g.MustAddNode(NodeID(fmt.Sprintf("n%03d", i)))
		}
		for e := rng.Intn(2 * n); e > 0; e-- {
			g.MustAddEdge(
				NodeID(fmt.Sprintf("n%03d", rng.Intn(n))),
				labels[rng.Intn(len(labels))],
				NodeID(fmt.Sprintf("n%03d", rng.Intn(n))))
		}
		ix := g.Indexed()
		for gl := int32(0); gl < int32(ix.NumLabels()); gl++ {
			src := ix.SourceBits(gl)
			if len(src) != (n+63)/64 {
				t.Fatalf("SourceBits(%d) has %d words for %d nodes", gl, len(src), n)
			}
			for v := int32(0); v < int32(n); v++ {
				got := src[v>>6]&(1<<(uint(v)&63)) != 0
				if want := len(ix.Out(v, gl)) > 0; got != want {
					t.Fatalf("trial %d: SourceBits(%d) bit %d = %v, want %v", trial, gl, v, got, want)
				}
			}
			if tail := n & 63; tail != 0 && src[len(src)-1]>>uint(tail) != 0 {
				t.Fatalf("SourceBits(%d) sets bits past node %d", gl, n-1)
			}
		}
	}
	if ix := New().Indexed(); ix.NumLabels() != 0 || len(ix.srcBits) != 0 {
		t.Fatal("the empty graph must carry no source bits")
	}
}
