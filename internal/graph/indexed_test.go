package graph

import (
	"fmt"
	"math/rand"
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
			if d := ix.OutDegree(ni); d != g.OutDegree(id) {
				t.Fatalf("out-degree of %s = %d, want %d", id, d, g.OutDegree(id))
			}
		}
	}
}

// TestIndexedCacheInvalidation verifies that the cached view is rebuilt
// exactly when the graph structurally changes.
func TestIndexedCacheInvalidation(t *testing.T) {
	g := indexedFixture(t)
	ix1 := g.Indexed()
	if ix2 := g.Indexed(); ix2 != ix1 {
		t.Fatal("repeated Indexed() without mutation must return the cached view")
	}
	v := g.Version()
	g.MustAddEdge("b", "y", "a")
	if g.Version() == v {
		t.Fatal("AddEdge must bump the version")
	}
	ix3 := g.Indexed()
	if ix3 == ix1 {
		t.Fatal("mutation must invalidate the cached view")
	}
	li, _ := ix3.LabelIndexOf("y")
	bi, _ := ix3.IndexOf("b")
	if len(ix3.Out(bi, li)) != 1 {
		t.Fatal("rebuilt view must contain the new edge")
	}
	// No-op mutations must not invalidate.
	v = g.Version()
	g.MustAddNode("a")
	g.MustAddEdge("b", "y", "a")
	if g.Version() != v {
		t.Fatal("no-op AddNode/AddEdge must not bump the version")
	}
	if g.Indexed() != ix3 {
		t.Fatal("no-op mutations must keep the cached view")
	}
}
