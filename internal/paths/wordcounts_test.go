package paths

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

// wordCountGraph builds a seeded random graph for the WordCounts checks.
// Its labels include dotted ones ("a.b" next to "a" and "b"), so a count
// that keyed words by joined label strings would merge distinct words. It
// always holds isolated nodes and nodes that only receive edges, whose one
// word is the empty word.
func wordCountGraph(rng *rand.Rand) *graph.Graph {
	g := graph.New()
	labels := []graph.Label{"a", "b", "a.b", "b.a"}
	n := 6 + rng.Intn(10)
	id := func(i int) graph.NodeID { return graph.NodeID(fmt.Sprintf("n%02d", i)) }
	for e := rng.Intn(3 * n); e >= 0; e-- {
		g.MustAddEdge(id(rng.Intn(n)), labels[rng.Intn(len(labels))], id(rng.Intn(n)))
	}
	g.MustAddEdge(id(0), "a", "sink")
	g.MustAddEdge(id(1), "a.b", "sink.b")
	g.MustAddNode("isolated")
	g.MustAddNode("isolated.too")
	return g
}

// TestWordCountsMatchEmptyCoverage pins the shared vector to
// CountUncoveredWith against a coverage of no negatives, for every node of
// 30 seeded random graphs at k = 1..6 (and k = 0 and -1 at the edges).
func TestWordCountsMatchEmptyCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 30; trial++ {
		g := wordCountGraph(rng)
		ix := g.Indexed()
		for k := -1; k <= 6; k++ {
			counts := WordCounts(g, k)
			if len(counts) != ix.NumNodes() {
				t.Fatalf("trial %d, k=%d: %d counts for %d nodes", trial, k, len(counts), ix.NumNodes())
			}
			empty := NewCoverage(g, nil, k)
			for i, got := range counts {
				id := ix.NodeAt(int32(i))
				if want := CountUncoveredWith(g, id, k, empty); int(got) != want {
					t.Fatalf("trial %d, k=%d: WordCounts[%s] = %d, CountUncoveredWith %d", trial, k, id, got, want)
				}
			}
			for _, id := range []graph.NodeID{"sink", "sink.b", "isolated", "isolated.too"} {
				if i, _ := ix.IndexOf(id); k >= 0 && counts[i] != 1 {
					t.Fatalf("trial %d, k=%d: %s has no out-edge but counts %d words, want 1", trial, k, id, counts[i])
				}
			}
		}
	}
}

// TestWordCountsSharedPerGraphAndBound releases 8 goroutines at once onto
// a graph whose vector is not built yet: all must get one backing array.
// Another bound gets its own vector, and an equal graph its own.
func TestWordCountsSharedPerGraphAndBound(t *testing.T) {
	g := wordCountGraph(rand.New(rand.NewSource(1)))
	got := make([][]int32, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = WordCounts(g, 4)
		}()
	}
	close(start)
	wg.Wait()
	for i, c := range got {
		if &c[0] != &got[0][0] {
			t.Fatalf("caller %d got another vector: built more than once", i)
		}
	}
	if other := WordCounts(g, 3); &other[0] == &got[0][0] {
		t.Fatal("bounds 3 and 4 share one vector")
	}
	twin := wordCountGraph(rand.New(rand.NewSource(1)))
	if c := WordCounts(twin, 4); &c[0] == &got[0][0] {
		t.Fatal("two graphs share one vector")
	}
}
