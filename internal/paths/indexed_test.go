package paths

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// equivalenceGraphs builds the graph zoo the indexed implementations are
// compared against the string-keyed reference on: the paper's Figure 1
// graph, randomized and scale-free graphs of varying density, and a
// transport grid, whose many paths converge on the same end nodes and so
// exercise the end sets' deduplication.
func equivalenceGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	graphs := map[string]*graph.Graph{
		"figure1":     dataset.Figure1(),
		"transport-6": dataset.Transport(dataset.TransportOptions{Rows: 6, Cols: 6, Seed: 1, FacilityRate: 0.3}),
	}
	for _, seed := range []int64{1, 7, 42} {
		graphs[fmt.Sprintf("random-%d", seed)] = dataset.Random(dataset.RandomOptions{Nodes: 25, Seed: seed})
		graphs[fmt.Sprintf("scale-free-%d", seed)] = dataset.ScaleFree(dataset.ScaleFreeOptions{Nodes: 25, Seed: seed})
	}
	return graphs
}

// pickNegatives deterministically samples k distinct nodes.
func pickNegatives(g *graph.Graph, rng *rand.Rand, k int) []graph.NodeID {
	nodes := g.Nodes()
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	if k > len(nodes) {
		k = len(nodes)
	}
	return nodes[:k]
}

func TestWordsMatchesReference(t *testing.T) {
	for name, g := range equivalenceGraphs(t) {
		for _, maxLen := range []int{0, 1, 2, 3, 4} {
			for _, start := range g.Nodes() {
				got := Words(g, start, maxLen)
				want := refWords(g, start, maxLen)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Words(%s, %d) = %v, reference %v", name, start, maxLen, got, want)
				}
			}
		}
		// Missing node and negative bound behave like the reference.
		if got := Words(g, "no-such-node", 3); got != nil {
			t.Fatalf("%s: Words on a missing node = %v, want nil", name, got)
		}
		if got := Words(g, g.Nodes()[0], -1); got != nil {
			t.Fatalf("%s: Words with negative bound = %v, want nil", name, got)
		}
	}
}

func TestHasWordMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for name, g := range equivalenceGraphs(t) {
		nodes := g.Nodes()
		// Real words of random nodes plus perturbed (likely absent) words.
		for i := 0; i < 50; i++ {
			start := nodes[rng.Intn(len(nodes))]
			words := refWords(g, start, 3)
			w := words[rng.Intn(len(words))]
			if got, want := HasWord(g, start, w), refHasWord(g, start, w); got != want {
				t.Fatalf("%s: HasWord(%s, %v) = %v, reference %v", name, start, w, got, want)
			}
			other := nodes[rng.Intn(len(nodes))]
			if got, want := HasWord(g, other, w), refHasWord(g, other, w); got != want {
				t.Fatalf("%s: HasWord(%s, %v) = %v, reference %v", name, other, w, got, want)
			}
			perturbed := append(append([]string(nil), w...), "no-such-label")
			if HasWord(g, start, perturbed) {
				t.Fatalf("%s: HasWord accepted a word with an unknown label", name)
			}
		}
		if HasWord(g, "no-such-node", nil) {
			t.Fatalf("%s: HasWord accepted a missing node", name)
		}
	}
}

func TestCoverageMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, g := range equivalenceGraphs(t) {
		for _, numNeg := range []int{0, 1, 3} {
			negatives := pickNegatives(g, rng, numNeg)
			for _, maxLen := range []int{0, 2, 3} {
				cov := NewCoverage(g, negatives, maxLen)
				ref := newRefCoverage(g, negatives, maxLen)
				for _, start := range g.Nodes() {
					for _, w := range refWords(g, start, maxLen) {
						if got, want := cov.Covers(w), ref.covers(w); got != want {
							t.Fatalf("%s: Covers(%v) with %d negatives = %v, reference %v",
								name, w, numNeg, got, want)
						}
					}
					if got, want := CountUncoveredWith(g, start, maxLen, cov),
						refCountUncovered(g, start, negatives, maxLen); got != want {
						t.Fatalf("%s: CountUncoveredWith(%s) with %d negatives bound %d = %d, reference %d",
							name, start, numNeg, maxLen, got, want)
					}
					gotWords := UncoveredWordsWith(g, start, maxLen, cov)
					var wantWords [][]string
					for _, w := range refWords(g, start, maxLen) {
						if !ref.covers(w) {
							wantWords = append(wantWords, w)
						}
					}
					if !reflect.DeepEqual(gotWords, wantWords) {
						t.Fatalf("%s: UncoveredWords(%s) = %v, reference %v", name, start, gotWords, wantWords)
					}
				}
			}
		}
	}
}

// TestCoverageAcrossGraphRevisions pins the fallback path: a Coverage built
// on one revision of a graph still answers consistently (against the
// revision it was built on) when probed through another revision.
func TestCoverageAcrossGraphRevisions(t *testing.T) {
	g := dataset.Figure1()
	negatives := pickNegatives(g, rand.New(rand.NewSource(3)), 2)
	cov := NewCoverage(g, negatives, 3)
	ref := newRefCoverage(g, negatives, 3)
	probe := g.Nodes()[0]
	wantCount := CountUncoveredWith(g, probe, 3, cov)

	// The next revision is another graph with its own Indexed view, so the
	// count falls back to string probing against the old coverage.
	next := dataset.Figure1()
	if err := next.AddNode("brand-new-node"); err != nil {
		t.Fatal(err)
	}
	for _, w := range refWords(next, probe, 3) {
		if got, want := cov.Covers(w), ref.covers(w); got != want {
			t.Fatalf("Covers(%v) on the next revision = %v, want %v", w, got, want)
		}
	}
	if got := CountUncoveredWith(next, probe, 3, cov); got != wantCount {
		t.Fatalf("CountUncoveredWith on the next revision = %d, want %d", got, wantCount)
	}
}

func BenchmarkCountUncovered(b *testing.B) {
	g := dataset.Transport(dataset.TransportOptions{Rows: 8, Cols: 8, Seed: 1, FacilityRate: 0.4})
	nodes := g.Nodes()
	negatives := nodes[:4]
	b.Run("indexed", func(b *testing.B) {
		cov := NewCoverage(g, negatives, 3)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CountUncoveredWith(g, nodes[i%len(nodes)], 3, cov)
		}
	})
	b.Run("reference", func(b *testing.B) {
		cov := newRefCoverage(g, negatives, 3)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, w := range refWords(g, nodes[i%len(nodes)], 3) {
				if !cov.covers(w) {
					n++
				}
			}
		}
	})
}
