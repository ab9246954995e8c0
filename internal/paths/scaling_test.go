package paths

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// scalingTransport is the transport grid the scaling cases compare at two
// sizes: 20x20 has 887 nodes and 40x40 has 3,502 (3.95x).
func scalingTransport(side int) *graph.Graph {
	return dataset.Transport(dataset.TransportOptions{Rows: side, Cols: side, Seed: 1, FacilityRate: 0.3})
}

// allocBytes returns the median, over three runs, of the bytes op
// allocates (the runtime.MemStats.TotalAlloc delta). Allocation counts are
// the same on every host, so their ratio at two graph sizes states how a
// layer scales without timing anything.
func allocBytes(op func()) uint64 {
	var runs []uint64
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		op()
		runtime.ReadMemStats(&ms)
		runs = append(runs, ms.TotalAlloc-before)
	}
	slices.Sort(runs)
	return runs[1]
}

// TestLocalOperationsScale pins that the per-node primitives cost what the
// node's own neighbourhood costs: on a fixed node with fixed negatives, far
// from the grid's border at both sizes, quadrupling the graph must not
// raise their allocations by more than half.
func TestLocalOperationsScale(t *testing.T) {
	const (
		k    = 4
		reps = 50
		node = graph.NodeID("N5_5")
	)
	negatives := []graph.NodeID{"N4_4", "N6_5", "N5_7"}
	ops := map[string]func(g *graph.Graph) func(){
		"HasWord": func(g *graph.Graph) func() {
			// The node's longest word: every letter is a step to walk.
			words := Words(g, node, k)
			word := words[len(words)-1]
			return func() { HasWord(g, node, word) }
		},
		"Words": func(g *graph.Graph) func() {
			return func() { Words(g, node, k) }
		},
		"SmallestUncovered": func(g *graph.Graph) func() {
			return func() { smallestUncovered(g, node, negatives, k) }
		},
	}
	small, large := scalingTransport(20), scalingTransport(40)
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			measure := func(g *graph.Graph) uint64 {
				once := op(g)
				once() // builds the Indexed view outside the measurement
				return allocBytes(func() {
					for i := 0; i < reps; i++ {
						once()
					}
				})
			}
			a, b := measure(small), measure(large)
			if a == 0 {
				// Nothing allocated on 20x20 (HasWord's end sets fit its
				// stack buffers): 40x40 must allocate nothing either.
				if b != 0 {
					t.Fatalf("%s allocates nothing on 20x20 but %d B per call on 40x40", name, b/reps)
				}
				return
			}
			ratio := float64(b) / float64(a)
			t.Logf("%s: 20x20 %d B, 40x40 %d B, ratio %.2f", name, a/reps, b/reps, ratio)
			if ratio > 1.5 {
				t.Fatalf("%s allocates %.2fx more on 40x40 than on 20x20, want at most 1.5x", name, ratio)
			}
		})
	}
}
