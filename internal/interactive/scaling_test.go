package interactive

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/user"
)

// scalingTransport is the transport grid the scaling cases compare at two
// sizes: 20x20 has 887 nodes and 40x40 has 3,502 (3.95x).
func scalingTransport(side int) *graph.Graph {
	g := dataset.Transport(dataset.TransportOptions{Rows: side, Cols: side, Seed: 1, FacilityRate: 0.3})
	g.Indexed() // built here, outside every measurement
	return g
}

// allocBytes returns the median, over three runs, of the bytes the
// operation allocates (the runtime.MemStats.TotalAlloc delta). prepare
// runs outside the measurement and returns the operation. Allocation
// counts are the same on every host, so their ratio at two graph sizes
// states how a layer scales without timing anything.
func allocBytes(prepare func() func()) uint64 {
	var runs []uint64
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		op := prepare()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		op()
		runtime.ReadMemStats(&ms)
		runs = append(runs, ms.TotalAlloc-before)
	}
	slices.Sort(runs)
	return runs[1]
}

// TestTurnScales compares one Machine step on transport 20x20 and 40x40,
// for each strategy that ranks nodes by their uncovered count. The first
// proposal counts every node, so it may grow with the graph, but no faster
// than the graph (the ratio bound is 6 for 3.95x the nodes). Re-proposing
// after a "not satisfied" reply finds the negatives unchanged, so the
// counts come from the memo and must not grow with the graph at all.
// Random is left out: its re-proposal measures the neighbourhood of
// whichever node the seeded draw picks, not how a layer scales.
func TestTurnScales(t *testing.T) {
	small, large := scalingTransport(20), scalingTransport(40)
	for _, strat := range []string{"informative", "hybrid", "disagreement"} {
		reproposeBound := 1.5
		if strat == "disagreement" {
			// Disagreement evaluates the new hypothesis over the whole
			// graph (its first t.Cache.Get) to see which open nodes it
			// selects: a whole-graph step by definition, held to the
			// first proposal's bound.
			reproposeBound = 6
		}
		newMachine := func(g *graph.Graph) *Machine {
			s, err := StrategyByName(strat, 1)
			if err != nil {
				t.Fatal(err)
			}
			return NewMachine(g, Options{Strategy: s})
		}
		cases := []struct {
			name  string
			bound float64
			// prepare returns the step to measure on g.
			prepare func(g *graph.Graph) func()
		}{
			{"first-propose", 6, func(g *graph.Graph) func() {
				return func() { newMachine(g) }
			}},
			{"repropose-same-negatives", reproposeBound, func(g *graph.Graph) func() {
				m := newMachine(g)
				if err := m.Answer(Answer{Decision: user.Positive}); err != nil {
					t.Fatal(err)
				}
				if q, ok := m.Next(); !ok || q.Kind != AskSatisfied {
					t.Fatalf("after a positive label: question %+v (pending %t), want a satisfied question", q, ok)
				}
				return func() {
					if err := m.Answer(Answer{Satisfied: false}); err != nil {
						t.Fatal(err)
					}
				}
			}},
		}
		for _, c := range cases {
			a := allocBytes(func() func() { return c.prepare(small) })
			b := allocBytes(func() func() { return c.prepare(large) })
			ratio := float64(b) / float64(a)
			t.Logf("%s/%s: 20x20 %d B, 40x40 %d B, ratio %.2f", strat, c.name, a, b, ratio)
			if ratio > c.bound {
				t.Errorf("%s/%s allocates %.2fx more on 40x40 than on 20x20, want at most %.1fx", strat, c.name, ratio, c.bound)
			}
		}
	}
}
