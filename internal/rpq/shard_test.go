package rpq

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/regex"
)

// engineBitsEqual reports whether two engines over the same graph computed
// byte-identical reachability bitsets and answer sets.
func engineBitsEqual(t *testing.T, seq, par *Engine) {
	t.Helper()
	if !reflect.DeepEqual(seq.accReach, par.accReach) {
		t.Fatal("sharded accReach bitset differs from sequential")
	}
	if !reflect.DeepEqual(seq.selectedIDs, par.selectedIDs) {
		t.Fatalf("sharded answer set %v differs from sequential %v", par.selectedIDs, seq.selectedIDs)
	}
}

func TestShardedMatchesSequentialFigure1(t *testing.T) {
	g := dataset.Figure1()
	for _, qs := range []string{"(tram+bus)*.cinema", "bus", "restaurant", "(bus.tram)*", "cinema+restaurant"} {
		q := regex.MustParse(qs)
		engineBitsEqual(t, New(g, q), NewWith(g, q, Options{Workers: 4}))
	}
}

func TestShardedMatchesSequentialLargeTransport(t *testing.T) {
	// 40x40 yields ~3500 nodes and >10k product configurations with the
	// 3-state goal DFA, clearing parallelMinConfigs so the worker pool
	// really runs.
	g := dataset.Transport(dataset.TransportOptions{Rows: 40, Cols: 40, Seed: 7, FacilityRate: 0.3})
	queries := []string{
		"(tram+bus)*.cinema",
		"(bus+tram)*.restaurant",
		"bus.bus",
		"(tram)*",
	}
	for _, workers := range []int{2, 3, 8} {
		for _, qs := range queries {
			q := regex.MustParse(qs)
			seq := New(g, q)
			if got := g.NumNodes() * seq.numStates; qs == "(tram+bus)*.cinema" && got < parallelMinConfigs {
				t.Fatalf("test graph too small to exercise the worker pool: %d configs for %s", got, qs)
			}
			par := NewWith(g, q, Options{Workers: workers})
			engineBitsEqual(t, seq, par)
			// The derived read APIs must agree too.
			if !seq.SameSelection(par) {
				t.Fatal("SameSelection must hold between sequential and sharded engines")
			}
			for _, n := range seq.Selected() {
				if !par.Selects(n) {
					t.Fatalf("sharded engine misses %s for %s with %d workers", n, qs, workers)
				}
			}
		}
	}
}

func TestShardedMatchesSequentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []string{"a", "b", "c"}
	for trial := 0; trial < 40; trial++ {
		g := graph.New()
		n := 20 + rng.Intn(60)
		for i := 0; i < n; i++ {
			g.MustAddNode(graph.NodeID(fmt.Sprintf("v%03d", i)))
		}
		edges := n * (1 + rng.Intn(3))
		for i := 0; i < edges; i++ {
			from := graph.NodeID(fmt.Sprintf("v%03d", rng.Intn(n)))
			to := graph.NodeID(fmt.Sprintf("v%03d", rng.Intn(n)))
			g.MustAddEdge(from, graph.Label(alphabet[rng.Intn(len(alphabet))]), to)
		}
		q := regex.MustParse(randomEqQuery(rng, 3))
		seq := New(g, q)
		par := NewWith(g, q, Options{Workers: 1 + rng.Intn(6)})
		engineBitsEqual(t, seq, par)
	}
}

func TestNewWithDefaultWorkers(t *testing.T) {
	g := dataset.Figure1()
	q := regex.MustParse("(tram+bus)*.cinema")
	e := NewWith(g, q, Options{})
	engineBitsEqual(t, New(g, q), e)
}
