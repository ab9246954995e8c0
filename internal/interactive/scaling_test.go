package interactive

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/learn"
	"repro/internal/paths"
	"repro/internal/regex"
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
// proposal on a graph counts every node's words, so it may grow with the
// graph, but no faster than the graph (the ratio bound is 6 for 3.95x the
// nodes); each of its runs gets a fresh graph, so it measures that count
// and not the copy later sessions take. A second session on the graph
// copies the counts, so it too grows with the graph, within the same
// bound. Re-proposing after a "not satisfied" reply finds the negatives
// unchanged, so the counts come from the memo and must not grow with the
// graph at all. Random is left out: its re-proposal measures the
// neighbourhood of whichever node the seeded draw picks, not how a layer
// scales.
func TestTurnScales(t *testing.T) {
	warm := map[int]*graph.Graph{20: scalingTransport(20), 40: scalingTransport(40)}
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
			// prepare returns the step to measure on the side x side grid.
			prepare func(side int) func()
		}{
			{"first-propose", 6, func(side int) func() {
				g := scalingTransport(side)
				return func() { newMachine(g) }
			}},
			{"second-session", 6, func(side int) func() {
				g := warm[side]
				newMachine(g)
				return func() { newMachine(g) }
			}},
			{"repropose-same-negatives", reproposeBound, func(side int) func() {
				m := newMachine(warm[side])
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
			a := allocBytes(func() func() { return c.prepare(20) })
			b := allocBytes(func() func() { return c.prepare(40) })
			ratio := float64(b) / float64(a)
			t.Logf("%s/%s: 20x20 %d B, 40x40 %d B, ratio %.2f", strat, c.name, a, b, ratio)
			if ratio > c.bound {
				t.Errorf("%s/%s allocates %.2fx more on 40x40 than on 20x20, want at most %.1fx", strat, c.name, ratio, c.bound)
			}
		}
	}
}

// TestSecondSessionCopiesWordCounts is the check that the first question
// is a fact about the graph: on a fresh transport 40x40 the first
// NewMachine counts every node's words, and a second one on the same graph
// copies those counts, so it allocates at most a tenth of the bytes.
func TestSecondSessionCopiesWordCounts(t *testing.T) {
	g := scalingTransport(40)
	measure := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		NewMachine(g, Options{})
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	first, second := measure(), measure()
	t.Logf("NewMachine on transport 40x40: first %d B, second %d B (%.3f)", first, second, float64(second)/float64(first))
	if second*10 > first {
		t.Errorf("the second NewMachine allocates %d B, more than a tenth of the first's %d B", second, first)
	}
}

// TestRandomSessionCountsNoWords checks that only a strategy that reads
// counts pays for the word-count vector: on a fresh transport 40x40 a
// random NewMachine and its first Next allocate at most a tenth of the
// bytes an informative first session allocates on another fresh 40x40.
func TestRandomSessionCountsNoWords(t *testing.T) {
	measure := func(strategy Strategy) uint64 {
		g := scalingTransport(40)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		m := NewMachine(g, Options{Strategy: strategy})
		if _, ok := m.Next(); !ok {
			t.Fatalf("%s: the first session asks nothing", strategy.Name())
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	random, informative := measure(NewRandomStrategy(1)), measure(&InformativeStrategy{})
	t.Logf("first session on transport 40x40: random %d B, informative %d B (%.3f)", random, informative, float64(random)/float64(informative))
	if random*10 > informative {
		t.Errorf("a random first session allocates %d B, more than a tenth of an informative one's %d B", random, informative)
	}
}

// TestConcurrentFirstSessions starts 8 sessions at once on a fresh graph.
// They must ask the same first question, and the word counts behind it
// must be one vector, built once, which each session copies rather than
// aliases.
func TestConcurrentFirstSessions(t *testing.T) {
	g := scalingTransport(20)
	k := learn.DefaultMaxPathLength
	machines := make([]*Machine, 8)
	shared := make([][]int32, len(machines))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range machines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			machines[i] = NewMachine(g, Options{})
			shared[i] = paths.WordCounts(g, k)
		}()
	}
	close(start)
	wg.Wait()
	q0, ok := machines[0].Next()
	if !ok {
		t.Fatal("the first session asks nothing")
	}
	for i, m := range machines {
		if q, ok := m.Next(); !ok || !reflect.DeepEqual(q, q0) {
			t.Fatalf("session %d asks %+v, session 0 %+v", i, q, q0)
		}
		if &shared[i][0] != &shared[0][0] {
			t.Fatalf("session %d read another word-count vector: built more than once", i)
		}
		if &m.counts[0] == &shared[0][0] || !slices.Equal(m.counts, shared[0]) {
			t.Fatalf("session %d's count memo must be a copy of the shared vector", i)
		}
	}
}

// TestLearnCostFollowsDistinctWords runs an informative, path-validating
// session on transport 40x40 for (tram+bus)*.cinema, then compares the
// allocations of learn.Learn on its final sample with those on the same
// sample cut to the positives the user labelled. Label propagation makes
// most positives implied ones that carry copies of a few validated words;
// step 1 checks each distinct word once, so they must not add allocations
// per positive (bound 1.5x).
func TestLearnCostFollowsDistinctWords(t *testing.T) {
	g := scalingTransport(40)
	goal := regex.MustParse("(tram+bus)*.cinema")
	tr, err := Run(g, user.NewSimulated(g, goal), Options{PathValidation: true})
	if err != nil {
		t.Fatal(err)
	}
	full := tr.Sample
	labelled := &learn.Sample{Positives: map[graph.NodeID][]string{}, Negatives: full.Negatives}
	for _, in := range tr.Interactions {
		if in.Decision == user.Positive {
			labelled.Positives[in.Node] = full.Positives[in.Node]
		}
	}
	if len(full.Positives) < 10*len(labelled.Positives) {
		t.Fatalf("the session implied %d positives from %d labelled ones; the check needs propagation to dominate",
			len(full.Positives)-len(labelled.Positives), len(labelled.Positives))
	}
	allocs := func(s *learn.Sample) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := learn.Learn(g, s, learn.Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(full), allocs(labelled)
	ratio := a / b
	t.Logf("Learn on %d positives: %.0f allocs; on the %d labelled ones: %.0f allocs; ratio %.2f",
		len(full.Positives), a, len(labelled.Positives), b, ratio)
	if ratio > 1.5 {
		t.Errorf("Learn allocates %.2fx more with the implied positives than without, want at most 1.5x", ratio)
	}
}
