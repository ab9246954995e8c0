package learn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/automaton"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/rpq"
	"repro/internal/user"
)

// assertSameLearn runs Learn twice — dense engine vs map-based reference —
// on the same sample and asserts byte-identical queries, witnesses and
// counters. Both must also agree on failure.
func assertSameLearn(t *testing.T, g *graph.Graph, sample *Sample, opts Options, label string) {
	t.Helper()
	opts.Reference = false
	dense, denseErr := Learn(g, sample, opts)
	opts.Reference = true
	ref, refErr := Learn(g, sample, opts)
	if (denseErr == nil) != (refErr == nil) {
		t.Fatalf("%s: dense err = %v, reference err = %v", label, denseErr, refErr)
	}
	if denseErr != nil {
		if !errors.Is(denseErr, ErrInconsistent) || !errors.Is(refErr, ErrInconsistent) {
			t.Fatalf("%s: unexpected errors: dense %v, reference %v", label, denseErr, refErr)
		}
		return
	}
	if got, want := dense.Query.String(), ref.Query.String(); got != want {
		t.Fatalf("%s: dense learned %q, reference learned %q", label, got, want)
	}
	if dense.Merges != ref.Merges || dense.CandidateMerges != ref.CandidateMerges {
		t.Fatalf("%s: counters diverge: dense merges=%d candidates=%d, reference merges=%d candidates=%d",
			label, dense.Merges, dense.CandidateMerges, ref.Merges, ref.CandidateMerges)
	}
	if !reflect.DeepEqual(dense.Witnesses, ref.Witnesses) {
		t.Fatalf("%s: witnesses diverge: dense %v, reference %v", label, dense.Witnesses, ref.Witnesses)
	}
	if dense.Automaton.String() != ref.Automaton.String() {
		t.Fatalf("%s: generalised automata diverge:\ndense:\n%s\nreference:\n%s",
			label, dense.Automaton, ref.Automaton)
	}
	if !Consistent(g, dense.Query, sample) {
		t.Fatalf("%s: dense query %q is inconsistent with the sample", label, dense.Query)
	}
}

// TestDenseReferenceEquivalenceFigure1 pins the paper's running example on
// every merge order × parallelism combination.
func TestDenseReferenceEquivalenceFigure1(t *testing.T) {
	g := figure1(t)
	sample := NewSample()
	sample.AddPositive("N2", []string{"bus", "tram", "cinema"})
	sample.AddPositive("N6", []string{"cinema"})
	sample.AddNegative("N5")
	for _, order := range []MergeOrder{MergeBFS, MergeEvidence} {
		for _, par := range []int{1, 4} {
			assertSameLearn(t, g, sample, Options{MergeOrder: order, Parallelism: par},
				fmt.Sprintf("figure1/order=%d/par=%d", order, par))
		}
	}
}

// TestDenseReferenceEquivalenceRandom drives both engines over randomized
// graphs and samples — chosen witnesses and validated words, both merge
// orders, sequential and parallel candidate checking — and requires
// byte-identical results throughout. CI runs this under -race, which also
// exercises the worker-chunk loop for unsynchronised scratch sharing.
func TestDenseReferenceEquivalenceRandom(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 15
	}
	for seed := int64(0); seed < int64(cases); seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 8+r.Intn(8), 20+r.Intn(25))
		ids := g.Nodes()
		sample := NewSample()
		for i := 0; i < 2+r.Intn(2); i++ {
			node := ids[r.Intn(len(ids))]
			var word []string
			if r.Intn(2) == 0 {
				// Half the positives carry a validated word: a random walk
				// from the node, which deepens the PTA beyond the shortest
				// uncovered witnesses.
				word = randomWalkWord(r, g, node, 1+r.Intn(4))
			}
			sample.AddPositive(node, word)
		}
		for i := 0; i < 1+r.Intn(3); i++ {
			node := ids[r.Intn(len(ids))]
			if !sample.IsPositive(node) {
				sample.AddNegative(node)
			}
		}
		for _, order := range []MergeOrder{MergeBFS, MergeEvidence} {
			for _, par := range []int{1, 4} {
				assertSameLearn(t, g, sample, Options{MaxPathLength: 3, MergeOrder: order, Parallelism: par},
					fmt.Sprintf("seed=%d/order=%d/par=%d", seed, order, par))
			}
		}
	}
}

// randomWalkWord returns the label word of a random outgoing walk of up to
// maxLen edges from the node, or nil when the node has no outgoing edge (a
// nil word makes the learner choose a witness itself).
func randomWalkWord(r *rand.Rand, g *graph.Graph, node graph.NodeID, maxLen int) []string {
	var word []string
	cur := node
	for len(word) < maxLen {
		out := g.Out(cur)
		if len(out) == 0 {
			break
		}
		e := out[r.Intn(len(out))]
		word = append(word, string(e.Label))
		cur = e.To
	}
	if len(word) == 0 {
		return nil
	}
	return word
}

// TestDenseEngineZeroNegatives checks the every-merge-accepted fast path:
// with no negative example the dense engine must still fold exactly like
// the reference.
func TestDenseEngineZeroNegatives(t *testing.T) {
	g := figure1(t)
	sample := NewSample()
	sample.AddPositive("N2", []string{"bus", "tram", "cinema"})
	sample.AddPositive("N6", []string{"cinema"})
	assertSameLearn(t, g, sample, Options{}, "zero-negatives")
}

// TestDenseEngineNegativeOutsideGraph checks that negatives not present in
// the graph are skipped identically by both engines.
func TestDenseEngineNegativeOutsideGraph(t *testing.T) {
	g := figure1(t)
	sample := NewSample()
	sample.AddPositive("N6", []string{"cinema"})
	sample.AddNegative("GHOST")
	sample.AddNegative("N5")
	assertSameLearn(t, g, sample, Options{}, "ghost-negative")
}

// MergeCheck isolates the steady-state candidate-merge check of the dense
// engine. TestMergeCheckRuns pins its allocation count at zero, which is
// what keeps the O(n²) merge fold garbage-free.
type MergeCheck struct {
	dg   *denseGeneralizer
	j, i int32
}

// NewMergeCheck prepares the dense generalization state for the sample
// exactly as Learn's step 2 does and returns a checker for a
// representative candidate (folding the last PTA state into the root). The
// first Run grows the scratch queue; subsequent Runs reuse it without
// allocating.
func NewMergeCheck(g *graph.Graph, sample *Sample, opts Options) (*MergeCheck, error) {
	if opts.MaxPathLength <= 0 {
		opts.MaxPathLength = DefaultMaxPathLength
	}
	pta, _, err := buildPTA(g, sample, opts)
	if err != nil {
		return nil, err
	}
	if int64(g.NumNodes())*int64(pta.NumStates()) > math.MaxInt32 {
		return nil, fmt.Errorf("learn: graph × PTA product exceeds the dense engine's int32 configuration space")
	}
	dg := newDenseGeneralizer(g, pta, pta.Dense(), sample.Negatives, 1)
	return &MergeCheck{dg: dg, j: int32(pta.NumStates() - 1), i: 0}, nil
}

// States returns the number of PTA states the check runs over.
func (c *MergeCheck) States() int { return c.dg.numStates }

// Run performs one negative-selection product check and reports whether
// the candidate merge would select a negative node.
func (c *MergeCheck) Run() bool {
	return c.dg.selectsNegative(c.j, c.i, c.dg.scratch[0])
}

// TestMergeCheckRuns sanity-checks the merge check: it must run, and a
// merge of the deepest PTA state into the root on the Figure 1 sample
// selects the negative (the fold rejects it).
func TestMergeCheckRuns(t *testing.T) {
	g := figure1(t)
	sample := NewSample()
	sample.AddPositive("N2", []string{"bus", "tram", "cinema"})
	sample.AddPositive("N6", []string{"cinema"})
	sample.AddNegative("N5")
	check, err := NewMergeCheck(g, sample, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if check.States() < 2 {
		t.Fatalf("PTA has %d states, want >= 2", check.States())
	}
	first := check.Run()
	for i := 0; i < 10; i++ {
		if check.Run() != first {
			t.Fatal("MergeCheck.Run is not deterministic")
		}
	}
	allocs := testing.AllocsPerRun(100, func() { check.Run() })
	if allocs != 0 {
		t.Fatalf("steady-state merge check allocates %.1f objects per run, want 0", allocs)
	}
}

// TestDenseNFAView pins the DenseNFA view against the map-based NFA API on
// an ε-carrying Thompson automaton and on a PTA.
func TestDenseNFAView(t *testing.T) {
	pta := automaton.FromWords([][]string{{"a", "b"}, {"a", "c"}, {"b"}})
	d := pta.Dense()
	if d.HasEpsilon() {
		t.Fatal("PTA must be ε-free")
	}
	if d.NumStates() != pta.NumStates() || d.Start() != pta.Start() {
		t.Fatal("state count or start diverges")
	}
	labels := pta.Labels()
	if d.NumLabels() != len(labels) {
		t.Fatalf("NumLabels = %d, want %d", d.NumLabels(), len(labels))
	}
	for s := automaton.State(0); s < automaton.State(pta.NumStates()); s++ {
		if d.IsAccepting(s) != pta.IsAccepting(s) {
			t.Fatalf("acceptance of %d diverges", s)
		}
		for li, label := range labels {
			got := d.Successors(s, li)
			want := pta.Successors(s, label)
			if len(got) != len(want) {
				t.Fatalf("successors of (%d, %s): dense %v, map %v", s, label, got, want)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("successors of (%d, %s): dense %v, map %v", s, label, got, want)
				}
			}
		}
		cl := d.Closure(s)
		if len(cl) != 1 || cl[0] != s {
			t.Fatalf("ε-free closure of %d = %v, want singleton", s, cl)
		}
	}
}

// BenchmarkLearnMergeCheck measures the steady-state candidate-merge check
// of the dense generalization engine in isolation. The merge fold runs it
// O(n²) times per Learn call; it must report 0 allocs/op.
func BenchmarkLearnMergeCheck(b *testing.B) {
	g := dataset.Transport(dataset.TransportOptions{Rows: 10, Cols: 10, Seed: 1, FacilityRate: 0.4})
	sample := NewSample()
	goal := regex.MustParse("(tram+bus)*.cinema")
	engine := rpq.New(g, goal)
	posSeen, negSeen := 0, 0
	for _, n := range g.Nodes() {
		if engine.Selects(n) && posSeen < 6 {
			if w, ok := user.WitnessWord(g, goal, n, 6); ok {
				sample.AddPositive(n, w)
				posSeen++
			}
		} else if !engine.Selects(n) && negSeen < 6 {
			sample.AddNegative(n)
			negSeen++
		}
	}
	check, err := NewMergeCheck(g, sample, Options{MaxPathLength: 6})
	if err != nil {
		b.Fatal(err)
	}
	check.Run() // warm-up grows the pooled scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		check.Run()
	}
}
