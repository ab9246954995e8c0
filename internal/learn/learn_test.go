package learn

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/rpq"
)

// figure1 builds the reconstructed Figure 1 graph (see internal/dataset for
// the canonical constructor; duplicated here to keep the package test
// self-contained and dependency-light).
func figure1(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New()
	edges := []struct{ from, label, to string }{
		{"N1", "tram", "N4"},
		{"N1", "bus", "N4"},
		{"N2", "bus", "N1"},
		{"N2", "bus", "N3"},
		{"N2", "tram", "N5"},
		{"N3", "bus", "N5"},
		{"N4", "cinema", "C1"},
		{"N4", "bus", "N5"},
		{"N5", "restaurant", "R1"},
		{"N6", "cinema", "C2"},
		{"N6", "restaurant", "R2"},
		{"N6", "bus", "N5"},
		{"N6", "tram", "N3"},
	}
	for _, e := range edges {
		g.MustAddEdge(graph.NodeID(e.from), graph.Label(e.label), graph.NodeID(e.to))
	}
	return g
}

func TestLearnFigure1WithValidatedPaths(t *testing.T) {
	// The paper's running example: positives N2 and N6 with validated paths
	// bus.tram.cinema and cinema, negative N5. The learner must generalise
	// to a query equivalent to (tram+bus)*.cinema.
	g := figure1(t)
	sample := NewSample()
	sample.AddPositive("N2", []string{"bus", "tram", "cinema"})
	sample.AddPositive("N6", []string{"cinema"})
	sample.AddNegative("N5")

	res, err := Learn(g, sample, Options{})
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	goal := regex.MustParse("(tram+bus)*.cinema")
	if !automaton.EquivalentNFA(automaton.FromRegex(res.Query), automaton.FromRegex(goal)) {
		t.Fatalf("learned %q, want language of %q", res.Query.String(), goal.String())
	}
	if !Consistent(g, res.Query, sample) {
		t.Fatal("learned query must be consistent with the sample")
	}
	if res.Merges == 0 {
		t.Fatal("generalisation should perform at least one merge")
	}
	// The learned query must select exactly the paper's answer set among
	// the neighbourhood nodes.
	e := rpq.New(g, res.Query)
	for _, want := range []graph.NodeID{"N1", "N2", "N4", "N6"} {
		if !e.Selects(want) {
			t.Errorf("learned query should select %s", want)
		}
	}
	for _, not := range []graph.NodeID{"N3", "N5", "C1", "R1"} {
		if e.Selects(not) {
			t.Errorf("learned query should not select %s", not)
		}
	}
}

func TestLearnFigure1WithoutPathValidation(t *testing.T) {
	// Without validated paths the learner picks the shortest uncovered
	// word, which for both N2 and N6 is "bus". The learned query is then
	// consistent with the examples but is NOT the goal query — exactly the
	// phenomenon the paper's second demonstration scenario illustrates.
	g := figure1(t)
	sample := NewSample()
	sample.AddPositive("N2", nil)
	sample.AddPositive("N6", nil)
	sample.AddNegative("N5")

	res, err := Learn(g, sample, Options{})
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	if !Consistent(g, res.Query, sample) {
		t.Fatal("learned query must be consistent")
	}
	goal := regex.MustParse("(tram+bus)*.cinema")
	if automaton.EquivalentNFA(automaton.FromRegex(res.Query), automaton.FromRegex(goal)) {
		t.Fatal("without path validation the goal query should generally not be recovered on this sample")
	}
	// The witness chosen for N2 must be one of its uncovered words.
	if len(res.Witnesses["N2"]) == 0 {
		t.Fatal("witness for N2 missing")
	}
}

func TestLearnNoPositives(t *testing.T) {
	g := figure1(t)
	sample := NewSample()
	sample.AddNegative("N5")
	res, err := Learn(g, sample, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Query.Kind != regex.KindEmpty {
		t.Fatalf("query with no positives should be empty, got %q", res.Query)
	}
	if !Consistent(g, res.Query, sample) {
		t.Fatal("empty query is consistent with negatives only")
	}
}

func TestLearnInconsistentPositiveCovered(t *testing.T) {
	// Positive and negative with identical outgoing structure: every word
	// of the positive is covered, so no consistent query exists.
	g := graph.New()
	g.MustAddEdge("p", "x", "sink1")
	g.MustAddEdge("n", "x", "sink2")
	sample := NewSample()
	sample.AddPositive("p", nil)
	sample.AddNegative("n")
	_, err := Learn(g, sample, Options{})
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("expected ErrInconsistent, got %v", err)
	}
}

func TestLearnInvalidValidatedPath(t *testing.T) {
	g := figure1(t)
	sample := NewSample()
	sample.AddPositive("N2", []string{"metro"})
	if _, err := Learn(g, sample, Options{}); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("validated path that is not a path of the node must be rejected, got %v", err)
	}
	sample2 := NewSample()
	sample2.AddPositive("N6", []string{"restaurant"})
	sample2.AddNegative("N5") // N5 has word restaurant -> covered
	if _, err := Learn(g, sample2, Options{}); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("covered validated path must be rejected, got %v", err)
	}
}

func TestLearnSinglePositiveNoNegatives(t *testing.T) {
	g := figure1(t)
	sample := NewSample()
	sample.AddPositive("N4", []string{"cinema"})
	res, err := Learn(g, sample, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !Consistent(g, res.Query, sample) {
		t.Fatal("query must select N4")
	}
	// With no negatives every merge is allowed, so the query may be very
	// general, but it must still be non-empty.
	if res.Query.IsEmptyLanguage() {
		t.Fatal("query should not be the empty language")
	}
}

func TestLearnDisableGeneralization(t *testing.T) {
	g := figure1(t)
	sample := NewSample()
	sample.AddPositive("N2", []string{"bus", "tram", "cinema"})
	sample.AddPositive("N6", []string{"cinema"})
	sample.AddNegative("N5")
	res, err := Learn(g, sample, Options{DisableGeneralization: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Merges != 0 {
		t.Fatal("no merges expected")
	}
	// The query is the exact disjunction of the witnesses.
	if !res.Query.Matches([]string{"cinema"}) || !res.Query.Matches([]string{"bus", "tram", "cinema"}) {
		t.Fatalf("query %q must match the witness words", res.Query)
	}
	if res.Query.Matches([]string{"tram", "cinema"}) {
		t.Fatalf("ungeneralised query %q should not match unseen words", res.Query)
	}
	if !Consistent(g, res.Query, sample) {
		t.Fatal("disjunction of uncovered witnesses is consistent")
	}
}

func TestLearnWitnessOrders(t *testing.T) {
	g := figure1(t)
	sample := NewSample()
	sample.AddPositive("N6", nil)
	sample.AddNegative("N5")
	shortest, err := Learn(g, sample, Options{WitnessOrder: WitnessShortest})
	if err != nil {
		t.Fatal(err)
	}
	longest, err := Learn(g, sample, Options{WitnessOrder: WitnessLongest, MaxPathLength: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(shortest.Witnesses["N6"]) > len(longest.Witnesses["N6"]) {
		t.Fatalf("longest witness (%v) shorter than shortest witness (%v)",
			longest.Witnesses["N6"], shortest.Witnesses["N6"])
	}
	if !Consistent(g, shortest.Query, sample) || !Consistent(g, longest.Query, sample) {
		t.Fatal("both orders must produce consistent queries")
	}
}

func TestLearnMergeOrders(t *testing.T) {
	g := figure1(t)
	sample := NewSample()
	sample.AddPositive("N2", []string{"bus", "tram", "cinema"})
	sample.AddPositive("N6", []string{"cinema"})
	sample.AddNegative("N5")
	for _, order := range []MergeOrder{MergeBFS, MergeEvidence} {
		res, err := Learn(g, sample, Options{MergeOrder: order})
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if !Consistent(g, res.Query, sample) {
			t.Fatalf("order %v: inconsistent query %q", order, res.Query)
		}
	}
}

// isPositive reports whether the sample labels node positive.
func isPositive(s *Sample, node graph.NodeID) bool {
	_, ok := s.Positives[node]
	return ok
}

func TestSampleHelpers(t *testing.T) {
	s := NewSample()
	s.AddPositive("a", []string{"x"})
	s.AddNegative("b")
	s.AddNegative("b") // duplicate ignored
	if !isPositive(s, "a") || isPositive(s, "b") {
		t.Fatal("positives wrong")
	}
	if len(s.Negatives) != 1 || s.Negatives[0] != "b" {
		t.Fatalf("negatives = %v, want [b]", s.Negatives)
	}
	if s.Size() != 2 {
		t.Fatalf("Size = %d", s.Size())
	}
	var zero Sample
	zero.AddPositive("x", nil)
	if !isPositive(&zero, "x") {
		t.Fatal("zero-value sample should accept positives")
	}
}

func TestLearnedQueryNeverNullableWithNegatives(t *testing.T) {
	// A nullable query selects every node, so with at least one negative
	// example the learned query must never be nullable.
	g := figure1(t)
	sample := NewSample()
	sample.AddPositive("N4", []string{"cinema"})
	sample.AddPositive("N1", []string{"tram", "cinema"})
	sample.AddNegative("N5")
	sample.AddNegative("R1")
	res, err := Learn(g, sample, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Query.Nullable() {
		t.Fatalf("learned query %q is nullable despite negatives", res.Query)
	}
	if !Consistent(g, res.Query, sample) {
		t.Fatal("inconsistent")
	}
}

// --- property tests -------------------------------------------------------

func randomGraph(r *rand.Rand, nodes, edges int) *graph.Graph {
	g := graph.New()
	labels := []graph.Label{"a", "b", "c"}
	ids := make([]graph.NodeID, nodes)
	for i := range ids {
		ids[i] = graph.NodeID(string(rune('A'+i%26)) + string(rune('0'+i/26)))
		g.MustAddNode(ids[i])
	}
	for i := 0; i < edges; i++ {
		g.MustAddEdge(ids[r.Intn(nodes)], labels[r.Intn(len(labels))], ids[r.Intn(nodes)])
	}
	return g
}

func TestPropertyLearnedQueryConsistent(t *testing.T) {
	// Whenever Learn succeeds, the learned query must be consistent with
	// the sample.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 10, 20)
		ids := g.Nodes()
		sample := NewSample()
		for i := 0; i < 2; i++ {
			sample.AddPositive(ids[r.Intn(len(ids))], nil)
		}
		for i := 0; i < 2; i++ {
			n := ids[r.Intn(len(ids))]
			if !isPositive(sample, n) {
				sample.AddNegative(n)
			}
		}
		res, err := Learn(g, sample, Options{MaxPathLength: 3})
		if err != nil {
			return errors.Is(err, ErrInconsistent)
		}
		return Consistent(g, res.Query, sample)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGeneralizationOnlyAddsWords(t *testing.T) {
	// The generalised language must contain every witness word.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 10, 20)
		ids := g.Nodes()
		sample := NewSample()
		for i := 0; i < 2; i++ {
			sample.AddPositive(ids[r.Intn(len(ids))], nil)
		}
		neg := ids[r.Intn(len(ids))]
		if !isPositive(sample, neg) {
			sample.AddNegative(neg)
		}
		res, err := Learn(g, sample, Options{MaxPathLength: 3})
		if err != nil {
			return true
		}
		for _, w := range res.Witnesses {
			if !res.Query.Matches(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
