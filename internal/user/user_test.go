package user

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/rpq"
)

func TestSimulatedLabelsMatchGoal(t *testing.T) {
	g := dataset.Figure1()
	u := NewSimulated(g, dataset.Figure1GoalQuery())
	goal := rpq.New(g, dataset.Figure1GoalQuery())
	// With a large neighbourhood (whole graph) the user decides instantly.
	for _, node := range g.Nodes() {
		full := g.NeighborhoodAround(node, 10, graph.NeighborhoodOptions{Directed: true})
		d := u.LabelNode(node, full, true)
		want := Negative
		if goal.Selects(node) {
			want = Positive
		}
		if d != want {
			t.Errorf("label of %s = %v, want %v", node, d, want)
		}
	}
}

func TestSimulatedZoomsWhenWitnessNotVisible(t *testing.T) {
	g := dataset.Figure1()
	u := NewSimulated(g, dataset.Figure1GoalQuery())
	// N2 needs 3 edges to reach a cinema; at radius 2 the witness is not
	// visible so the user should zoom (as in Figure 3(a) -> 3(b)).
	small := g.NeighborhoodAround("N2", 2, graph.NeighborhoodOptions{Directed: true})
	if d := u.LabelNode("N2", small, true); d != Zoom {
		t.Fatalf("user should zoom on a radius-2 fragment of N2, got %v", d)
	}
	big := g.NeighborhoodAround("N2", 3, graph.NeighborhoodOptions{Directed: true})
	if d := u.LabelNode("N2", big, true); d != Positive {
		t.Fatalf("user should label N2 positive at radius 3, got %v", d)
	}
}

func TestSimulatedZoomPatienceBounded(t *testing.T) {
	g := dataset.Figure1()
	u := NewSimulated(g, dataset.Figure1GoalQuery())
	u.MaxZoom = 1
	small := g.NeighborhoodAround("N2", 1, graph.NeighborhoodOptions{Directed: true})
	first := u.LabelNode("N2", small, true)
	if first != Zoom {
		t.Fatalf("first answer should be zoom, got %v", first)
	}
	// Patience exhausted: the user now decides positive (she knows her own
	// intent) even though the witness is still invisible.
	second := u.LabelNode("N2", small, true)
	if second != Positive {
		t.Fatalf("after exhausting patience the user should answer, got %v", second)
	}
}

func TestSimulatedCannotZoomAnswersImmediately(t *testing.T) {
	g := dataset.Figure1()
	u := NewSimulated(g, dataset.Figure1GoalQuery())
	small := g.NeighborhoodAround("N2", 1, graph.NeighborhoodOptions{Directed: true})
	if d := u.LabelNode("N2", small, false); d == Zoom {
		t.Fatal("user must not zoom when zooming is not allowed")
	}
	neg := g.NeighborhoodAround("N5", 1, graph.NeighborhoodOptions{Directed: true})
	if d := u.LabelNode("N5", neg, false); d != Negative {
		t.Fatalf("N5 must be labelled negative, got %v", d)
	}
}

func TestSimulatedValidatePath(t *testing.T) {
	g := dataset.Figure1()
	u := NewSimulated(g, dataset.Figure1GoalQuery())
	words := [][]string{
		{"bus"},
		{"bus", "tram", "cinema"},
		{"tram"},
	}
	// Candidate does not match the goal: the user corrects it to the word
	// that does.
	chosen := u.ValidatePath("N2", words, []string{"bus"})
	if regexKey(chosen) != "bus.tram.cinema" {
		t.Fatalf("user should correct to bus.tram.cinema, got %v", chosen)
	}
	// Candidate matches the goal: accept it.
	chosen = u.ValidatePath("N2", words, []string{"bus", "tram", "cinema"})
	if regexKey(chosen) != "bus.tram.cinema" {
		t.Fatalf("user should accept the matching candidate, got %v", chosen)
	}
	// No word matches: fall back to the candidate.
	chosen = u.ValidatePath("N2", [][]string{{"bus"}}, []string{"bus"})
	if regexKey(chosen) != "bus" {
		t.Fatalf("fallback to candidate expected, got %v", chosen)
	}
}

func regexKey(w []string) string {
	out := ""
	for i, x := range w {
		if i > 0 {
			out += "."
		}
		out += x
	}
	return out
}

func TestSimulatedSatisfied(t *testing.T) {
	g := dataset.Figure1()
	u := NewSimulated(g, dataset.Figure1GoalQuery())
	if u.Satisfied(nil) {
		t.Fatal("nil query cannot satisfy")
	}
	if u.Satisfied(regex.MustParse("bus")) {
		t.Fatal("bus selects a different node set than the goal")
	}
	if !u.Satisfied(regex.MustParse("(bus+tram)*.cinema")) {
		t.Fatal("an equivalent query must satisfy the user")
	}
	// A syntactically different query with the same answer set on this
	// instance also satisfies the user (instance-level halt condition).
	if !u.Satisfied(regex.MustParse("(bus+tram)?.(bus+tram)?.(bus+tram)?.cinema")) {
		t.Fatal("instance-equivalent query must satisfy the user")
	}
	if u.Goal() == nil {
		t.Fatal("goal accessor")
	}
}

func TestNoisyUserFlipsSomeLabels(t *testing.T) {
	g := dataset.Figure1()
	inner := NewSimulated(g, dataset.Figure1GoalQuery())
	noisy := NewNoisy(inner, 1.0, 42) // always flip
	full := g.NeighborhoodAround("N5", 10, graph.NeighborhoodOptions{Directed: true})
	if d := noisy.LabelNode("N5", full, false); d != Positive {
		t.Fatalf("error rate 1.0 must flip negative to positive, got %v", d)
	}
	clean := NewNoisy(inner, 0.0, 42)
	if d := clean.LabelNode("N5", full, false); d != Negative {
		t.Fatalf("error rate 0 must not flip, got %v", d)
	}
	// Delegation of the other methods.
	if clean.Satisfied(regex.MustParse("bus")) {
		t.Fatal("delegated Satisfied wrong")
	}
	if got := clean.ValidatePath("N2", [][]string{{"cinema"}}, nil); regexKey(got) != "cinema" {
		t.Fatalf("delegated ValidatePath wrong: %v", got)
	}
}

func TestRandomChoiceCoversAllNodes(t *testing.T) {
	g := dataset.Figure1()
	c := NewRandomChoice(5)
	labeled := make(map[graph.NodeID]bool)
	for i := 0; i < g.NumNodes(); i++ {
		n, ok := c.NextNode(g, labeled)
		if !ok {
			t.Fatalf("choice exhausted after %d nodes", i)
		}
		if labeled[n] {
			t.Fatalf("node %s proposed twice", n)
		}
		labeled[n] = true
	}
	if _, ok := c.NextNode(g, labeled); ok {
		t.Fatal("all nodes labelled, choice should stop")
	}
}

func TestWitnessWord(t *testing.T) {
	g := dataset.Figure1()
	goal := dataset.Figure1GoalQuery()
	w, ok := WitnessWord(g, goal, "N2", 4)
	if !ok || !goal.Matches(w) {
		t.Fatalf("witness word for N2 = %v ok=%v", w, ok)
	}
	if _, ok := WitnessWord(g, goal, "N5", 4); ok {
		t.Fatal("N5 has no witness word")
	}
	if _, ok := WitnessWord(g, goal, "N2", 1); ok {
		t.Fatal("N2 has no witness of length 1")
	}
}

func TestDecisionString(t *testing.T) {
	if Positive.String() != "positive" || Negative.String() != "negative" || Zoom.String() != "zoom" {
		t.Fatal("Decision.String wrong")
	}
}
