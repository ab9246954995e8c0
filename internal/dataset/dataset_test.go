package dataset

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/rpq"
)

func TestFigure1MatchesPaperStatements(t *testing.T) {
	g := Figure1()
	if g.NumNodes() != 10 {
		t.Fatalf("Figure 1 has 10 nodes (N1-N6, C1, C2, R1, R2), got %d", g.NumNodes())
	}
	q := Figure1GoalQuery()
	selected := rpq.Evaluate(g, q)
	want := []graph.NodeID{"N1", "N2", "N4", "N6"}
	if !reflect.DeepEqual(selected, want) {
		t.Fatalf("goal query selects %v, paper says %v", selected, want)
	}
	// Witness paths quoted in the paper.
	e := rpq.New(g, q)
	for node, maxLen := range map[graph.NodeID]int{"N1": 2, "N2": 3, "N4": 1, "N6": 1} {
		w, ok := e.Witness(node)
		if !ok {
			t.Fatalf("no witness for %s", node)
		}
		if len(w) > maxLen {
			t.Errorf("witness for %s longer than the paper's (%d > %d)", node, len(w), maxLen)
		}
	}
	// Section 3: query "bus" selects N2 and N6 but not N5.
	bus := rpq.New(g, regex.MustParse("bus"))
	if !bus.Selects("N2") || !bus.Selects("N6") || bus.Selects("N5") {
		t.Fatal("bus query selection contradicts the paper")
	}
	// Figure 3(c): N2 has the path bus.bus.cinema.
	if !hasWord(g, "N2", []string{"bus", "bus", "cinema"}) {
		t.Fatal("N2 should have the path bus.bus.cinema")
	}
	// Kinds are attached.
	if v, ok := g.Attr("C1", "kind"); !ok || v != "cinema" {
		t.Fatal("C1 kind attribute missing")
	}
	// Examples are as stated.
	pos, neg := Figure1Examples()
	if len(pos) != 2 || len(neg) != 1 || neg[0] != "N5" {
		t.Fatalf("examples wrong: %v %v", pos, neg)
	}
}

func hasWord(g *graph.Graph, start graph.NodeID, word []string) bool {
	current := map[graph.NodeID]bool{start: true}
	for _, label := range word {
		next := make(map[graph.NodeID]bool)
		for n := range current {
			for _, e := range g.Out(n) {
				if string(e.Label) == label {
					next[e.To] = true
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		current = next
	}
	return true
}

func TestTransportGenerator(t *testing.T) {
	g := Transport(TransportOptions{Rows: 5, Cols: 5, Seed: 7})
	if g.NumNodes() < 25 {
		t.Fatalf("expected at least 25 neighbourhood nodes, got %d", g.NumNodes())
	}
	if g.NumEdges() == 0 {
		t.Fatal("transport graph should have edges")
	}
	labels := g.Alphabet()
	hasTram, hasBus := false, false
	for _, l := range labels {
		if l == "tram" {
			hasTram = true
		}
		if l == "bus" {
			hasBus = true
		}
	}
	if !hasTram || !hasBus {
		t.Fatalf("transport graph must use tram and bus labels, got %v", labels)
	}
	// Determinism: same seed, same graph.
	g2 := Transport(TransportOptions{Rows: 5, Cols: 5, Seed: 7})
	if g.Text() != g2.Text() {
		t.Fatal("same seed must produce the same graph")
	}
	g3 := Transport(TransportOptions{Rows: 5, Cols: 5, Seed: 8})
	if g.Text() == g3.Text() {
		t.Fatal("different seeds should produce different graphs")
	}
}

func TestTransportDefaults(t *testing.T) {
	g := Transport(TransportOptions{})
	if g.NumNodes() < 16 {
		t.Fatalf("default 4x4 grid expected, got %d nodes", g.NumNodes())
	}
}

func TestRandomGenerator(t *testing.T) {
	g := Random(RandomOptions{Nodes: 200, AvgDegree: 4, Seed: 3})
	if g.NumNodes() != 200 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Average degree approached (duplicates are dropped, so <=).
	if g.NumEdges() == 0 || g.NumEdges() > 800 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if g.Text() != Random(RandomOptions{Nodes: 200, AvgDegree: 4, Seed: 3}).Text() {
		t.Fatal("same seed must produce the same graph")
	}
	if got := Random(RandomOptions{}).NumNodes(); got != 100 {
		t.Fatalf("default nodes = %d", got)
	}
}

func TestScaleFreeGenerator(t *testing.T) {
	g := ScaleFree(ScaleFreeOptions{Nodes: 300, EdgesPerNode: 2, Seed: 11})
	if g.NumNodes() != 300 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	stats := g.ComputeStats()
	// Preferential attachment must produce hubs: the max in-degree should
	// be well above the average degree.
	if stats.MaxInDegree < 5 {
		t.Fatalf("expected hub nodes, max in-degree = %d", stats.MaxInDegree)
	}
	if g.Text() != ScaleFree(ScaleFreeOptions{Nodes: 300, EdgesPerNode: 2, Seed: 11}).Text() {
		t.Fatal("same seed must produce the same graph")
	}
}
