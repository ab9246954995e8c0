package render

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/paths"
)

func TestDOTContainsNodesAndEdges(t *testing.T) {
	g := dataset.Figure1()
	out := DOT(g)
	if !strings.HasPrefix(out, "digraph G {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Fatalf("not a digraph:\n%s", out)
	}
	for _, want := range []string{`"N1"`, `"C1" [shape=box]`, `label="cinema"`, `"N4" -> "C1"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
}

func TestNeighborhoodDOTHighlightsZoom(t *testing.T) {
	g := dataset.Figure1()
	n2 := g.NeighborhoodAround("N2", 2, graph.NeighborhoodOptions{Directed: true})
	n3 := g.NeighborhoodAround("N2", 3, graph.NeighborhoodOptions{Directed: true})
	out := NeighborhoodDOT(n3, n2)
	if !strings.Contains(out, "fillcolor=gold") {
		t.Fatal("centre node should be highlighted")
	}
	if !strings.Contains(out, "color=blue") {
		t.Fatal("newly revealed nodes/edges should be blue")
	}
	// Without a previous fragment nothing is blue.
	out = NeighborhoodDOT(n2, nil)
	if strings.Contains(out, "color=blue") {
		t.Fatal("no blue highlighting expected without a previous fragment")
	}
	if !strings.Contains(out, `label="..."`) {
		t.Fatal("frontier markers expected")
	}
}

func TestNeighborhoodASCII(t *testing.T) {
	g := dataset.Figure1()
	n2 := g.NeighborhoodAround("N2", 2, graph.NeighborhoodOptions{Directed: true})
	n3 := g.NeighborhoodAround("N2", 3, graph.NeighborhoodOptions{Directed: true})
	out := NeighborhoodASCII(n3, n2)
	if !strings.Contains(out, "neighborhood of N2 (radius 3") {
		t.Fatalf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "* N2 (d=0)") {
		t.Fatalf("centre marker missing:\n%s", out)
	}
	if !strings.Contains(out, "+ C1") && !strings.Contains(out, "+ C2") {
		t.Fatalf("newly revealed cinema should be marked with '+':\n%s", out)
	}
	small := NeighborhoodASCII(n2, nil)
	if !strings.Contains(small, "...") {
		t.Fatalf("frontier '...' marker missing:\n%s", small)
	}
}

func TestPrefixTreeAndPathList(t *testing.T) {
	g := dataset.Figure1()
	words := paths.UncoveredWords(g, "N2", []graph.NodeID{"N5"}, 3)
	out := PrefixTree(words, []string{"bus", "bus", "cinema"})
	if !strings.Contains(out, "◀ candidate") {
		t.Fatalf("candidate highlight missing:\n%s", out)
	}
}
