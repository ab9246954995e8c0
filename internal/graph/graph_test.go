package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// Equal and Validate are the oracles of the round-trip and property
// tests; production code never compares or audits whole graphs.

// Equal reports whether two graphs have the same nodes and edges
// (attributes are ignored).
func (g *Graph) Equal(other *Graph) bool {
	if g.NumNodes() != other.NumNodes() || g.NumEdges() != other.NumEdges() {
		return false
	}
	for id := range g.nodes {
		if !other.HasNode(id) {
			return false
		}
	}
	ge, oe := g.Edges(), other.Edges()
	for i := range ge {
		if ge[i] != oe[i] {
			return false
		}
	}
	return true
}

// Validate checks internal consistency (every edge endpoint is a node and
// the in/out indexes agree). It is primarily used by tests and the
// property-based suite.
func (g *Graph) Validate() error {
	seenOut := 0
	for from, edges := range g.out {
		for _, e := range edges {
			if e.From != from {
				return fmt.Errorf("graph: edge %v indexed under wrong source %q", e, from)
			}
			if !g.HasNode(e.From) || !g.HasNode(e.To) {
				return fmt.Errorf("graph: edge %v has missing endpoint", e)
			}
			seenOut++
		}
	}
	seenIn := 0
	for to, edges := range g.in {
		for _, e := range edges {
			if e.To != to {
				return fmt.Errorf("graph: edge %v indexed under wrong target %q", e, to)
			}
			seenIn++
		}
	}
	if seenOut != g.edgeCount || seenIn != g.edgeCount {
		return fmt.Errorf("graph: edge count mismatch out=%d in=%d count=%d", seenOut, seenIn, g.edgeCount)
	}
	return nil
}

func buildFigure1(t testing.TB) *Graph {
	t.Helper()
	g := New()
	edges := []struct {
		from, label, to string
	}{
		{"N1", "tram", "N4"},
		{"N2", "bus", "N1"},
		{"N2", "bus", "N3"},
		{"N2", "bus", "N5"},
		{"N3", "tram", "N6"},
		{"N4", "cinema", "C1"},
		{"N4", "bus", "N5"},
		{"N5", "restaurant", "R1"},
		{"N5", "tram", "N2"},
		{"N6", "restaurant", "R2"},
		{"N6", "cinema", "C2"},
		{"N6", "bus", "N5"},
	}
	for _, e := range edges {
		g.MustAddEdge(NodeID(e.from), Label(e.label), NodeID(e.to))
	}
	return g
}

func TestAddNodeAndEdgeBasics(t *testing.T) {
	g := New()
	if err := g.AddNode("a"); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if !g.HasNode("a") {
		t.Fatal("node a should exist")
	}
	if g.HasNode("b") {
		t.Fatal("node b should not exist")
	}
	if err := g.AddEdge("a", "x", "b"); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if !g.HasNode("b") {
		t.Fatal("AddEdge should create missing endpoint b")
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("got %d nodes %d edges, want 2/1", g.NumNodes(), g.NumEdges())
	}
}

func TestAddEdgeRejectsEmpty(t *testing.T) {
	g := New()
	if err := g.AddEdge("", "x", "b"); err == nil {
		t.Fatal("expected error for empty source")
	}
	if err := g.AddEdge("a", "", "b"); err == nil {
		t.Fatal("expected error for empty label")
	}
	if err := g.AddEdge("a", "x", ""); err == nil {
		t.Fatal("expected error for empty target")
	}
	if err := g.AddNode(""); err == nil {
		t.Fatal("expected error for empty node id")
	}
}

func TestAddEdgeDeduplicates(t *testing.T) {
	g := New()
	g.MustAddEdge("a", "x", "b")
	g.MustAddEdge("a", "x", "b")
	if g.NumEdges() != 1 {
		t.Fatalf("duplicate edge not deduplicated: %d edges", g.NumEdges())
	}
	g.MustAddEdge("a", "y", "b")
	if g.NumEdges() != 2 {
		t.Fatalf("distinct label should add edge: %d edges", g.NumEdges())
	}
}

func TestZeroValueGraphUsable(t *testing.T) {
	var g Graph
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("zero graph should be empty")
	}
	g.MustAddEdge("a", "x", "b")
	if g.NumEdges() != 1 {
		t.Fatal("zero value graph should accept edges")
	}
}

func TestOutInSorted(t *testing.T) {
	g := buildFigure1(t)
	out := g.Out("N2")
	if len(out) != 3 {
		t.Fatalf("N2 out degree = %d, want 3", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].To > out[i].To {
			t.Fatalf("Out not sorted: %v", out)
		}
	}
	in := g.In("N5")
	if len(in) != 3 {
		t.Fatalf("N5 in degree = %d, want 3", len(in))
	}
}

// TestOutWithLabel checks the per-label out-adjacency on Figure 1 through
// the Indexed view the evaluation engines read.
func TestOutWithLabel(t *testing.T) {
	ix := buildFigure1(t).Indexed()
	n2, _ := ix.IndexOf("N2")
	bus, _ := ix.LabelIndexOf("bus")
	cinema, _ := ix.LabelIndexOf("cinema")
	var got []NodeID
	for _, v := range ix.Out(n2, bus) {
		got = append(got, ix.NodeAt(v))
	}
	if want := []NodeID{"N1", "N3", "N5"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("N2's bus successors = %v, want %v", got, want)
	}
	if got := ix.Out(n2, cinema); len(got) != 0 {
		t.Fatalf("N2 has no cinema edge, got %v", got)
	}
	if _, ok := ix.IndexOf("missing"); ok {
		t.Fatal("missing node has an index")
	}
}

func TestAlphabetAndLabelCount(t *testing.T) {
	g := buildFigure1(t)
	alphabet := g.Alphabet()
	want := []Label{"bus", "cinema", "restaurant", "tram"}
	if !reflect.DeepEqual(alphabet, want) {
		t.Fatalf("Alphabet = %v, want %v", alphabet, want)
	}
	counts := g.ComputeStats().LabelHistogram
	if counts["bus"] != 5 {
		t.Fatalf("LabelHistogram[bus] = %d, want 5", counts["bus"])
	}
	if counts["missing"] != 0 {
		t.Fatal("missing label should count 0")
	}
}

func TestAttrs(t *testing.T) {
	g := New()
	if err := g.SetAttr("N1", "kind", "neighborhood"); err != nil {
		t.Fatal(err)
	}
	v, ok := g.Attr("N1", "kind")
	if !ok || v != "neighborhood" {
		t.Fatalf("Attr = %q,%v", v, ok)
	}
	if _, ok := g.Attr("N1", "missing"); ok {
		t.Fatal("missing attr should not be found")
	}
	if _, ok := g.Attr("NX", "kind"); ok {
		t.Fatal("attr on missing node should not be found")
	}
}

func TestEqual(t *testing.T) {
	a := buildFigure1(t)
	b := buildFigure1(t)
	if !a.Equal(b) {
		t.Fatal("identical graphs should be equal")
	}
	b.MustAddNode("extra")
	if a.Equal(b) {
		t.Fatal("extra node should break equality")
	}
	c := buildFigure1(t)
	c.MustAddEdge("R1", "bus", "N1")
	if a.Equal(c) {
		t.Fatal("different graphs should not be equal")
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := buildFigure1(t)
	g.MustAddNode("isolated")
	if err := g.SetAttr("N1", "kind", "neighborhood"); err != nil {
		t.Fatal(err)
	}
	text := g.Text()
	parsed, err := ParseText(text)
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if !g.Equal(parsed) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", text, parsed.Text())
	}
	if v, ok := parsed.Attr("N1", "kind"); !ok || v != "neighborhood" {
		t.Fatal("attribute lost in round trip")
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := []string{
		"edge a b",         // wrong arity
		"node",             // missing id
		"frob a b c",       // unknown directive
		"node a kindvalue", // malformed attribute
		"edge a  c",        // empty label collapses: wrong arity
	}
	for _, c := range cases {
		if _, err := ParseText(c); err == nil {
			t.Errorf("ParseText(%q) should fail", c)
		}
	}
}

func TestParseTextCommentsAndBlank(t *testing.T) {
	g, err := ParseText("# header\n\nedge a x b\n  # indented comment\nnode c\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 1 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestNeighborhoodRadiusZero(t *testing.T) {
	g := buildFigure1(t)
	n := g.NeighborhoodAround("N2", 0, NeighborhoodOptions{Directed: true})
	if n.Fragment.NumNodes() != 1 || n.Fragment.NumEdges() != 0 {
		t.Fatalf("radius 0 fragment = %d nodes %d edges", n.Fragment.NumNodes(), n.Fragment.NumEdges())
	}
	if len(n.Frontier) != 1 || n.Frontier[0] != "N2" {
		t.Fatalf("frontier = %v, want [N2]", n.Frontier)
	}
}

func TestNeighborhoodDirectedRadius2(t *testing.T) {
	g := buildFigure1(t)
	n := g.NeighborhoodAround("N2", 2, NeighborhoodOptions{Directed: true})
	// From N2 at distance <=2 following outgoing edges:
	// d1: N1, N3, N5; d2: N4, N6, R1, N2(already).
	wantNodes := []NodeID{"N1", "N2", "N3", "N4", "N5", "N6", "R1"}
	if got := n.Fragment.Nodes(); !reflect.DeepEqual(got, wantNodes) {
		t.Fatalf("fragment nodes = %v, want %v", got, wantNodes)
	}
	// C1, C2, R2 are outside, so N4 and N6 are on the frontier.
	wantFrontier := map[NodeID]bool{"N4": true, "N6": true}
	for _, f := range n.Frontier {
		if !wantFrontier[f] {
			t.Fatalf("unexpected frontier node %s (frontier %v)", f, n.Frontier)
		}
		delete(wantFrontier, f)
	}
	if len(wantFrontier) != 0 {
		t.Fatalf("missing frontier nodes: %v", wantFrontier)
	}
	if n.Distance["N4"] != 2 || n.Distance["N1"] != 1 || n.Distance["N2"] != 0 {
		t.Fatalf("distances wrong: %v", n.Distance)
	}
}

func TestNeighborhoodZoomAdds(t *testing.T) {
	g := buildFigure1(t)
	n2 := g.NeighborhoodAround("N2", 2, NeighborhoodOptions{Directed: true})
	n3 := g.NeighborhoodAround("N2", 3, NeighborhoodOptions{Directed: true})
	nodes, edges := n3.Added(n2)
	// Zooming from 2 to 3 must reveal the cinemas and R2.
	nodeSet := make(map[NodeID]bool)
	for _, id := range nodes {
		nodeSet[id] = true
	}
	for _, want := range []NodeID{"C1", "C2", "R2"} {
		if !nodeSet[want] {
			t.Fatalf("zoom should reveal %s, revealed %v", want, nodes)
		}
	}
	if len(edges) == 0 {
		t.Fatal("zoom should reveal edges")
	}
	// Added with nil previous returns everything.
	allNodes, allEdges := n3.Added(nil)
	if len(allNodes) != n3.Fragment.NumNodes() || len(allEdges) != n3.Fragment.NumEdges() {
		t.Fatal("Added(nil) should return full fragment")
	}
}

func TestNeighborhoodUndirected(t *testing.T) {
	g := buildFigure1(t)
	dir := g.NeighborhoodAround("C1", 1, NeighborhoodOptions{Directed: true})
	undir := g.NeighborhoodAround("C1", 1, NeighborhoodOptions{})
	if dir.Fragment.NumNodes() != 1 {
		t.Fatalf("C1 has no outgoing edges; directed fragment = %d nodes", dir.Fragment.NumNodes())
	}
	if undir.Fragment.NumNodes() != 2 {
		t.Fatalf("undirected fragment should include N4: %v", undir.Fragment.Nodes())
	}
}

func TestNeighborhoodMissingCenter(t *testing.T) {
	g := buildFigure1(t)
	n := g.NeighborhoodAround("missing", 2, NeighborhoodOptions{Directed: true})
	if n.Fragment.NumNodes() != 0 {
		t.Fatal("missing centre should produce empty fragment")
	}
	n = g.NeighborhoodAround("N1", -1, NeighborhoodOptions{Directed: true})
	if n.Fragment.NumNodes() != 0 {
		t.Fatal("negative radius should produce empty fragment")
	}
}

func TestNeighborhoodCopiesKindAttr(t *testing.T) {
	g := buildFigure1(t)
	if err := g.SetAttr("N4", "kind", "neighborhood"); err != nil {
		t.Fatal(err)
	}
	n := g.NeighborhoodAround("N1", 1, NeighborhoodOptions{Directed: true})
	if v, ok := n.Fragment.Attr("N4", "kind"); !ok || v != "neighborhood" {
		t.Fatal("kind attribute should be copied into fragment")
	}
}

func TestReachableFrom(t *testing.T) {
	g := buildFigure1(t)
	r := g.ReachableFrom("N5")
	// From N5: R1, N2 and everything reachable from N2.
	for _, want := range []NodeID{"N5", "R1", "N2", "N1", "N3", "N4", "N6", "C1", "C2", "R2"} {
		if !r[want] {
			t.Fatalf("%s should be reachable from N5; got %v", want, r)
		}
	}
	if len(g.ReachableFrom("missing")) != 0 {
		t.Fatal("missing start should be empty")
	}
	if r := g.ReachableFrom("C1"); len(r) != 1 || !r["C1"] {
		t.Fatalf("C1 reaches only itself, got %v", r)
	}
}

func TestComputeStats(t *testing.T) {
	g := buildFigure1(t)
	s := g.ComputeStats()
	if s.Nodes != 10 || s.Edges != 12 || s.Labels != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Sinks != 4 { // C1, C2, R1, R2
		t.Fatalf("sinks = %d, want 4", s.Sinks)
	}
	if s.MaxOutDegree != 3 {
		t.Fatalf("max out degree = %d, want 3", s.MaxOutDegree)
	}
	if s.LabelHistogram["bus"] != 5 {
		t.Fatalf("bus count = %d", s.LabelHistogram["bus"])
	}
	str := s.String()
	if !strings.Contains(str, "nodes=10") || !strings.Contains(str, "label bus") {
		t.Fatalf("stats string missing fields: %s", str)
	}
}

func TestEdgeString(t *testing.T) {
	e := Edge{From: "a", Label: "x", To: "b"}
	if e.String() != "a -x-> b" {
		t.Fatalf("Edge.String = %q", e.String())
	}
}

// randomGraph builds a pseudo-random graph for property tests.
func randomGraph(r *rand.Rand, nodes, edges int) *Graph {
	g := New()
	labels := []Label{"a", "b", "c", "d"}
	for i := 0; i < nodes; i++ {
		g.MustAddNode(NodeID(fmtNode(i)))
	}
	ids := g.Nodes()
	for i := 0; i < edges; i++ {
		from := ids[r.Intn(len(ids))]
		to := ids[r.Intn(len(ids))]
		g.MustAddEdge(from, labels[r.Intn(len(labels))], to)
	}
	return g
}

func fmtNode(i int) string { return "v" + string(rune('A'+i%26)) + string(rune('0'+i/26%10)) }

func TestPropertyTextRoundTrip(t *testing.T) {
	f := func(seed int64, nodes, edges uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, int(nodes%40)+1, int(edges))
		parsed, err := ParseText(g.Text())
		if err != nil {
			return false
		}
		return g.Equal(parsed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyValidateAfterRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 20, 60)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyNeighborhoodSubsetOfGraph(t *testing.T) {
	f := func(seed int64, radius uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 25, 80)
		ids := g.Nodes()
		center := ids[r.Intn(len(ids))]
		n := g.NeighborhoodAround(center, int(radius%5), NeighborhoodOptions{Directed: true})
		for _, id := range n.Fragment.Nodes() {
			if !g.HasNode(id) {
				return false
			}
		}
		edgeSet := make(map[Edge]bool)
		for _, e := range g.Edges() {
			edgeSet[e] = true
		}
		for _, e := range n.Fragment.Edges() {
			if !edgeSet[e] {
				return false
			}
		}
		// Distances must not exceed the radius.
		for _, d := range n.Distance {
			if d > int(radius%5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
