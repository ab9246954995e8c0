package graph

import (
	"strings"
	"testing"
)

func TestReadCSVBasics(t *testing.T) {
	in := "N1,tram,N4\nN2,bus,N1\nN4,cinema,C1\n"
	g, err := ReadCSV(strings.NewReader(in), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.ComputeStats().LabelHistogram["tram"] != 1 {
		t.Fatal("tram edge missing")
	}
}

func TestReadCSVHeaderAndColumns(t *testing.T) {
	in := "id,src,rel,dst\n1,N1,tram,N4\n2,N4,cinema,C1\n"
	cols := [3]int{1, 2, 3}
	g, err := ReadCSV(strings.NewReader(in), CSVOptions{Header: true, Columns: &cols})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || !g.HasNode("C1") {
		t.Fatalf("unexpected graph: %s", g.Text())
	}
}

func TestReadCSVTabSeparated(t *testing.T) {
	in := "N1\ttram\tN4\nN4\tcinema\tC1\n"
	g, err := ReadCSV(strings.NewReader(in), CSVOptions{Comma: '\t'})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("N1,tram\n"), CSVOptions{}); err == nil {
		t.Fatal("missing column should fail")
	}
	if _, err := ReadCSV(strings.NewReader("N1,,N4\n"), CSVOptions{}); err == nil {
		t.Fatal("empty label should fail")
	}
}

func TestReadTriples(t *testing.T) {
	in := `
# a small RDF-ish export
<http://example.org/city/N1> <http://example.org/ont#tram> <http://example.org/city/N4> .
<http://example.org/city/N4> <http://example.org/ont#cinema> <http://example.org/city/C1> .
"N2" "bus" "N1"
N2 bus N3
`
	g, err := ReadTriples(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasNode("N1") || !g.HasNode("C1") || !g.HasNode("N3") {
		t.Fatalf("IRI local names not extracted: %s", g.Text())
	}
	if counts := g.ComputeStats().LabelHistogram; counts["tram"] != 1 || counts["bus"] != 2 {
		t.Fatalf("labels wrong: %s", g.Text())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestReadTriplesErrors(t *testing.T) {
	if _, err := ReadTriples(strings.NewReader("a b\n")); err == nil {
		t.Fatal("two-term line should fail")
	}
	if _, err := ReadTriples(strings.NewReader("a b c d\n")); err == nil {
		t.Fatal("four-term line should fail")
	}
}

func TestTrimTerm(t *testing.T) {
	cases := map[string]string{
		"<http://x.org/a/b#C>": "C",
		"<http://x.org/a/b>":   "b",
		"\"quoted\"":           "quoted",
		"bare":                 "bare",
		"<plain>":              "plain",
	}
	for in, want := range cases {
		if got := trimTerm(in); got != want {
			t.Errorf("trimTerm(%q) = %q, want %q", in, got, want)
		}
	}
}
