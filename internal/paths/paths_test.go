package paths

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func figure1(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New()
	edges := []struct{ from, label, to string }{
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
		g.MustAddEdge(graph.NodeID(e.from), graph.Label(e.label), graph.NodeID(e.to))
	}
	return g
}

func TestPathString(t *testing.T) {
	cinema := Path{Start: "N4", Edges: []graph.Edge{{From: "N4", Label: "cinema", To: "C1"}}}
	if cinema.String() != "N4 -cinema-> C1" {
		t.Fatalf("String = %q", cinema.String())
	}
	empty := Path{Start: "N4"}
	if empty.String() != "N4" {
		t.Fatalf("empty path String = %q", empty.String())
	}
}

func TestWordsDeduplicated(t *testing.T) {
	g := figure1(t)
	// N2 has three bus edges; the word "bus" must appear once, plus the
	// empty word that every node has.
	words := Words(g, "N2", 1)
	if len(words) != 2 || WordKey(words[0]) != "" || WordKey(words[1]) != "bus" {
		t.Fatalf("Words(N2,1) = %v", words)
	}
	if got := Words(g, "missing", 2); got != nil {
		t.Fatalf("Words of a missing node = %v", got)
	}
	words = Words(g, "N2", 3)
	// Must be sorted by length first.
	for i := 1; i < len(words); i++ {
		if len(words[i-1]) > len(words[i]) {
			t.Fatalf("words not sorted by length: %v", words)
		}
	}
	// The word bus.bus.cinema must be present (via N2->N1? no: N2-bus->N1,
	// N1-tram->N4; instead N2-bus->N3-tram->N6-cinema; bus.tram.cinema).
	found := false
	for _, w := range words {
		if WordKey(w) == "bus.tram.cinema" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bus.tram.cinema missing from %v", words)
	}
}

func TestHasWord(t *testing.T) {
	g := figure1(t)
	cases := []struct {
		node graph.NodeID
		word string
		want bool
	}{
		{"N2", "bus", true},
		{"N2", "bus.tram.cinema", true},
		{"N2", "cinema", false},
		{"N4", "cinema", true},
		{"N5", "restaurant", true},
		{"N5", "cinema", false},
		{"N5", "tram.bus.tram.cinema", true}, // N5->N2->N1->N4? N2-bus->N1, N1-tram->N4: tram.bus.tram.cinema
		{"C1", "bus", false},
		{"N1", "", true}, // empty word always present
	}
	for _, c := range cases {
		var word []string
		if c.word != "" {
			word = strings.Split(c.word, ".")
		}
		if got := HasWord(g, c.node, word); got != c.want {
			t.Errorf("HasWord(%s, %q) = %v, want %v", c.node, c.word, got, c.want)
		}
	}
	if HasWord(g, "missing", []string{"bus"}) {
		t.Fatal("missing node has no words")
	}
}

func TestCoveredAndSmallestUncovered(t *testing.T) {
	g := figure1(t)
	negatives := []graph.NodeID{"N5"}
	// "bus" is covered? N5 has no bus edge (out edges: restaurant, tram) so
	// "bus" is NOT covered by N5.
	if Covered(g, []string{"bus"}, negatives) {
		t.Fatal("bus is not a word of N5")
	}
	// "restaurant" is covered by N5.
	if !Covered(g, []string{"restaurant"}, negatives) {
		t.Fatal("restaurant is a word of N5")
	}
	w, ok := smallestUncovered(g, "N6", negatives, 3)
	if !ok {
		t.Fatal("N6 must have an uncovered word")
	}
	// N6 words of length 1: bus (covered? N5 has no bus → uncovered),
	// cinema (uncovered), restaurant (covered). Smallest = "bus" before
	// "cinema" lexicographically.
	if WordKey(w) != "bus" {
		t.Fatalf("smallest uncovered of N6 = %v", w)
	}
	// With negatives N5 and N2, "bus" becomes covered (N2 has bus), so the
	// smallest uncovered word of N6 should become "cinema".
	w, ok = smallestUncovered(g, "N6", []graph.NodeID{"N5", "N2"}, 3)
	if !ok || WordKey(w) != "cinema" {
		t.Fatalf("smallest uncovered of N6 with {N5,N2} = %v ok=%v", w, ok)
	}
}

// smallestUncovered is SmallestUncoveredWith against a fresh coverage of
// the negatives.
func smallestUncovered(g *graph.Graph, start graph.NodeID, negatives []graph.NodeID, maxLen int) ([]string, bool) {
	return SmallestUncoveredWith(g, start, maxLen, NewCoverage(g, negatives, maxLen))
}

func TestSmallestUncoveredAllCovered(t *testing.T) {
	g := graph.New()
	g.MustAddEdge("a", "x", "b")
	g.MustAddEdge("c", "x", "d")
	// Every word of a (just "x") is covered by negative c.
	if _, ok := smallestUncovered(g, "a", []graph.NodeID{"c"}, 3); ok {
		t.Fatal("all words of a are covered")
	}
}

func TestUncoveredWordsAndCount(t *testing.T) {
	g := figure1(t)
	negatives := []graph.NodeID{"N5"}
	words := UncoveredWords(g, "N6", negatives, 2)
	count := CountUncoveredWith(g, "N6", 2, NewCoverage(g, negatives, 2))
	if len(words) != count {
		t.Fatalf("count mismatch %d vs %d", len(words), count)
	}
	for _, w := range words {
		if Covered(g, w, negatives) {
			t.Fatalf("word %v reported uncovered but is covered", w)
		}
	}
	// A node with no outgoing edges has no words, hence count 0.
	if CountUncoveredWith(g, "C1", 3, NewCoverage(g, negatives, 3)) != 0 {
		t.Fatal("sink node has no uncovered words")
	}
}

func TestTrieInsertContainsLen(t *testing.T) {
	tr := NewTrie()
	tr.Insert([]string{"bus", "tram", "cinema"})
	tr.Insert([]string{"bus", "bus", "cinema"})
	tr.Insert([]string{"cinema"})
	tr.Insert([]string{"cinema"}) // duplicate
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	// A prefix of an inserted word is not stored unless inserted itself.
	want := [][]string{{"cinema"}, {"bus", "bus", "cinema"}, {"bus", "tram", "cinema"}}
	if got := tr.Words(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Words = %v, want %v", got, want)
	}
}

func TestTrieWordsSorted(t *testing.T) {
	tr := BuildTrie([][]string{
		{"b", "b"},
		{"a"},
		{"b", "a"},
		{"c"},
	})
	words := tr.Words()
	want := [][]string{{"a"}, {"c"}, {"b", "a"}, {"b", "b"}}
	if !reflect.DeepEqual(words, want) {
		t.Fatalf("Words = %v, want %v", words, want)
	}
}

func TestTrieEmptyWord(t *testing.T) {
	tr := NewTrie()
	tr.Insert(nil)
	if words := tr.Words(); tr.Len() != 1 || len(words) != 1 || len(words[0]) != 0 {
		t.Fatal("empty word should be storable")
	}
	if !strings.Contains(tr.Render(nil), "(empty word)") {
		t.Fatal("Render should show the empty word")
	}
}

func TestTrieLongest(t *testing.T) {
	tr := BuildTrie([][]string{
		{"cinema"},
		{"bus", "bus", "cinema"},
		{"bus", "tram"},
	})
	w, ok := tr.LongestWithin(3)
	if !ok || len(w) != 3 {
		t.Fatalf("LongestWithin(3) = %v ok=%v", w, ok)
	}
	w, ok = tr.LongestWithin(2)
	if !ok || WordKey(w) != "bus.tram" {
		t.Fatalf("LongestWithin(2) = %v ok=%v", w, ok)
	}
	w, ok = tr.LongestWithin(1)
	if !ok || WordKey(w) != "cinema" {
		t.Fatalf("LongestWithin(1) = %v ok=%v", w, ok)
	}
	if _, ok := tr.LongestWithin(0); ok {
		t.Fatal("no word of length 0 stored")
	}
	empty := NewTrie()
	if _, ok := empty.LongestWithin(3); ok {
		t.Fatal("empty trie has no longest word")
	}
}

func TestTrieRenderHighlight(t *testing.T) {
	tr := BuildTrie([][]string{
		{"bus", "bus", "cinema"},
		{"bus", "tram"},
		{"cinema"},
	})
	out := tr.Render([]string{"bus", "bus", "cinema"})
	if !strings.Contains(out, "◀ candidate") {
		t.Fatalf("highlight missing:\n%s", out)
	}
	if !strings.Contains(out, "●") {
		t.Fatalf("terminal markers missing:\n%s", out)
	}
	// Highlighting a word not in the trie marks nothing.
	out = tr.Render([]string{"metro"})
	if strings.Contains(out, "◀ candidate") {
		t.Fatalf("unexpected highlight:\n%s", out)
	}
}

func TestWordKey(t *testing.T) {
	if WordKey([]string{"a", "b"}) != "a.b" || WordKey(nil) != "" {
		t.Fatal("WordKey wrong")
	}
}

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

func TestPropertyEnumeratedWordsExist(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 8, 16)
		ids := g.Nodes()
		start := ids[r.Intn(len(ids))]
		for _, w := range Words(g, start, 3) {
			if !HasWord(g, start, w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTrieRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 8, 16)
		ids := g.Nodes()
		start := ids[r.Intn(len(ids))]
		words := Words(g, start, 3)
		tr := BuildTrie(words)
		if tr.Len() != len(words) {
			return false
		}
		back := tr.Words()
		if len(back) != len(words) {
			return false
		}
		for i := range back {
			if WordKey(back[i]) != WordKey(words[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySmallestUncoveredIsUncoveredAndMinimal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 8, 16)
		ids := g.Nodes()
		start := ids[r.Intn(len(ids))]
		var negatives []graph.NodeID
		for i := 0; i < 2; i++ {
			negatives = append(negatives, ids[r.Intn(len(ids))])
		}
		w, ok := smallestUncovered(g, start, negatives, 3)
		if !ok {
			return true
		}
		if Covered(g, w, negatives) {
			return false
		}
		// Minimality: no shorter uncovered word exists.
		for _, other := range Words(g, start, len(w)-1) {
			if !Covered(g, other, negatives) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestStartsOfWordMatchesHasWord pins the one-sweep StartsOfWord set to a
// per-node HasWord probe on randomized graphs and words, including words
// with labels absent from the graph and the empty word.
func TestStartsOfWordMatchesHasWord(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 8, 16)
		labels := []string{"a", "b", "c", "z"} // z never occurs in the graph
		word := make([]string, r.Intn(5))
		for i := range word {
			word[i] = labels[r.Intn(len(labels))]
		}
		starts := StartsOfWord(g, word)
		for _, id := range g.Nodes() {
			if starts.Has(id) != HasWord(g, id, word) {
				t.Logf("word %v node %s: StartsOfWord=%v HasWord=%v",
					word, id, starts.Has(id), HasWord(g, id, word))
				return false
			}
		}
		return !starts.Has("missing")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
