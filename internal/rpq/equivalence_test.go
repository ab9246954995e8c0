package rpq

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/regex"
)

// This file pins the dense bitset engine to a deliberately naive reference
// evaluator: per-node forward breadth-first search over the product of the
// graph with the query DFA, using nothing but hash maps and the string
// APIs. Any divergence between the two implementations on randomized
// graphs and queries is a bug in the dense core.

// refEvaluator is the map-based reference implementation.
type refEvaluator struct {
	g   *graph.Graph
	dfa *automaton.DFA
}

func newRefEvaluator(g *graph.Graph, query *regex.Expr) *refEvaluator {
	alphabet := make([]string, 0)
	for _, l := range g.Alphabet() {
		alphabet = append(alphabet, string(l))
	}
	dfa := automaton.FromRegex(query).Determinize(alphabet).Minimize()
	return &refEvaluator{g: g, dfa: dfa}
}

type refConfig struct {
	node  graph.NodeID
	state automaton.State
}

// selects reports whether some accepted path starts at the node.
func (r *refEvaluator) selects(node graph.NodeID) bool {
	_, ok := r.shortestWitnessLen(node)
	return ok
}

// shortestWitnessLen returns the length of a shortest accepted path from
// the node, and ok=false when none exists.
func (r *refEvaluator) shortestWitnessLen(node graph.NodeID) (int, bool) {
	if !r.g.HasNode(node) {
		return 0, false
	}
	if r.dfa.IsAccepting(r.dfa.Start()) {
		return 0, true
	}
	type entry struct {
		c     refConfig
		depth int
	}
	start := refConfig{node, r.dfa.Start()}
	seen := map[refConfig]bool{start: true}
	queue := []entry{{start, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, edge := range r.g.Out(cur.c.node) {
			next, ok := r.dfa.Next(cur.c.state, string(edge.Label))
			if !ok {
				continue
			}
			if r.dfa.IsAccepting(next) {
				return cur.depth + 1, true
			}
			nc := refConfig{edge.To, next}
			if !seen[nc] {
				seen[nc] = true
				queue = append(queue, entry{nc, cur.depth + 1})
			}
		}
	}
	return 0, false
}

func (r *refEvaluator) selected() []graph.NodeID {
	var out []graph.NodeID
	for _, n := range r.g.Nodes() {
		if r.selects(n) {
			out = append(out, n)
		}
	}
	return out
}

// randomGraph builds a random labelled graph with up to 12 nodes over the
// alphabet {a, b, c, d}.
func randomEqGraph(rng *rand.Rand) *graph.Graph {
	g := graph.New()
	n := 1 + rng.Intn(12)
	labels := []graph.Label{"a", "b", "c", "d"}[:1+rng.Intn(4)]
	for i := 0; i < n; i++ {
		g.MustAddNode(graph.NodeID(fmt.Sprintf("n%02d", i)))
	}
	edges := rng.Intn(3*n + 1)
	for i := 0; i < edges; i++ {
		from := graph.NodeID(fmt.Sprintf("n%02d", rng.Intn(n)))
		to := graph.NodeID(fmt.Sprintf("n%02d", rng.Intn(n)))
		g.MustAddEdge(from, labels[rng.Intn(len(labels))], to)
	}
	return g
}

// randomQuery builds a random regular expression over {a, b, c, d} (some
// labels may be absent from the graph, exercising the alphabet-union path).
func randomEqQuery(rng *rand.Rand, depth int) string {
	labels := []string{"a", "b", "c", "d"}
	if depth <= 0 || rng.Intn(3) == 0 {
		return labels[rng.Intn(len(labels))]
	}
	switch rng.Intn(4) {
	case 0:
		return "(" + randomEqQuery(rng, depth-1) + "+" + randomEqQuery(rng, depth-1) + ")"
	case 1:
		return randomEqQuery(rng, depth-1) + "." + randomEqQuery(rng, depth-1)
	case 2:
		return "(" + randomEqQuery(rng, depth-1) + ")*"
	default:
		return labels[rng.Intn(len(labels))]
	}
}

// TestRandomizedEquivalenceWithReference cross-checks Selected, Selects
// and the Witness length of the dense engine against the
// naive reference on 150 seeded random graph/query pairs.
func TestRandomizedEquivalenceWithReference(t *testing.T) {
	const cases = 150
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < cases; i++ {
		g := randomEqGraph(rng)
		q := regex.MustParse(randomEqQuery(rng, 3))
		e := New(g, q)
		ref := newRefEvaluator(g, q)

		if got, want := e.Selected(), ref.selected(); !reflect.DeepEqual(got, want) {
			if len(got) != 0 || len(want) != 0 {
				t.Fatalf("case %d: query %s: Selected() = %v, reference = %v", i, q, got, want)
			}
		}
		for _, n := range g.Nodes() {
			if got, want := e.Selects(n), ref.selects(n); got != want {
				t.Fatalf("case %d: query %s: Selects(%s) = %v, reference = %v", i, q, n, got, want)
			}
			w, ok := e.Witness(n)
			wantLen, wantOK := ref.shortestWitnessLen(n)
			if ok != wantOK {
				t.Fatalf("case %d: query %s: Witness(%s) ok = %v, reference = %v", i, q, n, ok, wantOK)
			}
			if ok {
				if len(w) != wantLen {
					t.Fatalf("case %d: query %s: Witness(%s) length = %d, shortest = %d", i, q, n, len(w), wantLen)
				}
				assertValidWitness(t, g, q, n, w)
			}
		}
	}
}

// assertValidWitness checks that the witness is a real path of the graph
// starting at node whose word matches the query.
func assertValidWitness(t *testing.T, g *graph.Graph, q *regex.Expr, node graph.NodeID, w []graph.Edge) {
	t.Helper()
	at := node
	word := make([]string, 0, len(w))
	for _, e := range w {
		if e.From != at {
			t.Fatalf("witness of %s is not contiguous: edge %v from %s", node, e, at)
		}
		found := false
		for _, out := range g.Out(e.From) {
			if out == e {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("witness edge %v is not an edge of the graph", e)
		}
		word = append(word, string(e.Label))
		at = e.To
	}
	if !q.Matches(word) {
		t.Fatalf("witness word %v of %s does not match %s", word, node, q)
	}
}
