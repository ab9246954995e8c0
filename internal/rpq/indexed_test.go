package rpq

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/rpq/index"
)

// accReachBytes serialises the engine's product-reachability bitset so two
// engines can be compared for exact fixpoint identity, not just identical
// observable answers.
func accReachBytes(e *Engine) []byte {
	acc := e.accBits() // materialises the lazy indexed-path bitset
	out := make([]byte, 0, len(acc)*8)
	for _, w := range acc {
		for b := 0; b < 8; b++ {
			out = append(out, byte(w>>(8*uint(b))))
		}
	}
	return out
}

// assertEnginesIdentical checks that two engines over the same graph and
// query agree bit-for-bit on accReach and on every observable answer:
// Selected, Selects, SelectsWithin, Witness length/validity, PairsFrom.
func assertEnginesIdentical(t *testing.T, tag string, g *graph.Graph, q *regex.Expr, oracle, got *Engine) {
	t.Helper()
	if !bytes.Equal(accReachBytes(oracle), accReachBytes(got)) {
		t.Fatalf("%s: query %s: accReach bitsets differ", tag, q)
	}
	if o, n := oracle.Selected(), got.Selected(); !reflect.DeepEqual(o, n) {
		if len(o) != 0 || len(n) != 0 {
			t.Fatalf("%s: query %s: Selected() = %v, oracle = %v", tag, q, n, o)
		}
	}
	for _, node := range g.Nodes() {
		if o, n := oracle.Selects(node), got.Selects(node); o != n {
			t.Fatalf("%s: query %s: Selects(%s) = %v, oracle = %v", tag, q, node, n, o)
		}
		for _, maxLen := range []int{0, 1, 2, 5} {
			if o, n := oracle.SelectsWithin(node, maxLen), got.SelectsWithin(node, maxLen); o != n {
				t.Fatalf("%s: query %s: SelectsWithin(%s, %d) = %v, oracle = %v", tag, q, node, maxLen, n, o)
			}
		}
		ow, ook := oracle.Witness(node)
		nw, nok := got.Witness(node)
		if ook != nok {
			t.Fatalf("%s: query %s: Witness(%s) ok = %v, oracle = %v", tag, q, node, nok, ook)
		}
		if nok {
			if len(nw) != len(ow) {
				t.Fatalf("%s: query %s: Witness(%s) length = %d, oracle = %d", tag, q, node, len(nw), len(ow))
			}
			assertValidWitness(t, g, q, node, nw)
		}
		if o, n := oracle.PairsFrom(node), got.PairsFrom(node); !reflect.DeepEqual(o, n) {
			if len(o) != 0 || len(n) != 0 {
				t.Fatalf("%s: query %s: PairsFrom(%s) = %v, oracle = %v", tag, q, node, n, o)
			}
		}
	}
}

// TestIndexedEquivalenceRandomized is the indexed-vs-oracle suite the index
// layer is gated on: 150 seeded random graph/query pairs, each evaluated by
// the sequential oracle (no index), the index-assisted engine, and the
// sharded engine handed the same index, asserting byte-identical accReach
// bitsets and identical answers everywhere.
func TestIndexedEquivalenceRandomized(t *testing.T) {
	const cases = 150
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < cases; i++ {
		g := randomEqGraph(rng)
		q := regex.MustParse(randomEqQuery(rng, 3))
		idx := index.Build(g.Indexed(), index.Options{})
		oracle := New(g, q)
		tag := func(mode string) string { return fmt.Sprintf("case %d (%s)", i, mode) }

		indexed := NewWith(g, q, Options{Index: idx})
		if indexed.idx != idx {
			t.Fatalf("case %d: fresh index not adopted by engine", i)
		}
		assertEnginesIdentical(t, tag("indexed"), g, q, oracle, indexed)

		sharded := NewWith(g, q, Options{Workers: 4, Index: idx})
		assertEnginesIdentical(t, tag("indexed+workers"), g, q, oracle, sharded)
	}
}

// TestIndexedEquivalenceConstrainedIndexes re-runs the equivalence suite
// with closures suppressed, so every step runs the generic backward OR or
// the source-bitset shortcut (TestIndexedEquivalenceRandomized covers the
// default index).
func TestIndexedEquivalenceConstrainedIndexes(t *testing.T) {
	configs := []struct {
		name string
		opts index.Options
	}{
		{"no-closures", index.Options{MaxClosureBytes: -1, MaxClosureLabels: -1}},
	}
	for _, cfg := range configs {
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 50; i++ {
			g := randomEqGraph(rng)
			q := regex.MustParse(randomEqQuery(rng, 3))
			idx := index.Build(g.Indexed(), cfg.opts)
			oracle := New(g, q)
			indexed := NewWith(g, q, Options{Index: idx})
			assertEnginesIdentical(t, fmt.Sprintf("case %d (%s)", i, cfg.name), g, q, oracle, indexed)
		}
	}
}

// TestIndexedStaleIndexIgnored checks that an index built before a graph
// mutation is silently ignored — the engine must fall back to the plain
// sweep and still answer correctly for the mutated graph.
func TestIndexedStaleIndexIgnored(t *testing.T) {
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.MustAddNode(graph.NodeID(fmt.Sprintf("n%d", i)))
	}
	g.MustAddEdge("n0", "a", "n1")
	stale := index.Build(g.Indexed(), index.Options{})
	g.MustAddEdge("n1", "a", "n2")
	q := regex.MustParse("a.a")
	e := NewWith(g, q, Options{Index: stale})
	if e.idx != nil {
		t.Fatal("stale index was adopted by the engine")
	}
	if !e.Selects("n0") {
		t.Fatal("Selects(n0) = false after fallback from stale index, want true")
	}
	assertEnginesIdentical(t, "stale-fallback", g, q, New(g, q), e)
}

// TestIndexedCacheProvider checks that the engine cache consults its index
// provider on builds, and that a provider returning a stale index never
// corrupts results after the graph mutates.
func TestIndexedCacheProvider(t *testing.T) {
	g := graph.New()
	for i := 0; i < 5; i++ {
		g.MustAddNode(graph.NodeID(fmt.Sprintf("n%d", i)))
	}
	g.MustAddEdge("n0", "a", "n1")
	g.MustAddEdge("n1", "b", "n2")
	idx := index.Build(g.Indexed(), index.Options{})
	calls := 0
	c := NewCacheWith(g, CacheOptions{Index: func() *index.Index {
		calls++
		return idx
	}})
	q := regex.MustParse("a.b")
	e := c.Get(q)
	if calls == 0 {
		t.Fatal("cache build never consulted the index provider")
	}
	if e.idx != idx {
		t.Fatal("cache-built engine did not adopt the provided index")
	}
	if !e.Selects("n0") || e.Selects("n1") {
		t.Fatalf("indexed cache engine misselects: n0=%v n1=%v", e.Selects("n0"), e.Selects("n1"))
	}
	if c.Get(q) != e {
		t.Fatal("second Get missed the cache")
	}

	// Mutate the graph: the cache flushes, the provider still returns the
	// now-stale index, and the rebuilt engine must ignore it.
	g.MustAddEdge("n2", "a", "n3")
	g.MustAddEdge("n3", "b", "n4")
	e2 := c.Get(q)
	if e2 == e {
		t.Fatal("cache returned a stale engine after graph mutation")
	}
	if e2.idx != nil {
		t.Fatal("rebuilt engine adopted a stale index")
	}
	if !e2.Selects("n2") {
		t.Fatal("Selects(n2) = false after mutation, want true")
	}
}
