package rpq

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/automaton"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/rpq/index"
)

// accReachBytes serialises the engine's per-state reach rows so two
// engines can be compared for exact fixpoint identity, not just identical
// observable answers.
func accReachBytes(e *Engine) []byte {
	out := make([]byte, 0, len(e.reach)*8)
	for _, w := range e.reach {
		for b := 0; b < 8; b++ {
			out = append(out, byte(w>>(8*uint(b))))
		}
	}
	return out
}

// assertEnginesIdentical checks that two engines over the same graph and
// query agree bit-for-bit on the product bitset and on every observable
// answer: Selected, and Selects and the Witness edges of every node.
func assertEnginesIdentical(t *testing.T, tag string, g *graph.Graph, q *regex.Expr, oracle, got *Engine) {
	t.Helper()
	assertEnginesIdenticalOn(t, tag, g, q, oracle, got, g.Nodes())
}

// assertEnginesIdenticalOn is assertEnginesIdentical with Selects and
// Witness probed on the given nodes only.
func assertEnginesIdenticalOn(t *testing.T, tag string, g *graph.Graph, q *regex.Expr, oracle, got *Engine, nodes []graph.NodeID) {
	t.Helper()
	if !bytes.Equal(accReachBytes(oracle), accReachBytes(got)) {
		t.Fatalf("%s: query %s: product bitsets differ", tag, q)
	}
	o, n := oracle.Selected(), got.Selected()
	if !reflect.DeepEqual(o, n) || got.NumSelected() != len(o) {
		t.Fatalf("%s: query %s: Selected() = %v (NumSelected %d), oracle = %v", tag, q, n, got.NumSelected(), o)
	}
	if want, _ := json.Marshal(o); !bytes.Equal(got.SelectedJSON(), want) {
		t.Fatalf("%s: query %s: SelectedJSON() = %s, oracle = %s", tag, q, got.SelectedJSON(), want)
	}
	for _, k := range []int{0, 1, len(o) / 2, len(o), len(o) + 1} {
		if f, want := got.FirstSelected(k), o[:min(k, len(o))]; !reflect.DeepEqual(f, want) {
			t.Fatalf("%s: query %s: FirstSelected(%d) = %v, oracle = %v", tag, q, k, f, want)
		}
	}
	for _, node := range nodes {
		if o, n := oracle.Selects(node), got.Selects(node); o != n {
			t.Fatalf("%s: query %s: Selects(%s) = %v, oracle = %v", tag, q, node, n, o)
		}
		ow, ook := oracle.Witness(node)
		nw, nok := got.Witness(node)
		if ook != nok || !reflect.DeepEqual(ow, nw) {
			t.Fatalf("%s: query %s: Witness(%s) = %v, %v; oracle = %v, %v", tag, q, node, nw, nok, ow, ook)
		}
		if nok {
			assertValidWitness(t, g, q, node, nw)
		}
	}
}

// assertMatchesOracles builds the query's engine every production way —
// New, NewWith with the given index, and the engine cache — plus the
// sharded oracle, and pins each to the queue-sweep oracle.
func assertMatchesOracles(t *testing.T, tag string, g *graph.Graph, q *regex.Expr, idx *index.Index, workers int, nodes []graph.NodeID) {
	t.Helper()
	oracle := queueOracle(g, q)
	assertEnginesIdenticalOn(t, tag+" (plain)", g, q, oracle, New(g, q), nodes)
	indexed := NewWith(g, q, Options{Index: idx})
	if indexed.idx != idx {
		t.Fatalf("%s: fresh index not adopted by engine", tag)
	}
	assertEnginesIdenticalOn(t, tag+" (indexed)", g, q, oracle, indexed, nodes)
	cached := NewCacheWith(g, CacheOptions{Index: func() *index.Index { return idx }}).Get(q)
	assertEnginesIdenticalOn(t, tag+" (cached)", g, q, oracle, cached, nodes)
	assertEnginesIdenticalOn(t, fmt.Sprintf("%s (sharded oracle, %d workers)", tag, workers), g, q, oracle, shardedOracle(g, q, workers), nodes)
}

// randomChainGraph builds a path n00 -> n01 -> ... over up to six labels
// (all six half the time), sometimes with one back edge, and returns it
// with the word the path spells. A run of one label under a star before a
// concatenation puts a non-accepting DFA state with a self-loop on a path
// that exists; with more labels than the default index closes, some of
// those loops stay generic backward steps.
func randomChainGraph(rng *rand.Rand) (*graph.Graph, []string) {
	g := graph.New()
	n := 3 + rng.Intn(18)
	labels := []string{"a", "b", "c", "d", "e", "f"}
	if rng.Intn(2) == 0 {
		labels = labels[:1+rng.Intn(6)]
	}
	node := func(i int) graph.NodeID { return graph.NodeID(fmt.Sprintf("n%02d", i)) }
	for i := 0; i < n; i++ {
		g.MustAddNode(node(i))
	}
	word := make([]string, n-1)
	l := labels[rng.Intn(len(labels))]
	for i := range word {
		if rng.Intn(3) != 0 {
			l = labels[rng.Intn(len(labels))]
		}
		word[i] = l
		g.MustAddEdge(node(i), graph.Label(l), node(i+1))
	}
	if rng.Intn(4) == 0 {
		to := rng.Intn(n - 1)
		g.MustAddEdge(node(to+1+rng.Intn(n-1-to)), graph.Label(labels[rng.Intn(len(labels))]), node(to))
	}
	return g, word
}

// randomStarConcatQuery returns a star before a concatenation, s*.t,
// (s+t)*.u.v or s*.t*.u, whose labels mostly follow consecutive edges of
// the chain word, so the star's loop lies on a path that exists. Half the
// time s is the word's rarest label, which an index closing only the
// most frequent labels leaves without a closure.
func randomStarConcatQuery(rng *rand.Rand, word []string) string {
	at := func(i int) string { return word[min(i, len(word)-1)] }
	i := rng.Intn(len(word))
	if rng.Intn(2) == 0 {
		count := map[string]int{}
		for _, l := range word {
			count[l]++
		}
		var rarest []int
		for j, l := range word {
			if len(rarest) == 0 || count[l] < count[word[rarest[0]]] {
				rarest = rarest[:0]
			}
			if len(rarest) == 0 || count[l] == count[word[rarest[0]]] {
				rarest = append(rarest, j)
			}
		}
		i = rarest[rng.Intn(len(rarest))]
	}
	switch rng.Intn(3) {
	case 0:
		return at(i) + "*." + at(i+1)
	case 1:
		return "(" + at(i) + "+" + word[rng.Intn(len(word))] + ")*." + at(i+1) + "." + at(i+2)
	}
	return at(i) + "*." + at(i+1) + "*." + at(i+2)
}

// TestIndexedEquivalenceRandomized is the sweep-vs-oracle suite the engine
// is gated on: 150 seeded random graph/query pairs and 100 star-before-
// concatenation queries on chain graphs, each evaluated by the queue-sweep
// oracle, the sharded oracle, and the fixpoint without an index, with the
// default index and through the cache, asserting byte-identical product
// bitsets and identical answers everywhere.
func TestIndexedEquivalenceRandomized(t *testing.T) {
	const cases = 150
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < cases; i++ {
		g := randomEqGraph(rng)
		q := regex.MustParse(randomEqQuery(rng, 3))
		idx := index.Build(g.Indexed(), index.Options{})
		assertMatchesOracles(t, fmt.Sprintf("case %d", i), g, q, idx, 1+i%4, g.Nodes())
	}
	rng = rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		g, word := randomChainGraph(rng)
		q := regex.MustParse(randomStarConcatQuery(rng, word))
		idx := index.Build(g.Indexed(), index.Options{})
		assertMatchesOracles(t, fmt.Sprintf("chain case %d", i), g, q, idx, 1+i%4, g.Nodes())
	}
}

// TestIndexedEquivalenceConstrainedIndexes re-runs the equivalence suite,
// random graphs and the chain graphs with star-before-concatenation
// queries, with an index whose closures are suppressed, so every step runs
// the generic backward OR or the source-bitset shortcut even though an
// index is installed, and with one that closes only the most frequent
// label, so a state's other self-loops stay generic steps
// (TestIndexedEquivalenceRandomized covers the default index and no
// index).
func TestIndexedEquivalenceConstrainedIndexes(t *testing.T) {
	configs := []struct {
		name string
		opts index.Options
	}{
		{"no-closures", index.Options{MaxClosureBytes: -1, MaxClosureLabels: -1}},
		{"one-label", index.Options{MaxClosureLabels: 1}},
	}
	for _, cfg := range configs {
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 50; i++ {
			g := randomEqGraph(rng)
			q := regex.MustParse(randomEqQuery(rng, 3))
			idx := index.Build(g.Indexed(), cfg.opts)
			oracle := queueOracle(g, q)
			indexed := NewWith(g, q, Options{Index: idx})
			assertEnginesIdentical(t, fmt.Sprintf("case %d (%s)", i, cfg.name), g, q, oracle, indexed)
		}
		rng = rand.New(rand.NewSource(23))
		for i := 0; i < 50; i++ {
			g, word := randomChainGraph(rng)
			q := regex.MustParse(randomStarConcatQuery(rng, word))
			idx := index.Build(g.Indexed(), cfg.opts)
			indexed := NewWith(g, q, Options{Index: idx})
			assertEnginesIdentical(t, fmt.Sprintf("chain case %d (%s)", i, cfg.name), g, q, queueOracle(g, q), indexed)
		}
	}
}

// TestIndexedCacheProvider checks that the engine cache consults its index
// provider on builds.
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
}

// everyNth returns every k-th node of the graph, for probing Selects and
// Witness on graphs too large to probe exhaustively.
func everyNth(g *graph.Graph, k int) []graph.NodeID {
	var out []graph.NodeID
	for i, n := range g.Nodes() {
		if i%k == 0 {
			out = append(out, n)
		}
	}
	return out
}

func TestFixpointMatchesOracleFigure1(t *testing.T) {
	g := dataset.Figure1()
	idx := index.Build(g.Indexed(), index.Options{})
	for _, qs := range []string{"(tram+bus)*.cinema", "bus", "restaurant", "(bus.tram)*", "cinema+restaurant", "empty", "metro"} {
		assertMatchesOracles(t, "figure1", g, regex.MustParse(qs), idx, 4, g.Nodes())
	}
}

func TestFixpointMatchesOracleLargeTransport(t *testing.T) {
	g := dataset.Transport(dataset.TransportOptions{Rows: 40, Cols: 40, Seed: 7, FacilityRate: 0.3})
	idx := index.Build(g.Indexed(), index.Options{})
	nodes := everyNth(g, 37)
	for i, qs := range []string{"(tram+bus)*.cinema", "(bus+tram)*.restaurant", "bus.bus", "(tram)*"} {
		assertMatchesOracles(t, "transport-40x40", g, regex.MustParse(qs), idx, 2+3*i, nodes)
	}
}

// TestFixpointMatchesOracleRandomized draws queries from the eval-cold
// grammar on transport, scale-free and uniform random graphs and on the
// empty graph, and random expressions on random graphs over {a, b, c}.
func TestFixpointMatchesOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	transportLabels := []string{"tram", "bus", "tram", "bus", "cinema", "restaurant", "museum", "park"}
	for trial := 0; trial < 30; trial++ {
		seed := rng.Int63()
		query := func() string { return coldGrammarQuery(rng) }
		var g *graph.Graph
		switch trial % 5 {
		case 0:
			n := 3 + rng.Intn(10)
			g = dataset.Transport(dataset.TransportOptions{Rows: n, Cols: n, Seed: seed, FacilityRate: 0.3})
		case 1:
			g = dataset.ScaleFree(dataset.ScaleFreeOptions{Nodes: 20 + rng.Intn(200), Seed: seed, Alphabet: transportLabels})
		case 2:
			g = dataset.Random(dataset.RandomOptions{Nodes: 10 + rng.Intn(150), AvgDegree: 1 + 2*rng.Float64(), Seed: seed, Alphabet: transportLabels})
		case 3:
			n := 20 + rng.Intn(60)
			g = dataset.Random(dataset.RandomOptions{Nodes: n, AvgDegree: float64(1 + rng.Intn(3)), Seed: seed, Alphabet: []string{"a", "b", "c"}})
			query = func() string { return randomEqQuery(rng, 3) }
		default:
			g = graph.New()
		}
		idx := index.Build(g.Indexed(), index.Options{})
		for k := 0; k < 6; k++ {
			qs := query()
			if k%3 == 2 {
				qs = "(" + query() + ")*." + query()
			}
			tag := fmt.Sprintf("trial %d query %d", trial, k)
			assertMatchesOracles(t, tag, g, regex.MustParse(qs), idx, 1+rng.Intn(6), everyNth(g, 3))
		}
	}
}

// TestNewWithDefaultWorkers checks that the deprecated Workers option
// changes nothing: every worker count builds the oracle's engine.
func TestNewWithDefaultWorkers(t *testing.T) {
	g := dataset.Figure1()
	q := regex.MustParse("(tram+bus)*.cinema")
	oracle := queueOracle(g, q)
	for _, workers := range []int{0, 1, 4} {
		assertEnginesIdentical(t, fmt.Sprintf("workers=%d", workers), g, q, oracle, NewWith(g, q, Options{Workers: workers}))
		c := NewCacheWith(g, CacheOptions{Workers: workers})
		assertEnginesIdentical(t, fmt.Sprintf("cache workers=%d", workers), g, q, oracle, c.Get(q))
	}
}

// raceEnabled reports a -race build (race_test.go sets it).
var raceEnabled bool

// TestEvaluationAllocBudget bounds the allocations of the evaluation
// paths a query takes, each at its measured count plus a margin. The
// cache hit has no margin, so that one more allocation per call fails
// it; one more per Witness call adds one per selected node.
func TestEvaluationAllocBudget(t *testing.T) {
	q := regex.MustParse("(tram+bus)*.cinema")
	large := dataset.Transport(dataset.TransportOptions{Rows: 60, Cols: 60, Seed: 1, FacilityRate: 0.3})
	small := dataset.Transport(dataset.TransportOptions{Rows: 10, Cols: 10, Seed: 1, FacilityRate: 0.4})
	New(large, q) // warms the DFA memo and the graph's Indexed view
	cache := NewCache(small)
	engine := cache.Get(q)
	selected := engine.Selected()
	cases := []struct {
		name   string
		budget float64
		pooled bool // its scratch comes from a sync.Pool
		run    func()
	}{
		// One uncached 60x60 evaluation with the DFA memo warm.
		{"uncached 60x60", 16 + 2, false, func() {
			if New(large, q).NumSelected() == 0 {
				t.Fatal("no node selected")
			}
		}},
		// A warm cache hit that copies out the 10x10 answer set.
		{"cached 10x10", 7, false, func() {
			if len(cache.Get(q).Selected()) == 0 {
				t.Fatal("no node selected")
			}
		}},
		// One witness per selected 10x10 node: one allocation each, the
		// returned path.
		{"witness every selected 10x10 node", float64(len(selected)) + 2, true, func() {
			for _, n := range selected {
				if _, ok := engine.Witness(n); !ok {
					t.Fatalf("no witness for selected node %s", n)
				}
			}
		}},
	}
	for _, c := range cases {
		if c.pooled && raceEnabled {
			t.Logf("%s: not counted, the race detector drops sync.Pool entries", c.name)
			continue
		}
		allocs := testing.AllocsPerRun(20, c.run)
		t.Logf("%s: %.0f allocations per call (budget %.0f)", c.name, allocs, c.budget)
		if allocs > c.budget {
			t.Errorf("%s: %.0f allocations per call, budget %.0f", c.name, allocs, c.budget)
		}
	}
}

// groupedTargets counts the (live target state, graph label) pairs of the
// engine's DFA that two or more source states other than the target
// itself reach: the pairs whose one backward step the sweep ORs into
// several source rows, whatever closure serves the target's own loop. A
// live state is one from which acceptance is reachable; the sink is
// never popped.
func groupedTargets(e *Engine) int {
	rev := e.rev
	live := make([]bool, e.numStates)
	var stack []int
	for s := range live {
		if e.accepting[s] {
			live[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, dl := range e.dfaLabel {
			if dl < 0 {
				continue
			}
			for _, q := range rev.Pred(automaton.State(t), dl) {
				if !live[q] {
					live[q] = true
					stack = append(stack, int(q))
				}
			}
		}
	}
	n := 0
	for t := range live {
		if !live[t] {
			continue
		}
		for _, dl := range e.dfaLabel {
			if dl < 0 {
				continue
			}
			others := 0
			for _, q := range rev.Pred(automaton.State(t), dl) {
				if int(q) != t {
					others++
				}
			}
			if others >= 2 {
				n++
			}
		}
	}
	return n
}

// TestGroupedStepIndexEquivalence pins the grouped backward step — one
// In_gl(frontier) row per popped (state, label), ORed into every source
// state — to the queue-sweep oracle, with and without the closure index:
// reach bits, Selected, SelectedJSON, FirstSelected, and Selects and
// Witness on sampled nodes. The hand-picked queries cover a nullable
// query (whose start state accepts), the empty answer, and minimal DFAs
// in which several source states reach one target on one label; the test
// asserts that property of each of the latter, so a case cannot silently
// stop covering the grouped step. The first 200 eval-cold-grammar queries
// on transport 60x60 follow.
func TestGroupedStepIndexEquivalence(t *testing.T) {
	ab := dataset.Random(dataset.RandomOptions{Nodes: 120, AvgDegree: 2, Seed: 5, Alphabet: []string{"a", "b"}})
	city := dataset.Transport(dataset.TransportOptions{Rows: 60, Cols: 60, Seed: 1, FacilityRate: 0.3})
	cases := []struct {
		g       *graph.Graph
		query   string
		grouped bool
		empty   bool
	}{
		{ab, "(a+b)*.a.(a+b)", true, false},
		{ab, "(a+b.a).b.b", true, false},
		{ab, "(a+b)*", false, false},
		{ab, "c.a", false, true},
		{city, "(tram.bus)*.tram*.(tram+bus).cinema", true, false},
		{city, "(bus+tram.bus).bus.cinema", true, false},
		{city, "(tram+bus)*.tram*", false, false},
		{city, "metro.cinema", false, true},
	}
	// The default index closes every label of both graphs; closing only
	// the most frequent label, or none, leaves some self-loops to the
	// generic step although an index is installed.
	indexOpts := []struct {
		name string
		opts index.Options
	}{
		{"indexed", index.Options{}},
		{"one-label index", index.Options{MaxClosureLabels: 1}},
		{"no-closure index", index.Options{MaxClosureBytes: -1, MaxClosureLabels: -1}},
	}
	indexes := map[*graph.Graph][]*index.Index{}
	for _, g := range []*graph.Graph{ab, city} {
		for _, io := range indexOpts {
			indexes[g] = append(indexes[g], index.Build(g.Indexed(), io.opts))
		}
	}
	check := func(tag string, g *graph.Graph, q *regex.Expr, nodes []graph.NodeID) *Engine {
		t.Helper()
		oracle := queueOracle(g, q)
		assertEnginesIdenticalOn(t, tag+" (plain)", g, q, oracle, New(g, q), nodes)
		for i, io := range indexOpts {
			assertEnginesIdenticalOn(t, tag+" ("+io.name+")", g, q, oracle, NewWith(g, q, Options{Index: indexes[g][i]}), nodes)
		}
		return oracle
	}
	for _, c := range cases {
		q := regex.MustParse(c.query)
		e := check(c.query, c.g, q, everyNth(c.g, 1+c.g.NumNodes()/120))
		if c.grouped && groupedTargets(e) == 0 {
			t.Errorf("%s: no live DFA target is reached from two source states on one label", c.query)
		}
		if nullable := e.accepting[e.start]; nullable != (c.query == "(a+b)*" || c.query == "(tram+bus)*.tram*") {
			t.Errorf("%s: start state accepting = %v", c.query, nullable)
		}
		if got := e.NumSelected() == 0; got != c.empty {
			t.Errorf("%s: empty answer = %v, want %v", c.query, got, c.empty)
		}
	}
	rng := rand.New(rand.NewSource(1))
	nodes := everyNth(city, 97)
	grouped := 0
	for i := 0; i < 200; i++ {
		qs := coldGrammarQuery(rng)
		if groupedTargets(check(fmt.Sprintf("cold query %d %s", i, qs), city, regex.MustParse(qs), nodes)) > 0 {
			grouped++
		}
	}
	t.Logf("%d of 200 eval-cold queries group two or more source states on one step", grouped)
}
