package automaton

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/regex"
)

// transportAlphabet is the label set of the synthetic transport graphs.
var transportAlphabet = []string{"bus", "cinema", "museum", "park", "restaurant", "tram"}

// compileCase is one NFA to determinise and minimise over an alphabet.
type compileCase struct {
	name     string
	build    func() *NFA
	alphabet []string
}

// compileCases returns the hand-picked and the seeded random cases of
// TestCompileMatchesOracles.
func compileCases(rng *rand.Rand) []compileCase {
	var cases []compileCase
	query := func(q string, alphabet ...string) {
		e := regex.MustParse(q)
		cases = append(cases, compileCase{q, func() *NFA { return FromRegex(e) }, alphabet})
	}
	// eps, empty and nullable queries.
	query("eps", "a", "b")
	query("empty", "a", "b")
	query("empty")
	query("a*", "a", "b")
	query("(a+eps).b?", "a", "b")
	// Nested stars and a star before a concatenation.
	query("((a*.b)*.c*)*", "a", "b", "c")
	query("(a+b)*.c.d", "a", "b", "c", "d")
	query("(a.(b.a*)*)*.b", "a", "b")
	// Alphabet labels the query does not use; query labels missing from
	// the alphabet.
	query("a", "a", "b", "c", "tram", "bus")
	query("x.y*", "a", "b")
	query("x+a", "a")
	query("bus*.(bus+tram).tram.bus*.(bus+tram)*.(bus+tram).(museum+park)", transportAlphabet...)
	// NFAs of more than 64 states, so a subset spans several words.
	var long []string
	for i := 0; i < 70; i++ {
		long = append(long, []string{"a", "b", "(a+b)", "c*"}[i%4])
	}
	query("("+strings.Join(long, ".")+")*.d", "a", "b", "c", "d")
	query("(a+b)*.a."+strings.Repeat("(a+b).", 3)+"c", "a", "b", "c")
	query(strings.Repeat("(a+b*).", 70)+"c", "a", "b", "c")
	for i := 0; i < 150; i++ {
		query(randomQuery(rng, 4).String(), "a", "b", "c", "d")
	}
	// Prefix-tree acceptors and their quotients, as the learner builds
	// and EquivalentNFA determinises them.
	for i := 0; i < 60; i++ {
		words := make([][]string, 1+rng.Intn(12))
		for j := range words {
			words[j] = randomWord(rng, 7)
		}
		pta := FromWords(words)
		cases = append(cases, compileCase{fmt.Sprintf("pta %d %v", i, words), func() *NFA { return FromWords(words) }, []string{"a", "b", "c", "d"}})
		// Merge a few random pairs; every state maps to its block's root.
		root := make([]State, pta.NumStates())
		for s := range root {
			root[s] = State(s)
		}
		for k := 0; k < 1+rng.Intn(4); k++ {
			a, b := root[rng.Intn(len(root))], root[rng.Intn(len(root))]
			for s := range root {
				if root[s] == a {
					root[s] = b
				}
			}
		}
		partition := map[State]State{}
		for s, r := range root {
			partition[State(s)] = r
		}
		cases = append(cases, compileCase{fmt.Sprintf("quotient %d %v by %v", i, words, partition), func() *NFA { return FromWords(words).Quotient(partition) }, []string{"a", "b", "c"}})
	}
	return cases
}

// randomQuery draws an expression over {a, b, c, d} that may contain eps,
// empty and stars nested to the given depth.
func randomQuery(r *rand.Rand, depth int) *regex.Expr {
	if depth <= 0 {
		switch r.Intn(12) {
		case 0:
			return regex.Eps()
		case 1:
			return regex.Empty()
		}
		return regex.Sym(string(rune('a' + r.Intn(4))))
	}
	switch r.Intn(7) {
	case 0, 1:
		return regex.Concat(randomQuery(r, depth-1), randomQuery(r, depth-1))
	case 2:
		return regex.Union(randomQuery(r, depth-1), randomQuery(r, depth-1))
	case 3:
		return regex.Star(randomQuery(r, depth-1))
	case 4:
		return regex.Plus(randomQuery(r, depth-1))
	case 5:
		return regex.Opt(randomQuery(r, depth-1))
	}
	return randomQuery(r, 0)
}

// TestCompileMatchesOracles checks Determinize and Minimize against the
// map-based reference construction (the same DFAs, state for state) and
// against Brzozowski's double reversal (the same minimal state count and
// language), and checks that compiling one NFA twice, or two NFAs built
// the same way, renders the same DFA.
func TestCompileMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	wide := 0
	for _, c := range compileCases(rng) {
		n := c.build()
		if n.NumStates() > 64 {
			wide++
		}
		d := n.Determinize(c.alphabet)
		if got, want := d.String(), referenceDeterminize(n, c.alphabet).String(); got != want {
			t.Errorf("%s: Determinize\n%s\nreference\n%s", c.name, got, want)
			continue
		}
		m := d.Minimize()
		if got, want := m.String(), referenceMinimize(d).String(); got != want {
			t.Errorf("%s: Minimize\n%s\nreference\n%s", c.name, got, want)
			continue
		}
		bz := n.MinimizeBrzozowski(c.alphabet)
		if m.NumStates() != bz.NumStates() {
			t.Errorf("%s: %d minimal states, Brzozowski %d", c.name, m.NumStates(), bz.NumStates())
		}
		if !Equivalent(m, bz) || !Equivalent(m, d) {
			t.Errorf("%s: minimal DFA changes the language", c.name)
		}
		if again := n.Determinize(c.alphabet).Minimize().String(); again != m.String() {
			t.Errorf("%s: second compilation differs\n%s\nfirst\n%s", c.name, again, m)
		}
		if fresh := c.build().Determinize(c.alphabet).Minimize().String(); fresh != m.String() {
			t.Errorf("%s: compiling a rebuilt NFA differs\n%s\nfirst\n%s", c.name, fresh, m)
		}
	}
	if wide < 2 {
		t.Fatalf("%d NFAs of more than 64 states, want at least 2", wide)
	}
}

// compileAllocBudget bounds the allocations of Determinize plus Minimize on
// a seven-step transport query.
const compileAllocBudget = 40

func TestCompileAllocBudget(t *testing.T) {
	n := FromRegex(regex.MustParse("bus*.(bus+tram).tram.bus*.(bus+tram)*.(bus+tram).(museum+park)"))
	allocs := testing.AllocsPerRun(50, func() {
		n.Determinize(transportAlphabet).Minimize()
	})
	t.Logf("%.0f allocations per Determinize+Minimize", allocs)
	if allocs > compileAllocBudget {
		t.Fatalf("%.0f allocations per Determinize+Minimize, budget %d", allocs, compileAllocBudget)
	}
}
