package automaton

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/regex"
)

func TestNFAFromRegexAcceptsGoalQuery(t *testing.T) {
	q := regex.MustParse("(tram+bus)*.cinema")
	n := FromRegex(q)
	accept := [][]string{
		{"cinema"},
		{"tram", "cinema"},
		{"bus", "tram", "cinema"},
		{"bus", "bus", "bus", "cinema"},
	}
	reject := [][]string{
		{},
		{"tram"},
		{"cinema", "cinema"},
		{"restaurant"},
	}
	for _, w := range accept {
		if !n.Accepts(w) {
			t.Errorf("NFA should accept %v", w)
		}
	}
	for _, w := range reject {
		if n.Accepts(w) {
			t.Errorf("NFA should reject %v", w)
		}
	}
}

func TestNFAClosuresAndClone(t *testing.T) {
	n := NewNFA()
	a := n.AddState()
	b := n.AddState()
	n.AddTransition(n.Start(), Epsilon, a)
	n.AddTransition(a, Epsilon, b)
	n.AddTransition(b, "x", a)
	n.SetAccepting(b, true)
	closure := n.EpsilonClosure([]State{n.Start()})
	if !reflect.DeepEqual(closure, []State{0, 1, 2}) {
		t.Fatalf("closure = %v", closure)
	}
	if !n.Accepts(nil) {
		t.Fatal("empty word should be accepted through epsilon closure")
	}
	if got := n.Labels(); !reflect.DeepEqual(got, []string{"x"}) {
		t.Fatalf("Labels = %v", got)
	}
	if !strings.Contains(n.String(), "ε") {
		t.Fatal("String should render epsilon transitions")
	}
}

func TestNFADuplicateTransitionIgnored(t *testing.T) {
	n := NewNFA()
	s := n.AddState()
	n.AddTransition(n.Start(), "a", s)
	n.AddTransition(n.Start(), "a", s)
	if got := n.Successors(n.Start(), "a"); len(got) != 1 {
		t.Fatalf("duplicate transition stored: %v", got)
	}
}

func TestFromWordsPrefixTreeAcceptor(t *testing.T) {
	words := [][]string{
		{"bus", "tram", "cinema"},
		{"cinema"},
		{"bus", "bus", "cinema"},
	}
	pta := FromWords(words)
	for _, w := range words {
		if !pta.Accepts(w) {
			t.Errorf("PTA should accept %v", w)
		}
	}
	for _, w := range [][]string{{}, {"bus"}, {"bus", "tram"}, {"tram", "cinema"}} {
		if pta.Accepts(w) {
			t.Errorf("PTA should reject %v", w)
		}
	}
	// A PTA over k words with total length L has at most L+1 states.
	if pta.NumStates() > 8 {
		t.Fatalf("PTA has %d states, expected prefix sharing", pta.NumStates())
	}
}

func TestFromWordsEmptyWord(t *testing.T) {
	pta := FromWords([][]string{{}})
	if !pta.Accepts(nil) {
		t.Fatal("PTA of the empty word should accept it")
	}
	if pta.Accepts([]string{"a"}) {
		t.Fatal("PTA should reject other words")
	}
}

func TestDeterminizeMatchesNFA(t *testing.T) {
	exprs := []string{
		"(tram+bus)*.cinema",
		"a.b.c",
		"(a+b)^+",
		"a?.b*",
		"empty",
		"eps",
	}
	words := [][]string{
		{}, {"a"}, {"b"}, {"a", "b"}, {"a", "b", "c"}, {"cinema"},
		{"tram", "cinema"}, {"bus", "bus", "cinema"}, {"a", "a", "b"},
	}
	for _, es := range exprs {
		e := regex.MustParse(es)
		n := FromRegex(e)
		d := n.Determinize([]string{"a", "b", "c", "tram", "bus", "cinema"})
		for _, w := range words {
			if n.Accepts(w) != d.Accepts(w) {
				t.Errorf("expr %q word %v: NFA=%v DFA=%v", es, w, n.Accepts(w), d.Accepts(w))
			}
			if e.Matches(w) != d.Accepts(w) {
				t.Errorf("expr %q word %v: regex=%v DFA=%v", es, w, e.Matches(w), d.Accepts(w))
			}
		}
	}
}

func TestDFAUnknownLabelRejected(t *testing.T) {
	d := FromRegex(regex.MustParse("a*")).Determinize([]string{"a"})
	if d.Accepts([]string{"z"}) {
		t.Fatal("word with unknown label must be rejected")
	}
	if _, ok := d.Next(d.Start(), "z"); ok {
		t.Fatal("Next on unknown label should report !ok")
	}
}

func TestDFASetTransitionPanicsOnUnknownLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d := NewDFA([]string{"a"})
	d.SetTransition(d.Start(), "z", d.Start())
}

func TestMinimizePreservesLanguageAndShrinks(t *testing.T) {
	e := regex.MustParse("(a+b)*.a.(a+b)")
	n := FromRegex(e)
	d := n.Determinize([]string{"a", "b"})
	m := d.Minimize()
	if m.NumStates() > d.NumStates() {
		t.Fatalf("minimize grew the DFA: %d -> %d", d.NumStates(), m.NumStates())
	}
	if !Equivalent(d, m) {
		t.Fatal("minimized DFA not equivalent")
	}
	// The canonical DFA for this language has 4 reachable+distinguishable
	// states plus possibly a sink; allow a small bound.
	if m.NumStates() > 5 {
		t.Fatalf("minimal DFA too large: %d states\n%s", m.NumStates(), m.String())
	}
}

func TestMinimizeEmptyAndUniversal(t *testing.T) {
	empty := FromRegex(regex.Empty()).Determinize([]string{"a"})
	if !empty.IsEmpty() {
		t.Fatal("empty regex should give empty DFA")
	}
	min := empty.Minimize()
	if !min.IsEmpty() || min.NumStates() != 1 {
		t.Fatalf("minimal empty DFA should have 1 state, got %d", min.NumStates())
	}
	all := FromRegex(regex.MustParse("(a+b)*")).Determinize([]string{"a", "b"}).Minimize()
	if all.NumStates() != 1 || !all.Accepts([]string{"a", "b", "a"}) {
		t.Fatalf("universal language should minimize to 1 state, got %d", all.NumStates())
	}
}

func TestBooleanOperations(t *testing.T) {
	a := FromRegex(regex.MustParse("a.b*")).Determinize([]string{"a", "b"})
	b := FromRegex(regex.MustParse("a.b")).Determinize([]string{"a", "b"})
	diff := Difference(a, b)
	if !diff.Accepts([]string{"a"}) || diff.Accepts([]string{"a", "b"}) {
		t.Fatal("difference wrong")
	}
}

func TestSubsetEquivalentCounterExample(t *testing.T) {
	small := FromRegex(regex.MustParse("a.b")).Determinize([]string{"a", "b"})
	big := FromRegex(regex.MustParse("a.b*")).Determinize([]string{"a", "b"})
	if !Subset(small, big) {
		t.Fatal("a.b ⊆ a.b* should hold")
	}
	if Subset(big, small) {
		t.Fatal("a.b* ⊄ a.b")
	}
	if Equivalent(small, big) {
		t.Fatal("languages differ")
	}
	if !EquivalentNFA(FromRegex(regex.MustParse("a.b+a")), FromRegex(regex.MustParse("a.(b+eps)"))) {
		t.Fatal("NFA equivalence wrong")
	}
}

func TestQuotientMergesStates(t *testing.T) {
	// PTA for {a.b, a.c}; merging the two leaves yields the same language.
	pta := FromWords([][]string{{"a", "b"}, {"a", "c"}})
	acc := pta.AcceptingStates()
	if len(acc) != 2 {
		t.Fatalf("expected 2 accepting states, got %v", acc)
	}
	q := pta.Quotient(map[State]State{acc[1]: acc[0]})
	if q.NumStates() != pta.NumStates()-1 {
		t.Fatalf("quotient should drop one state: %d -> %d", pta.NumStates(), q.NumStates())
	}
	for _, w := range [][]string{{"a", "b"}, {"a", "c"}} {
		if !q.Accepts(w) {
			t.Errorf("quotient should still accept %v", w)
		}
	}
	if q.Accepts([]string{"a"}) {
		t.Error("quotient should not accept a")
	}
}

func TestQuotientFollowsChains(t *testing.T) {
	pta := FromWords([][]string{{"a"}, {"b"}, {"c"}})
	acc := pta.AcceptingStates()
	// Chain: acc2 -> acc1 -> acc0.
	q := pta.Quotient(map[State]State{acc[2]: acc[1], acc[1]: acc[0]})
	if q.NumStates() != pta.NumStates()-2 {
		t.Fatalf("chained quotient wrong size: %d", q.NumStates())
	}
	for _, w := range [][]string{{"a"}, {"b"}, {"c"}} {
		if !q.Accepts(w) {
			t.Errorf("quotient should accept %v", w)
		}
	}
}

func TestToRegexRoundTrip(t *testing.T) {
	exprs := []string{
		"a",
		"a.b",
		"a+b",
		"a*",
		"(a+b)*.c",
		"a.(b+c)*.d",
		"a^+",
		"a?",
		"eps",
		"empty",
	}
	for _, es := range exprs {
		e := regex.MustParse(es)
		n := FromRegex(e)
		back := n.ToRegex()
		if !EquivalentNFA(n, FromRegex(back)) {
			t.Errorf("ToRegex of %q produced %q which is not equivalent", es, back.String())
		}
	}
}

func TestToRegexOfPTA(t *testing.T) {
	pta := FromWords([][]string{{"bus", "tram", "cinema"}, {"cinema"}})
	e := pta.ToRegex()
	if !e.Matches([]string{"cinema"}) || !e.Matches([]string{"bus", "tram", "cinema"}) {
		t.Fatalf("PTA regex %q must match the words", e.String())
	}
	if e.Matches([]string{"bus"}) {
		t.Fatalf("PTA regex %q must not over-generalize", e.String())
	}
}

func TestToRegexNoAccepting(t *testing.T) {
	n := NewNFA()
	if n.ToRegex().Kind != regex.KindEmpty {
		t.Fatal("automaton with no accepting state denotes the empty language")
	}
}

// --- property tests -------------------------------------------------------

func randomExpr(r *rand.Rand, depth int) *regex.Expr {
	labels := []string{"a", "b", "c"}
	if depth <= 0 {
		return regex.Sym(labels[r.Intn(len(labels))])
	}
	switch r.Intn(6) {
	case 0:
		return regex.Concat(randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 1:
		return regex.Union(randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 2:
		return regex.Star(randomExpr(r, depth-1))
	case 3:
		return regex.Plus(randomExpr(r, depth-1))
	case 4:
		return regex.Opt(randomExpr(r, depth-1))
	default:
		return regex.Sym(labels[r.Intn(len(labels))])
	}
}

func randomWord(r *rand.Rand, maxLen int) []string {
	labels := []string{"a", "b", "c"}
	w := make([]string, r.Intn(maxLen+1))
	for i := range w {
		w[i] = labels[r.Intn(len(labels))]
	}
	return w
}

func TestPropertyNFAMatchesDerivatives(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 3)
		n := FromRegex(e)
		for i := 0; i < 8; i++ {
			w := randomWord(r, 5)
			if n.Accepts(w) != e.Matches(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDeterminizeMinimizePreserve(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 3)
		n := FromRegex(e)
		d := n.Determinize([]string{"a", "b", "c"})
		m := d.Minimize()
		for i := 0; i < 8; i++ {
			w := randomWord(r, 5)
			want := e.Matches(w)
			if d.Accepts(w) != want || m.Accepts(w) != want {
				return false
			}
		}
		return m.NumStates() <= d.NumStates()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyToRegexPreservesLanguage(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 2)
		n := FromRegex(e)
		back := n.ToRegex()
		for i := 0; i < 8; i++ {
			w := randomWord(r, 4)
			if e.Matches(w) != back.Matches(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQuotientOnlyGeneralizes(t *testing.T) {
	// Merging states can only grow the language: every originally accepted
	// word must still be accepted.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var words [][]string
		for i := 0; i < 4; i++ {
			words = append(words, randomWord(r, 4))
		}
		pta := FromWords(words)
		if pta.NumStates() < 2 {
			return true
		}
		a := State(r.Intn(pta.NumStates()))
		b := State(r.Intn(pta.NumStates()))
		if a == b {
			return true
		}
		q := pta.Quotient(map[State]State{b: a})
		for _, w := range words {
			if !q.Accepts(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Accepts reports whether the DFA accepts the word. Words containing labels
// outside the alphabet are rejected.
func (d *DFA) Accepts(word []string) bool {
	cur := d.start
	for _, label := range word {
		next, ok := d.Next(cur, label)
		if !ok {
			return false
		}
		cur = next
	}
	return d.accepting[cur]
}

// Accepts reports whether the NFA accepts the word.
func (n *NFA) Accepts(word []string) bool {
	current := n.EpsilonClosure([]State{n.start})
	for _, label := range word {
		nextSet := make(map[State]bool)
		for _, s := range current {
			for _, t := range n.trans[s][label] {
				nextSet[t] = true
			}
		}
		if len(nextSet) == 0 {
			return false
		}
		next := make([]State, 0, len(nextSet))
		for s := range nextSet {
			next = append(next, s)
		}
		current = n.EpsilonClosure(next)
	}
	for _, s := range current {
		if n.accepting[s] {
			return true
		}
	}
	return false
}
