package regex

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAndPrintGoalQuery(t *testing.T) {
	// The paper's running query: (tram+bus)*.cinema
	e, err := Parse("(tram+bus)*.cinema")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if e.String() != "(bus+tram)*.cinema" && e.String() != "(tram+bus)*.cinema" {
		t.Fatalf("String = %q", e.String())
	}
	if e.Kind != KindConcat {
		t.Fatalf("top kind = %v", e.Kind)
	}
}

func TestParseOperatorsAndAliases(t *testing.T) {
	cases := []struct {
		in, out string
	}{
		{"a", "a"},
		{"a.b", "a.b"},
		{"a·b", "a.b"},
		{"a b", "a.b"},
		{"a+b", "a+b"},
		{"a|b", "a+b"},
		{"a*", "a*"},
		{"a^+", "a^+"},
		{"a?", "a?"},
		{"eps", "eps"},
		{"ε", "eps"},
		{"empty", "empty"},
		{"∅", "empty"},
		{"(a+b).c", "(a+b).c"},
		{"a+b.c", "a+b.c"},
		{"(a.b)*", "(a.b)*"},
		{"a**", "a*"},
		{"(a*)?", "a*"},
		{"(a?)*", "a*"},
		{"(a^+)*", "a*"},
		{"a+empty", "a"},
		{"a.eps", "a"},
		{"a.empty", "empty"},
		{"eps*", "eps"},
		{"empty*", "eps"},
		{"a+a", "a"},
		{"b+a", "a+b"},
	}
	for _, c := range cases {
		e, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if e.String() != c.out {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, e.String(), c.out)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"", "   ", "(", "a+(b", "a)", "*a", "+a", "a +", "a^", "a^b", "a $ b", "()",
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) should fail", c)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on invalid input")
		}
	}()
	MustParse("((")
}

func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		"(tram+bus)*.cinema",
		"a.b.c+d*",
		"(a+b.c)^+.d?",
		"((a+b)*.c)+eps",
	}
	for _, in := range inputs {
		e := MustParse(in)
		back := MustParse(e.String())
		if e.String() != back.String() {
			t.Errorf("round trip of %q: %q != %q", in, e.String(), back.String())
		}
	}
}

func TestNullable(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"eps", true},
		{"empty", false},
		{"a", false},
		{"a*", true},
		{"a?", true},
		{"a^+", false},
		{"a.b", false},
		{"a*.b*", true},
		{"a+b*", true},
		{"a+b", false},
		{"(a.b)*", true},
	}
	for _, c := range cases {
		if got := MustParse(c.in).Nullable(); got != c.want {
			t.Errorf("Nullable(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestIsEmptyLanguage(t *testing.T) {
	if !Empty().IsEmptyLanguage() {
		t.Fatal("Empty should be empty language")
	}
	if Eps().IsEmptyLanguage() {
		t.Fatal("Eps is not the empty language")
	}
	if Concat(Sym("a"), Empty()).Kind != KindEmpty {
		t.Fatal("concat with empty should simplify to empty")
	}
	// Without simplification the raw node must still report emptiness.
	raw := &Expr{Kind: KindConcat, Subs: []*Expr{Sym("a"), Empty()}}
	if !raw.IsEmptyLanguage() {
		t.Fatal("raw concat with empty member should be empty")
	}
	rawUnion := &Expr{Kind: KindUnion, Subs: []*Expr{Empty(), Empty()}}
	if !rawUnion.IsEmptyLanguage() {
		t.Fatal("union of empties should be empty")
	}
	rawPlus := &Expr{Kind: KindPlus, Sub: Empty()}
	if !rawPlus.IsEmptyLanguage() {
		t.Fatal("plus of empty should be empty")
	}
}

func TestLabelsAndSize(t *testing.T) {
	e := MustParse("(tram+bus)*.cinema")
	if got := e.Labels(); !reflect.DeepEqual(got, []string{"bus", "cinema", "tram"}) {
		t.Fatalf("Labels = %v", got)
	}
	if e.Size() < 5 {
		t.Fatalf("Size = %d, expected at least 5", e.Size())
	}
	if Sym("a").Size() != 1 || Eps().Size() != 1 {
		t.Fatal("leaf sizes should be 1")
	}
}

func TestWordConstructor(t *testing.T) {
	e := Word("bus", "tram", "cinema")
	if e.String() != "bus.tram.cinema" {
		t.Fatalf("Word = %q", e.String())
	}
	if Word().Kind != KindEps {
		t.Fatal("empty Word should be eps")
	}
}

func TestMatchesGoalQuery(t *testing.T) {
	q := MustParse("(tram+bus)*.cinema")
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
		{"tram", "restaurant", "cinema"},
	}
	for _, w := range accept {
		if !q.Matches(w) {
			t.Errorf("should accept %v", w)
		}
	}
	for _, w := range reject {
		if q.Matches(w) {
			t.Errorf("should reject %v", w)
		}
	}
}

func TestMatchesClosures(t *testing.T) {
	cases := []struct {
		expr string
		word []string
		want bool
	}{
		{"a^+", []string{}, false},
		{"a^+", []string{"a"}, true},
		{"a^+", []string{"a", "a", "a"}, true},
		{"a?", []string{}, true},
		{"a?", []string{"a"}, true},
		{"a?", []string{"a", "a"}, false},
		{"eps", []string{}, true},
		{"eps", []string{"a"}, false},
		{"empty", []string{}, false},
		{"(a.b)*", []string{"a", "b", "a", "b"}, true},
		{"(a.b)*", []string{"a", "b", "a"}, false},
		{"a.b+c", []string{"c"}, true},
		{"a.(b+c)", []string{"a", "c"}, true},
	}
	for _, c := range cases {
		if got := MustParse(c.expr).Matches(c.word); got != c.want {
			t.Errorf("Matches(%q, %v) = %v, want %v", c.expr, c.word, got, c.want)
		}
	}
}

func TestSmartConstructorsEdgeCases(t *testing.T) {
	if Concat().Kind != KindEps {
		t.Fatal("empty concat = eps")
	}
	if Union().Kind != KindEmpty {
		t.Fatal("empty union = empty")
	}
	if Star(nil).Kind != KindEps || Opt(nil).Kind != KindEps {
		t.Fatal("closure of nil should be eps")
	}
	if Plus(nil).Kind != KindEmpty {
		t.Fatal("plus of nil should be empty")
	}
	if Concat(nil, Sym("a"), nil).String() != "a" {
		t.Fatal("nil members should be skipped")
	}
	if Union(Sym("a"), nil, Empty()).String() != "a" {
		t.Fatal("nil and empty union members should be skipped")
	}
	if Plus(Star(Sym("a"))).String() != "a*" {
		t.Fatal("plus of star is star")
	}
	if Opt(Plus(Sym("a"))).String() != "a*" {
		t.Fatal("opt of plus is star")
	}
}

// randomExpr builds a random expression of bounded depth over a small
// alphabet for property tests.
func randomExpr(r *rand.Rand, depth int) *Expr {
	labels := []string{"a", "b", "c"}
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return Eps()
		default:
			return Sym(labels[r.Intn(len(labels))])
		}
	}
	switch r.Intn(6) {
	case 0:
		return Concat(randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 1:
		return Union(randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 2:
		return Star(randomExpr(r, depth-1))
	case 3:
		return Plus(randomExpr(r, depth-1))
	case 4:
		return Opt(randomExpr(r, depth-1))
	default:
		return Sym(labels[r.Intn(len(labels))])
	}
}

func randomWord(r *rand.Rand, maxLen int) []string {
	labels := []string{"a", "b", "c"}
	n := r.Intn(maxLen + 1)
	w := make([]string, n)
	for i := range w {
		w[i] = labels[r.Intn(len(labels))]
	}
	return w
}

func TestPropertyParsePrintRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 4)
		back, err := Parse(e.String())
		if err != nil {
			return false
		}
		return e.String() == back.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDerivativeConsistentWithNullable(t *testing.T) {
	// w ∈ L(e) iff the derivative of e by w is nullable; check that the
	// match result is stable under re-parsing the printed expression.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 4)
		w := randomWord(r, 5)
		reparsed := MustParse(e.String())
		return e.Matches(w) == reparsed.Matches(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUnionIsOr(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomExpr(r, 3), randomExpr(r, 3)
		w := randomWord(r, 4)
		return Union(a, b).Matches(w) == (a.Matches(w) || b.Matches(w))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStarAbsorbsRepetition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomExpr(r, 2)
		w := randomWord(r, 3)
		star := Star(a)
		// If w in L(a*) then ww in L(a*).
		if star.Matches(w) {
			ww := append(append([]string{}, w...), w...)
			return star.Matches(ww)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyConcatSplits(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomExpr(r, 2), randomExpr(r, 2)
		wa, wb := randomWord(r, 3), randomWord(r, 3)
		if a.Matches(wa) && b.Matches(wb) {
			return Concat(a, b).Matches(append(append([]string{}, wa...), wb...))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStringPrecedence(t *testing.T) {
	// (a+b).c must keep its parentheses; a.b+c must not gain them.
	if got := MustParse("(a+b).c").String(); got != "(a+b).c" {
		t.Fatalf("got %q", got)
	}
	if got := MustParse("a.b+c").String(); strings.Contains(got, "(") {
		t.Fatalf("got %q, expected no parentheses", got)
	}
	if got := MustParse("(a.b)*").String(); got != "(a.b)*" {
		t.Fatalf("got %q", got)
	}
	var nilExpr *Expr
	if got := nilExpr.String(); got != "empty" {
		t.Fatalf("nil String = %q, want empty", got)
	}
}
