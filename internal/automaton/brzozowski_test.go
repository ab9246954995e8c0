package automaton

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/regex"
)

// The double-reversal minimiser below is an oracle for the partition
// refinement in Minimize; production code only uses Minimize.

// Reverse returns an NFA accepting the reversal of the language: every
// transition is flipped, the accepting states become start states (joined
// through a fresh ε-source) and the old start state becomes the single
// accepting state.
func (n *NFA) Reverse() *NFA {
	rev := NewNFA()
	// Allocate matching states 1..numStates so that original state s maps
	// to rev state s+1 (state 0 of rev is the fresh start).
	for i := 0; i < n.numStates; i++ {
		rev.AddState()
	}
	mapState := func(s State) State { return s + 1 }
	for from := State(0); from < State(n.numStates); from++ {
		for label, targets := range n.trans[from] {
			for _, to := range targets {
				rev.AddTransition(mapState(to), label, mapState(from))
			}
		}
	}
	for s := range n.accepting {
		rev.AddTransition(rev.Start(), Epsilon, mapState(s))
	}
	rev.SetAccepting(mapState(n.start), true)
	return rev
}

// MinimizeBrzozowski returns the minimal DFA for the NFA's language using
// Brzozowski's double-reversal construction: determinise the reversal, then
// determinise the reversal of that.
func (n *NFA) MinimizeBrzozowski(alphabet []string) *DFA {
	first := n.Reverse().Determinize(alphabet)
	second := dfaToNFA(first).Reverse().Determinize(alphabet)
	// The double-reversal result is deterministic and minimal up to
	// unreachable states; a final reachability-restricted refinement pass
	// also merges the dead states introduced by completion sinks.
	return second.Minimize()
}

// dfaToNFA converts a DFA into an equivalent NFA (a trivial embedding).
func dfaToNFA(d *DFA) *NFA {
	n := NewNFA()
	for i := 1; i < d.NumStates(); i++ {
		n.AddState()
	}
	n.start = d.Start()
	for s := State(0); s < State(d.NumStates()); s++ {
		if d.IsAccepting(s) {
			n.SetAccepting(s, true)
		}
		for _, l := range d.alphabet {
			next, _ := d.Next(s, l)
			n.AddTransition(s, l, next)
		}
	}
	return n
}

func reverseWord(w []string) []string {
	out := make([]string, len(w))
	for i, x := range w {
		out[len(w)-1-i] = x
	}
	return out
}

func TestReverseAcceptsReversedWords(t *testing.T) {
	e := regex.MustParse("a.b.c")
	n := FromRegex(e)
	r := n.Reverse()
	if !r.Accepts([]string{"c", "b", "a"}) {
		t.Fatal("reverse should accept c.b.a")
	}
	if r.Accepts([]string{"a", "b", "c"}) {
		t.Fatal("reverse should reject the original order")
	}
	// Reversal of a star language over a single letter is itself.
	star := FromRegex(regex.MustParse("a*")).Reverse()
	if !star.Accepts(nil) || !star.Accepts([]string{"a", "a"}) {
		t.Fatal("a* reversed is a*")
	}
}

func TestMinimizeBrzozowskiEquivalentToHopcroftStyle(t *testing.T) {
	exprs := []string{
		"a",
		"a.b+a.c",
		"(a+b)*.a.b",
		"a*.b*",
		"a^+",
		"eps",
		"empty",
	}
	alphabet := []string{"a", "b", "c"}
	for _, es := range exprs {
		e := regex.MustParse(es)
		n := FromRegex(e)
		viaSubset := n.Determinize(alphabet).Minimize()
		viaBrzozowski := n.MinimizeBrzozowski(alphabet)
		if !Equivalent(viaSubset, viaBrzozowski) {
			t.Errorf("%q: the two minimisation routes disagree", es)
		}
		if viaBrzozowski.NumStates() > viaSubset.NumStates() {
			t.Errorf("%q: Brzozowski result has %d states, partition refinement %d",
				es, viaBrzozowski.NumStates(), viaSubset.NumStates())
		}
	}
}

func TestMinimizeBrzozowskiOnPTA(t *testing.T) {
	pta := FromWords([][]string{
		{"bus", "tram", "cinema"},
		{"bus", "bus", "cinema"},
		{"cinema"},
	})
	min := pta.MinimizeBrzozowski([]string{"bus", "tram", "cinema"})
	for _, w := range [][]string{{"cinema"}, {"bus", "tram", "cinema"}, {"bus", "bus", "cinema"}} {
		if !min.Accepts(w) {
			t.Errorf("minimal DFA should accept %v", w)
		}
	}
	if min.Accepts([]string{"bus"}) {
		t.Error("minimal DFA should not over-generalise")
	}
	if min.NumStates() > pta.NumStates()+1 {
		t.Errorf("minimal DFA larger than the PTA: %d vs %d", min.NumStates(), pta.NumStates())
	}
}

func TestPropertyReverseTwiceIsIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 3)
		n := FromRegex(e)
		rr := n.Reverse().Reverse()
		for i := 0; i < 8; i++ {
			w := randomWord(r, 4)
			if n.Accepts(w) != rr.Accepts(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyReverseAcceptsMirror(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 3)
		n := FromRegex(e)
		rev := n.Reverse()
		for i := 0; i < 8; i++ {
			w := randomWord(r, 4)
			if n.Accepts(w) != rev.Accepts(reverseWord(w)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBrzozowskiMatchesLanguage(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 3)
		n := FromRegex(e)
		min := n.MinimizeBrzozowski([]string{"a", "b", "c"})
		for i := 0; i < 8; i++ {
			w := randomWord(r, 4)
			if e.Matches(w) != min.Accepts(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
