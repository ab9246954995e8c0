package automaton

import "sort"

// mergedAlphabet returns the union of two alphabets in sorted order.
func mergedAlphabet(a, b []string) []string {
	set := make(map[string]bool, len(a)+len(b))
	for _, l := range a {
		set[l] = true
	}
	for _, l := range b {
		set[l] = true
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// expand returns a DFA over the larger alphabet that accepts the same
// language as d: new labels lead to a fresh rejecting sink.
func (d *DFA) expand(alphabet []string) *DFA {
	same := len(alphabet) == len(d.alphabet)
	if same {
		for i := range alphabet {
			if alphabet[i] != d.alphabet[i] {
				same = false
				break
			}
		}
	}
	if same {
		return d
	}
	out := NewDFA(alphabet)
	// Map old states to new: state i -> i (allocate as needed), plus sink.
	for out.NumStates() < d.NumStates() {
		out.AddState()
	}
	sink := out.AddState()
	for _, l := range alphabet {
		out.SetTransition(sink, l, sink)
	}
	for s := State(0); s < State(d.NumStates()); s++ {
		if d.accepting[s] {
			out.SetAccepting(s, true)
		}
		for _, l := range alphabet {
			if next, ok := d.Next(s, l); ok && containsLabel(d.alphabet, l) {
				out.SetTransition(s, l, next)
			} else {
				out.SetTransition(s, l, sink)
			}
		}
	}
	out.SetStart(d.start)
	return out
}

func containsLabel(labels []string, l string) bool {
	for _, x := range labels {
		if x == l {
			return true
		}
	}
	return false
}

// Difference returns a DFA accepting L(a) \ L(b): the product of a and b
// over the union of their alphabets, accepting where a accepts and b does
// not.
func Difference(a, b *DFA) *DFA {
	alphabet := mergedAlphabet(a.alphabet, b.alphabet)
	a = a.expand(alphabet)
	b = b.expand(alphabet)
	out := NewDFA(alphabet)
	type pair struct{ x, y State }
	ids := map[pair]State{{a.start, b.start}: out.start}
	queue := []pair{{a.start, b.start}}
	setAccept := func(p pair, s State) {
		if a.accepting[p.x] && !b.accepting[p.y] {
			out.SetAccepting(s, true)
		}
	}
	setAccept(pair{a.start, b.start}, out.start)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		curID := ids[cur]
		for _, l := range alphabet {
			nx, _ := a.Next(cur.x, l)
			ny, _ := b.Next(cur.y, l)
			np := pair{nx, ny}
			id, ok := ids[np]
			if !ok {
				id = out.AddState()
				ids[np] = id
				setAccept(np, id)
				queue = append(queue, np)
			}
			out.SetTransition(curID, l, id)
		}
	}
	return out
}

// Subset reports whether L(a) ⊆ L(b).
func Subset(a, b *DFA) bool {
	return Difference(a, b).IsEmpty()
}

// Equivalent reports whether the two DFAs accept the same language.
func Equivalent(a, b *DFA) bool {
	return Subset(a, b) && Subset(b, a)
}

// EquivalentNFA reports whether the two NFAs accept the same language.
func EquivalentNFA(a, b *NFA) bool {
	alphabet := mergedAlphabet(a.Labels(), b.Labels())
	return Equivalent(a.Determinize(alphabet), b.Determinize(alphabet))
}
