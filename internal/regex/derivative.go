package regex

// Brzozowski derivatives give a direct word-membership test on the AST,
// independent of the automaton package. The learner and the RPQ engine use
// automata for bulk evaluation; derivatives serve as a cross-check in
// property tests and as a lightweight matcher for short words (prefix-tree
// highlighting).

// Derivative returns the Brzozowski derivative of the expression with
// respect to the given label: the language { w | label·w ∈ L(e) }.
func (e *Expr) Derivative(label string) *Expr {
	switch e.Kind {
	case KindEmpty, KindEps:
		return Empty()
	case KindLabel:
		if e.Label == label {
			return Eps()
		}
		return Empty()
	case KindConcat:
		// d(r1 r2...rn) = d(r1) r2...rn  +  [r1 nullable] d(r2...rn)
		head := e.Subs[0]
		tail := Concat(e.Subs[1:]...)
		first := Concat(head.Derivative(label), tail)
		if head.Nullable() {
			return Union(first, tail.Derivative(label))
		}
		return first
	case KindUnion:
		subs := make([]*Expr, len(e.Subs))
		for i, s := range e.Subs {
			subs[i] = s.Derivative(label)
		}
		return Union(subs...)
	case KindStar:
		return Concat(e.Sub.Derivative(label), Star(e.Sub))
	case KindPlus:
		return Concat(e.Sub.Derivative(label), Star(e.Sub))
	case KindOpt:
		return e.Sub.Derivative(label)
	}
	return Empty()
}

// Matches reports whether the word (a sequence of labels) belongs to the
// language of the expression.
func (e *Expr) Matches(word []string) bool {
	cur := e
	for _, label := range word {
		cur = cur.Derivative(label)
		if cur.Kind == KindEmpty {
			return false
		}
	}
	return cur.Nullable()
}
