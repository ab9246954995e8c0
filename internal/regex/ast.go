// Package regex implements regular expressions over edge labels, the query
// language of GPS path queries. An expression denotes a set of label
// sequences (words); a node of a graph database is selected by the query if
// some path starting at that node spells a word of the language.
//
// The syntax follows the paper: concatenation "·" (also accepted as "."),
// union "+" (also accepted as "|"), Kleene star "*", plus "⁺" written "^+"
// or the derived form (e e*), optional "?", the empty word "eps" and the
// empty language "empty". Labels are identifiers such as tram or bus.
package regex

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates AST nodes.
type Kind int

// AST node kinds.
const (
	KindEmpty  Kind = iota // ∅ — the empty language
	KindEps                // ε — the empty word
	KindLabel              // a single edge label
	KindConcat             // r1 · r2 · ... · rn
	KindUnion              // r1 + r2 + ... + rn
	KindStar               // r*
	KindPlus               // r⁺ (one or more)
	KindOpt                // r? (zero or one)
)

// Expr is a regular expression AST node. Expressions are immutable after
// construction; all combinators return fresh nodes.
type Expr struct {
	Kind  Kind
	Label string  // for KindLabel
	Subs  []*Expr // for KindConcat / KindUnion
	Sub   *Expr   // for KindStar / KindPlus / KindOpt
}

// Empty returns the empty-language expression.
func Empty() *Expr { return &Expr{Kind: KindEmpty} }

// Eps returns the empty-word expression.
func Eps() *Expr { return &Expr{Kind: KindEps} }

// Sym returns a single-label expression.
func Sym(label string) *Expr { return &Expr{Kind: KindLabel, Label: label} }

// Concat returns the concatenation of the given expressions, flattening
// nested concatenations and simplifying ε and ∅ units.
func Concat(subs ...*Expr) *Expr {
	var flat []*Expr
	for _, s := range subs {
		if s == nil {
			continue
		}
		switch s.Kind {
		case KindEmpty:
			return Empty()
		case KindEps:
			continue
		case KindConcat:
			flat = append(flat, s.Subs...)
		default:
			flat = append(flat, s)
		}
	}
	switch len(flat) {
	case 0:
		return Eps()
	case 1:
		return flat[0]
	}
	return &Expr{Kind: KindConcat, Subs: flat}
}

// Union returns the union of the given expressions, flattening nested
// unions, dropping ∅ members and deduplicating syntactically equal members.
func Union(subs ...*Expr) *Expr {
	var flat []*Expr
	for _, s := range subs {
		if s == nil {
			continue
		}
		switch s.Kind {
		case KindEmpty:
			continue
		case KindUnion:
			flat = append(flat, s.Subs...)
		default:
			flat = append(flat, s)
		}
	}
	// Deduplicate by canonical string.
	seen := make(map[string]bool)
	var dedup []*Expr
	for _, s := range flat {
		key := s.String()
		if !seen[key] {
			seen[key] = true
			dedup = append(dedup, s)
		}
	}
	switch len(dedup) {
	case 0:
		return Empty()
	case 1:
		return dedup[0]
	}
	// Keep a canonical order so that syntactically equal unions print
	// identically regardless of construction order.
	sort.Slice(dedup, func(i, j int) bool { return dedup[i].String() < dedup[j].String() })
	return &Expr{Kind: KindUnion, Subs: dedup}
}

// Star returns the Kleene closure of the expression.
func Star(sub *Expr) *Expr {
	if sub == nil {
		return Eps()
	}
	switch sub.Kind {
	case KindEmpty, KindEps:
		return Eps()
	case KindStar:
		return sub
	case KindPlus, KindOpt:
		return Star(sub.Sub)
	}
	return &Expr{Kind: KindStar, Sub: sub}
}

// Plus returns the one-or-more closure of the expression.
func Plus(sub *Expr) *Expr {
	if sub == nil {
		return Empty()
	}
	switch sub.Kind {
	case KindEmpty:
		return Empty()
	case KindEps:
		return Eps()
	case KindStar, KindPlus:
		return sub
	}
	return &Expr{Kind: KindPlus, Sub: sub}
}

// Opt returns the zero-or-one closure of the expression.
func Opt(sub *Expr) *Expr {
	if sub == nil {
		return Eps()
	}
	switch sub.Kind {
	case KindEmpty, KindEps:
		return Eps()
	case KindStar, KindOpt:
		return sub
	case KindPlus:
		return Star(sub.Sub)
	}
	return &Expr{Kind: KindOpt, Sub: sub}
}

// Word returns the concatenation of single labels, i.e. the expression
// denoting exactly the given word.
func Word(labels ...string) *Expr {
	subs := make([]*Expr, len(labels))
	for i, l := range labels {
		subs[i] = Sym(l)
	}
	return Concat(subs...)
}

// Nullable reports whether the language contains the empty word.
func (e *Expr) Nullable() bool {
	switch e.Kind {
	case KindEps, KindStar, KindOpt:
		return true
	case KindEmpty, KindLabel:
		return false
	case KindConcat:
		for _, s := range e.Subs {
			if !s.Nullable() {
				return false
			}
		}
		return true
	case KindUnion:
		for _, s := range e.Subs {
			if s.Nullable() {
				return true
			}
		}
		return false
	case KindPlus:
		return e.Sub.Nullable()
	}
	return false
}

// IsEmptyLanguage reports whether the language is empty (contains no word).
func (e *Expr) IsEmptyLanguage() bool {
	switch e.Kind {
	case KindEmpty:
		return true
	case KindEps, KindLabel, KindStar, KindOpt:
		return false
	case KindConcat:
		for _, s := range e.Subs {
			if s.IsEmptyLanguage() {
				return true
			}
		}
		return false
	case KindUnion:
		for _, s := range e.Subs {
			if !s.IsEmptyLanguage() {
				return false
			}
		}
		return true
	case KindPlus:
		return e.Sub.IsEmptyLanguage()
	}
	return true
}

// Labels returns the sorted set of labels mentioned in the expression.
func (e *Expr) Labels() []string {
	set := make(map[string]bool)
	e.collectLabels(set)
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

func (e *Expr) collectLabels(set map[string]bool) {
	switch e.Kind {
	case KindLabel:
		set[e.Label] = true
	case KindConcat, KindUnion:
		for _, s := range e.Subs {
			s.collectLabels(set)
		}
	case KindStar, KindPlus, KindOpt:
		e.Sub.collectLabels(set)
	}
}

// Size returns the number of AST nodes, a rough complexity measure used by
// the experiments (query size).
func (e *Expr) Size() int {
	switch e.Kind {
	case KindEmpty, KindEps, KindLabel:
		return 1
	case KindConcat, KindUnion:
		n := 1
		for _, s := range e.Subs {
			n += s.Size()
		}
		return n
	case KindStar, KindPlus, KindOpt:
		return 1 + e.Sub.Size()
	}
	return 1
}

// String renders the expression using the paper's syntax: union as "+",
// concatenation as ".", closure operators postfix.
func (e *Expr) String() string {
	if e == nil {
		return "empty"
	}
	switch e.Kind {
	case KindEmpty:
		return "empty"
	case KindEps:
		return "eps"
	case KindLabel:
		return e.Label
	case KindConcat:
		parts := make([]string, len(e.Subs))
		for i, s := range e.Subs {
			parts[i] = s.stringIn(KindConcat)
		}
		return strings.Join(parts, ".")
	case KindUnion:
		parts := make([]string, len(e.Subs))
		for i, s := range e.Subs {
			parts[i] = s.stringIn(KindUnion)
		}
		return strings.Join(parts, "+")
	case KindStar:
		return e.Sub.stringIn(KindStar) + "*"
	case KindPlus:
		return e.Sub.stringIn(KindPlus) + "^+"
	case KindOpt:
		return e.Sub.stringIn(KindOpt) + "?"
	}
	return fmt.Sprintf("<bad kind %d>", e.Kind)
}

// stringIn renders the expression as a sub-expression of a parent with the
// given kind, adding parentheses when required by precedence
// (closures > concatenation > union).
func (e *Expr) stringIn(parent Kind) string {
	s := e.String()
	switch parent {
	case KindUnion:
		return s
	case KindConcat:
		if e.Kind == KindUnion {
			return "(" + s + ")"
		}
		return s
	case KindStar, KindPlus, KindOpt:
		if e.Kind == KindUnion || e.Kind == KindConcat {
			return "(" + s + ")"
		}
		return s
	}
	return s
}
