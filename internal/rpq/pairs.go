package rpq

import (
	"sort"

	"repro/internal/automaton"
	"repro/internal/graph"
)

// The paper uses the unary semantics (a node is selected iff some path
// starting at it matches the query). This file additionally implements the
// standard binary RPQ semantics — the set of node pairs (x, y) connected by
// a path whose word is in L(q) — which downstream users of the library
// typically also need, and which the unary engine's witness machinery is
// built on.

// Pair is an (origin, destination) answer of a binary regular path query.
type Pair struct {
	From graph.NodeID
	To   graph.NodeID
}

// PairsFrom returns the nodes y such that some path from the given node to
// y spells a word of L(q), in sorted order. If the query is nullable the
// node itself is included.
func (e *Engine) PairsFrom(from graph.NodeID) []graph.NodeID {
	ni, ok := e.ix.IndexOf(from)
	if !ok {
		return nil
	}
	S := e.numStates
	es := e.getEval()
	seen, answers := es.seen, es.answers
	count := 0
	startCfg := e.cfg(ni, e.start)
	seen[startCfg>>6] |= 1 << (uint(startCfg) & 63)
	if e.accepting[e.start] {
		answers[ni] = true
		count++
	}
	queue := append(es.queue[:0], int32(startCfg))
	numLabels := e.ix.NumLabels()
	for head := 0; head < len(queue); head++ {
		c := int(queue[head])
		u := int32(c / S)
		s := automaton.State(c % S)
		for gl := 0; gl < numLabels; gl++ {
			outs := e.ix.Out(u, int32(gl))
			if len(outs) == 0 || e.dfaLabel[gl] < 0 {
				continue
			}
			ns := e.dfa.NextByIndex(s, e.dfaLabel[gl])
			acc := e.accepting[ns]
			for _, v := range outs {
				nc := e.cfg(v, ns)
				if seen[nc>>6]&(1<<(uint(nc)&63)) != 0 {
					continue
				}
				seen[nc>>6] |= 1 << (uint(nc) & 63)
				if acc && !answers[v] {
					answers[v] = true
					count++
				}
				queue = append(queue, int32(nc))
			}
		}
	}
	out := make([]graph.NodeID, 0, count)
	n := e.ix.NumNodes()
	for i := 0; i < n; i++ {
		if answers[i] {
			out = append(out, e.ix.NodeAt(int32(i)))
		}
	}
	// Restore the all-zero/all-false invariants before pooling: every seen
	// configuration sits in the queue, and every answer node is the node
	// component of some seen configuration.
	for _, c := range queue {
		seen[c>>6] &^= 1 << (uint(c) & 63)
		answers[int(c)/S] = false
	}
	es.queue = queue[:0]
	e.evalPool.Put(es)
	return out
}

// ConnectsPair reports whether some path from x to y spells a word of
// L(q).
func (e *Engine) ConnectsPair(x, y graph.NodeID) bool {
	for _, to := range e.PairsFrom(x) {
		if to == y {
			return true
		}
	}
	return false
}

// AllPairs returns every (x, y) pair connected by a path in L(q), sorted by
// (From, To). On large graphs this is quadratic in the number of nodes in
// the worst case; callers that only need one origin should use PairsFrom.
func (e *Engine) AllPairs() []Pair {
	var out []Pair
	for _, from := range e.g.Nodes() {
		// Only selected origins can contribute pairs: (x, y) requires a
		// matching path starting at x, which is exactly unary selection.
		if !e.Selects(from) {
			continue
		}
		for _, to := range e.PairsFrom(from) {
			out = append(out, Pair{From: from, To: to})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}
