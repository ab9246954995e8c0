package paths

import (
	"sort"

	"repro/internal/graph"
)

// The string-keyed implementations that predated the graph.Indexed port,
// kept verbatim as the reference the equivalence tests in indexed_test.go
// compare against.

func refWords(g *graph.Graph, start graph.NodeID, maxLen int) [][]string {
	if !g.HasNode(start) || maxLen < 0 {
		return nil
	}
	out := [][]string{{}}
	type entry struct {
		word []string
		ends map[graph.NodeID]bool
	}
	current := map[string]*entry{"": {word: nil, ends: map[graph.NodeID]bool{start: true}}}
	for depth := 0; depth < maxLen && len(current) > 0; depth++ {
		next := make(map[string]*entry)
		for _, e := range current {
			for node := range e.ends {
				for _, edge := range g.Out(node) {
					word := append(append([]string(nil), e.word...), string(edge.Label))
					key := WordKey(word)
					ne, ok := next[key]
					if !ok {
						ne = &entry{word: word, ends: make(map[graph.NodeID]bool)}
						next[key] = ne
					}
					ne.ends[edge.To] = true
				}
			}
		}
		for _, e := range next {
			out = append(out, e.word)
		}
		current = next
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return WordKey(out[i]) < WordKey(out[j])
	})
	return out
}

func refHasWord(g *graph.Graph, start graph.NodeID, word []string) bool {
	if !g.HasNode(start) {
		return false
	}
	current := map[graph.NodeID]bool{start: true}
	for _, label := range word {
		next := make(map[graph.NodeID]bool)
		for node := range current {
			for _, e := range g.Out(node) {
				if e.Label == graph.Label(label) {
					next[e.To] = true
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		current = next
	}
	return true
}

// refCoverage is the string-keyed covered-word set.
type refCoverage struct {
	words map[string]bool
}

func newRefCoverage(g *graph.Graph, negatives []graph.NodeID, maxLen int) *refCoverage {
	c := &refCoverage{words: make(map[string]bool)}
	for _, n := range negatives {
		for _, w := range refWords(g, n, maxLen) {
			c.words[WordKey(w)] = true
		}
	}
	return c
}

func (c *refCoverage) covers(word []string) bool { return c.words[WordKey(word)] }

func refCountUncovered(g *graph.Graph, start graph.NodeID, negatives []graph.NodeID, maxLen int) int {
	cov := newRefCoverage(g, negatives, maxLen)
	count := 0
	for _, w := range refWords(g, start, maxLen) {
		if !cov.covers(w) {
			count++
		}
	}
	return count
}
