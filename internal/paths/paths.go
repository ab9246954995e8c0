// Package paths enumerates bounded-length paths of graph nodes, organises
// them in prefix trees (the structure shown to the user for path
// validation, Figure 3(c) of the paper) and decides coverage of a path by
// negative examples.
//
// Terminology follows the paper: a *path of node v* is a directed walk
// starting at v; its *word* is the sequence of edge labels along it. A word
// w of a positive node is *covered* by a negative node u if u also has a
// path spelling w — requiring w in the learned query would then wrongly
// select u.
package paths

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/graph"
)

// Path is a walk in the graph: the start node plus the traversed edges.
type Path struct {
	Start graph.NodeID
	Edges []graph.Edge
}

// String renders the path as "v0 -a-> v1 -b-> v2".
func (p Path) String() string {
	if len(p.Edges) == 0 {
		return string(p.Start)
	}
	var sb strings.Builder
	sb.WriteString(string(p.Start))
	for _, e := range p.Edges {
		sb.WriteString(" -")
		sb.WriteString(string(e.Label))
		sb.WriteString("-> ")
		sb.WriteString(string(e.To))
	}
	return sb.String()
}

// WordKey renders a word as a single comparable string.
func WordKey(word []string) string { return strings.Join(word, ".") }

// Words returns the distinct words (label sequences) of paths of node start
// with 0..maxLen edges, sorted by length then lexicographically. The empty
// word (the length-0 path that every existing node has) is always included;
// it matters for informativeness: a node with no outgoing edge still
// carries one bit of information until a negative example covers the empty
// word.
//
// Words deduplicates level by level: each distinct word is tracked together
// with the set of nodes it can end in, so the cost is bounded by the number
// of distinct words times their end-set sizes, not by the number of paths,
// which can grow exponentially with maxLen.
func Words(g *graph.Graph, start graph.NodeID, maxLen int) [][]string {
	ix := g.Indexed()
	si, ok := ix.IndexOf(start)
	if !ok || maxLen < 0 {
		return nil
	}
	out := [][]string{{}}
	forEachWord(ix, si, maxLen, func(_ string, word []int32) {
		out = append(out, wordStrings(ix, word))
	})
	sortWords(out)
	return out
}

// sortWords orders words by length then lexicographically by WordKey.
func sortWords(words [][]string) {
	sort.Slice(words, func(i, j int) bool {
		if len(words[i]) != len(words[j]) {
			return len(words[i]) < len(words[j])
		}
		return WordKey(words[i]) < WordKey(words[j])
	})
}

// HasWord reports whether node start has a path spelling exactly the word.
// The empty word is always present. It walks the word forward over the
// sorted, deduplicated set of nodes each prefix can end in, so its cost is
// bounded by the word length times those sets' sizes, not by the graph size.
func HasWord(g *graph.Graph, start graph.NodeID, word []string) bool {
	ix := g.Indexed()
	si, ok := ix.IndexOf(start)
	if !ok {
		return false
	}
	// Two stack buffers hold the end sets in turn, so a walk whose end sets
	// stay small allocates nothing.
	var bufA, bufB [16]int32
	current, spare := append(bufA[:0], si), bufB[:0]
	for _, label := range word {
		li, ok := ix.LabelIndexOf(graph.Label(label))
		if !ok {
			return false
		}
		next := spare[:0]
		for _, node := range current {
			next = append(next, ix.Out(node, li)...)
		}
		if len(next) == 0 {
			return false
		}
		slices.Sort(next)
		current, spare = slices.Compact(next), current
	}
	return true
}

// StartSet is the set of nodes that have a path spelling a fixed word,
// produced by StartsOfWord.
type StartSet struct {
	ix *graph.Indexed
	// bits is nil for the empty word, which every existing node spells.
	bits nodeSet
}

// Has reports whether the node belongs to the set. Nodes absent from the
// graph are never members.
func (s StartSet) Has(node graph.NodeID) bool {
	i, ok := s.ix.IndexOf(node)
	if !ok {
		return false
	}
	if s.bits == nil {
		return true
	}
	return s.bits[i>>6]&(1<<(uint(i)&63)) != 0
}

// StartsOfWord computes the set of nodes that have a path spelling exactly
// the word — the same predicate as HasWord, answered for every node at
// once. It sweeps the word backwards: level i is the bitset of nodes that
// can spell the suffix word[i:], obtained by taking the word[i]-
// predecessors of level i+1. One sweep costs O(len(word) · edges) total,
// where probing HasWord node by node pays that much per node.
func StartsOfWord(g *graph.Graph, word []string) StartSet {
	ix := g.Indexed()
	s := StartSet{ix: ix}
	if len(word) == 0 {
		return s
	}
	n := ix.NumNodes()
	var current nodeSet
	for i := len(word) - 1; i >= 0; i-- {
		li, ok := ix.LabelIndexOf(graph.Label(word[i]))
		if !ok {
			// The label never occurs in the graph: no node spells the word.
			return StartSet{ix: ix, bits: newNodeSet(n)}
		}
		next := newNodeSet(n)
		if current == nil {
			// Innermost level: any node with an outgoing word[i] edge spells
			// the one-label suffix.
			for v := int32(0); v < int32(n); v++ {
				if len(ix.Out(v, li)) > 0 {
					next.add(v)
				}
			}
		} else {
			current.forEach(func(node int32) {
				for _, p := range ix.In(node, li) {
					next.add(p)
				}
			})
		}
		if next.empty() {
			return StartSet{ix: ix, bits: next}
		}
		current = next
	}
	return StartSet{ix: ix, bits: current}
}

// Covered reports whether the word is covered by at least one of the
// negative nodes, i.e. some negative node also has a path spelling it.
func Covered(g *graph.Graph, word []string, negatives []graph.NodeID) bool {
	for _, n := range negatives {
		if HasWord(g, n, word) {
			return true
		}
	}
	return false
}

// Coverage is the precomputed set of words (up to a length bound) covered
// by a set of negative nodes. Interactive strategies and pruning test many
// nodes against the same negatives, so computing the covered set once and
// reusing it avoids re-walking the graph per candidate word. The covered
// words are keyed by packed label indices of the Indexed view the coverage
// was built on, so probing never joins label strings.
type Coverage struct {
	maxLen int
	ix     *graph.Indexed
	// empty reports whether the empty word is covered, i.e. at least one
	// negative node exists in the graph (every existing node has the empty
	// word).
	empty bool
	words map[string]bool
}

// NewCoverage precomputes the words of length at most maxLen covered by the
// negative nodes.
func NewCoverage(g *graph.Graph, negatives []graph.NodeID, maxLen int) *Coverage {
	ix := g.Indexed()
	c := &Coverage{maxLen: maxLen, ix: ix, words: make(map[string]bool)}
	if maxLen < 0 {
		return c
	}
	for _, n := range negatives {
		si, ok := ix.IndexOf(n)
		if !ok {
			continue
		}
		c.empty = true
		forEachWord(ix, si, maxLen, func(key string, _ []int32) {
			c.words[key] = true
		})
	}
	return c
}

// packStrings converts a word of label strings to its packed-index key;
// ok=false means some label does not occur in the graph (no node can cover
// such a word).
func (c *Coverage) packStrings(word []string) (string, bool) {
	idx := make([]int32, len(word))
	for i, label := range word {
		l, ok := c.ix.LabelIndexOf(graph.Label(label))
		if !ok {
			return "", false
		}
		idx[i] = l
	}
	return packWord(idx), true
}

// Covers reports whether the word (of length at most the coverage bound) is
// covered by one of the negative nodes.
func (c *Coverage) Covers(word []string) bool {
	if len(word) == 0 {
		return c.empty
	}
	key, ok := c.packStrings(word)
	return ok && c.words[key]
}

// SmallestUncoveredWith returns a shortest word of node start (with
// 0..maxLen edges) that cov does not cover; cov must be built at a bound of
// at least maxLen. Ties are broken lexicographically. ok=false means every
// word up to the bound is covered (the node is uninformative at this
// bound). Callers choosing witnesses for many nodes share one cov.
func SmallestUncoveredWith(g *graph.Graph, start graph.NodeID, maxLen int, cov *Coverage) ([]string, bool) {
	for _, w := range Words(g, start, maxLen) {
		if !cov.Covers(w) {
			return w, true
		}
	}
	return nil, false
}

// UncoveredWords returns every word of node start with 0..maxLen edges not
// covered by any negative node, sorted by length then lexicographically.
func UncoveredWords(g *graph.Graph, start graph.NodeID, negatives []graph.NodeID, maxLen int) [][]string {
	return UncoveredWordsWith(g, start, maxLen, NewCoverage(g, negatives, maxLen))
}

// UncoveredWordsWith is UncoveredWords with a caller-provided Coverage,
// letting callers that scan many nodes share one covered-word set.
func UncoveredWordsWith(g *graph.Graph, start graph.NodeID, maxLen int, cov *Coverage) [][]string {
	ix := g.Indexed()
	si, ok := ix.IndexOf(start)
	if !ok || maxLen < 0 {
		return nil
	}
	sameView := cov.ix == ix
	var out [][]string
	if !cov.Covers(nil) {
		out = append(out, []string{})
	}
	forEachWord(ix, si, maxLen, func(key string, word []int32) {
		if sameView {
			if !cov.words[key] {
				out = append(out, wordStrings(ix, word))
			}
		} else if w := wordStrings(ix, word); !cov.Covers(w) {
			out = append(out, w)
		}
	})
	sortWords(out)
	return out
}

// CountUncoveredWith returns the number of words of node start with
// 0..maxLen edges that cov does not cover. It is the node informativeness
// measure used by the interactive strategy: a node whose count is zero is
// uninformative in the sense of the paper (all its paths, including the
// empty one, are covered by negative examples). It is the strategy hot
// path (called once per candidate node per proposal), so when the coverage
// was built on the same Indexed view it counts packed word keys directly
// without materialising any label strings.
func CountUncoveredWith(g *graph.Graph, start graph.NodeID, maxLen int, cov *Coverage) int {
	ix := g.Indexed()
	si, ok := ix.IndexOf(start)
	if !ok || maxLen < 0 {
		return 0
	}
	sameView := cov.ix == ix
	count := 0
	if !cov.Covers(nil) {
		count++
	}
	forEachWord(ix, si, maxLen, func(key string, word []int32) {
		if sameView {
			if !cov.words[key] {
				count++
			}
		} else if !cov.Covers(wordStrings(ix, word)) {
			count++
		}
	})
	return count
}
