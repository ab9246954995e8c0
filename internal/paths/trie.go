package paths

import (
	"fmt"
	"sort"
	"strings"
)

// Trie is a prefix tree of words. GPS presents the (uncovered) words of a
// positive node as a prefix tree and highlights a candidate word for the
// user to validate or correct (Figure 3(c)).
type Trie struct {
	root *trieNode
	size int // number of stored words
}

type trieNode struct {
	children map[string]*trieNode
	terminal bool
}

// NewTrie returns an empty prefix tree.
func NewTrie() *Trie {
	return &Trie{root: &trieNode{children: make(map[string]*trieNode)}}
}

// BuildTrie returns a prefix tree containing the given words.
func BuildTrie(words [][]string) *Trie {
	t := NewTrie()
	for _, w := range words {
		t.Insert(w)
	}
	return t
}

// Insert adds a word; duplicates are ignored.
func (t *Trie) Insert(word []string) {
	cur := t.root
	for _, label := range word {
		next, ok := cur.children[label]
		if !ok {
			next = &trieNode{children: make(map[string]*trieNode)}
			cur.children[label] = next
		}
		cur = next
	}
	if !cur.terminal {
		cur.terminal = true
		t.size++
	}
}

// Len returns the number of stored words.
func (t *Trie) Len() int { return t.size }

// Words returns the stored words sorted by length then lexicographically.
func (t *Trie) Words() [][]string {
	var out [][]string
	var walk func(node *trieNode, prefix []string)
	walk = func(node *trieNode, prefix []string) {
		if node.terminal {
			out = append(out, append([]string(nil), prefix...))
		}
		labels := make([]string, 0, len(node.children))
		for l := range node.children {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			walk(node.children[l], append(prefix, l))
		}
	}
	walk(t.root, nil)
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return WordKey(out[i]) < WordKey(out[j])
	})
	return out
}

// LongestWithin returns the longest stored word of length at most maxLen,
// preferring exactly maxLen, and ok=false if no stored word fits the bound.
func (t *Trie) LongestWithin(maxLen int) ([]string, bool) {
	var best []string
	found := false
	for _, w := range t.Words() {
		if len(w) > maxLen {
			continue
		}
		if !found || len(w) > len(best) {
			best, found = w, true
		}
	}
	return best, found
}

// Render pretty-prints the prefix tree with one branch per line, marking
// terminal words with "●" and the highlighted word with "◀ candidate".
// It is the text stand-in for the paper's Figure 3(c) widget.
func (t *Trie) Render(highlight []string) string {
	var sb strings.Builder
	highlightKey := WordKey(highlight)
	var walk func(node *trieNode, prefix []string, indent string)
	walk = func(node *trieNode, prefix []string, indent string) {
		labels := make([]string, 0, len(node.children))
		for l := range node.children {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for i, l := range labels {
			child := node.children[l]
			connector := "├─"
			nextIndent := indent + "│ "
			if i == len(labels)-1 {
				connector = "└─"
				nextIndent = indent + "  "
			}
			word := append(prefix, l)
			marker := ""
			if child.terminal {
				marker = " ●"
				if highlight != nil && WordKey(word) == highlightKey {
					marker += " ◀ candidate"
				}
			}
			fmt.Fprintf(&sb, "%s%s %s%s\n", indent, connector, l, marker)
			walk(child, word, nextIndent)
		}
	}
	if t.root.terminal {
		sb.WriteString("(empty word) ●\n")
	}
	walk(t.root, nil, "")
	return sb.String()
}
