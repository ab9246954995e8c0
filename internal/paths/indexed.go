package paths

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// This file holds the integer-indexed hot path of the package: word
// enumeration and coverage run as sweeps over graph.Indexed instead
// of map-of-NodeID walks keyed by joined label strings. The string-keyed
// originals survive as the reference implementation in reference_test.go,
// which pins equivalence on randomized graphs.

// nodeSet is a fixed-size bitset over dense node indices.
type nodeSet []uint64

func newNodeSet(n int) nodeSet { return make(nodeSet, (n+63)/64) }

func (s nodeSet) add(i int32) { s[i>>6] |= 1 << (uint(i) & 63) }

func (s nodeSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// forEach calls fn for every set index in ascending order.
func (s nodeSet) forEach(fn func(i int32)) {
	for wi, w := range s {
		for w != 0 {
			fn(int32(wi<<6 + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// packWord renders a label-index word as a comparable map key.
func packWord(word []int32) string {
	buf := make([]byte, 4*len(word))
	for i, l := range word {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(l))
	}
	return string(buf)
}

// wordStrings converts a label-index word back to label strings.
func wordStrings(ix *graph.Indexed, word []int32) []string {
	out := make([]string, len(word))
	for i, l := range word {
		out[i] = string(ix.LabelAt(l))
	}
	return out
}

// forEachWord enumerates the distinct non-empty words of 1..maxLen edges
// starting at the dense node index start, breadth first, calling fn with
// each word's packed key and label indices. Like the reference Words, each
// distinct word is tracked once together with the sorted, deduplicated set
// of nodes it can end in, so the cost is bounded by distinct words times
// end-set size rather than by the (possibly exponential) number of paths.
func forEachWord(ix *graph.Indexed, start int32, maxLen int, fn func(key string, word []int32)) {
	numLabels := int32(ix.NumLabels())
	type entry struct {
		word []int32
		ends []int32
	}
	current := []entry{{ends: []int32{start}}}
	for depth := 0; depth < maxLen && len(current) > 0; depth++ {
		var next []entry
		for _, e := range current {
			for l := int32(0); l < numLabels; l++ {
				ends := step(ix, e.ends, l)
				if len(ends) == 0 {
					continue
				}
				// Distinct parent words yield distinct child words, so no
				// per-level dedup map is needed: the parent already merged
				// every end node of its word.
				word := make([]int32, len(e.word)+1)
				copy(word, e.word)
				word[len(e.word)] = l
				fn(packWord(word), word)
				next = append(next, entry{word: word, ends: ends})
			}
		}
		current = next
	}
}

// step returns the sorted, deduplicated l-successors of the nodes; nil when
// there are none.
func step(ix *graph.Indexed, nodes []int32, l int32) []int32 {
	var out []int32
	for _, node := range nodes {
		out = append(out, ix.Out(node, l)...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
