package automaton

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// DFA is a deterministic finite automaton over an explicit alphabet. Every
// state has exactly one successor per alphabet label (a complete DFA); a
// dedicated sink state absorbs missing transitions.
type DFA struct {
	alphabet  []string
	numStates int
	start     State
	// accepting[s] reports whether state s accepts.
	accepting []bool
	// trans[state*len(alphabet)+labelIndex] = successor.
	trans      []State
	labelIndex map[string]int
}

// NewDFA returns a DFA over the given alphabet with a single start state
// whose transitions all point to itself (so the empty DFA rejects
// everything once the start state is non-accepting).
func NewDFA(alphabet []string) *DFA {
	sorted := append([]string(nil), alphabet...)
	sort.Strings(sorted)
	d := &DFA{
		alphabet:   sorted,
		labelIndex: make(map[string]int, len(sorted)),
	}
	for i, l := range sorted {
		d.labelIndex[l] = i
	}
	d.start = d.AddState()
	return d
}

// AddState adds a state whose transitions initially self-loop.
func (d *DFA) AddState() State {
	s := State(d.numStates)
	d.numStates++
	row := make([]State, len(d.alphabet))
	for i := range row {
		row[i] = s
	}
	d.trans = append(d.trans, row...)
	d.accepting = append(d.accepting, false)
	return s
}

// NumStates returns the number of states.
func (d *DFA) NumStates() int { return d.numStates }

// Start returns the start state.
func (d *DFA) Start() State { return d.start }

// SetStart sets the start state.
func (d *DFA) SetStart(s State) { d.start = s }

// SetAccepting marks a state accepting.
func (d *DFA) SetAccepting(s State, accepting bool) { d.accepting[s] = accepting }

// IsAccepting reports whether a state accepts.
func (d *DFA) IsAccepting(s State) bool { return d.accepting[s] }

// SetTransition sets the successor of (from, label). Unknown labels panic:
// the alphabet is fixed at construction.
func (d *DFA) SetTransition(from State, label string, to State) {
	idx, ok := d.labelIndex[label]
	if !ok {
		panic(fmt.Sprintf("automaton: label %q not in DFA alphabet %v", label, d.alphabet))
	}
	d.trans[int(from)*len(d.alphabet)+idx] = to
}

// Next returns the successor of (from, label). Labels outside the alphabet
// return from itself with ok=false.
func (d *DFA) Next(from State, label string) (State, bool) {
	idx, ok := d.labelIndex[label]
	if !ok {
		return from, false
	}
	return d.trans[int(from)*len(d.alphabet)+idx], true
}

// String renders the DFA for debugging.
func (d *DFA) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "DFA alphabet=%v states=%d start=%d\n", d.alphabet, d.numStates, d.start)
	for s := State(0); s < State(d.numStates); s++ {
		marker := " "
		if d.accepting[s] {
			marker = "*"
		}
		fmt.Fprintf(&sb, "%s %d:", marker, s)
		for _, l := range d.alphabet {
			next, _ := d.Next(s, l)
			fmt.Fprintf(&sb, " %s->%d", l, next)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Determinize converts the NFA into a complete DFA over the given alphabet
// using the subset construction. Labels used by the NFA but missing from
// the alphabet are added. DFA states are numbered in the order a
// breadth-first walk over sorted labels first meets their subsets; the
// empty subset, once met, is the rejecting sink.
//
// Subsets are bitsets over the NFA states. Every NFA state has one
// precomputed ε-closure row and, per label it has transitions on, one
// successor row (the ε-closure of those successors), so the successor of a
// subset under a label is the OR of its members' rows. Each subset is
// interned by its words and numbered as it is met, and the transition
// table is filled row by row in that numbering.
func (n *NFA) Determinize(alphabet []string) *DFA {
	labels := make([]string, 0, len(alphabet)+8)
	labels = append(labels, alphabet...)
	for _, byLabel := range n.trans {
		for l := range byLabel {
			if l != Epsilon {
				labels = append(labels, l)
			}
		}
	}
	slices.Sort(labels)
	labels = slices.Compact(labels)
	m := len(labels)
	labelIndex := make(map[string]int, m)
	for i, l := range labels {
		labelIndex[l] = i
	}

	// Entries e in [entStart[s], entStart[s+1]) are the labelled successor
	// rows of NFA state s: entLabel[e] is the label index and
	// rows[e*words:(e+1)*words] the row.
	ns := n.numStates
	ints := make([]int32, 2*(ns+1))
	entStart, fill := ints[:ns+1], ints[ns+1:]
	for s, byLabel := range n.trans {
		for l := range byLabel {
			if _, ok := labelIndex[l]; ok {
				entStart[s+1]++
			}
		}
	}
	for s := 0; s < ns; s++ {
		entStart[s+1] += entStart[s]
	}
	copy(fill, entStart)
	numEnt := int(entStart[ns])
	entLabel := make([]int32, numEnt)

	words := (ns + 63) / 64
	slab := make([]uint64, (ns+numEnt+1+m)*words)
	closure := slab[:ns*words]
	rows := slab[ns*words : (ns+numEnt)*words]
	accRow := slab[(ns+numEnt)*words : (ns+numEnt+1)*words]
	next := slab[(ns+numEnt+1)*words:]

	stack := make([]State, 0, ns)
	for s := 0; s < ns; s++ {
		row := closure[s*words : (s+1)*words]
		row[s>>6] |= 1 << (uint(s) & 63)
		stack = append(stack[:0], State(s))
		for len(stack) > 0 {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, t := range n.trans[q][Epsilon] {
				if row[t>>6]&(1<<(uint(t)&63)) == 0 {
					row[t>>6] |= 1 << (uint(t) & 63)
					stack = append(stack, t)
				}
			}
		}
	}
	for s, byLabel := range n.trans {
		for l, targets := range byLabel {
			li, ok := labelIndex[l]
			if !ok {
				continue
			}
			e := int(fill[s])
			fill[s]++
			entLabel[e] = int32(li)
			row := rows[e*words : (e+1)*words]
			for _, t := range targets {
				orWords(row, closure[int(t)*words:(int(t)+1)*words])
			}
		}
	}
	for s := range n.accepting {
		accRow[s>>6] |= 1 << (uint(s) & 63)
	}

	d := &DFA{
		alphabet:   labels,
		labelIndex: labelIndex,
		trans:      make([]State, 0, (ns+1)*m),
		accepting:  make([]bool, 0, ns+1),
	}
	subsets := newSubsetTable(words, ns+1)
	meet := func(set []uint64) State {
		id, added := subsets.intern(set)
		if added {
			d.accepting = append(d.accepting, intersects(set, accRow))
		}
		return State(id)
	}
	d.start = meet(closure[int(n.start)*words : (int(n.start)+1)*words])
	for i := 0; i < subsets.len(); i++ {
		clear(next)
		for wi, w := range subsets.set(i) {
			for w != 0 {
				s := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				for e := entStart[s]; e < entStart[s+1]; e++ {
					li := int(entLabel[e])
					orWords(next[li*words:(li+1)*words], rows[int(e)*words:(int(e)+1)*words])
				}
			}
		}
		for li := 0; li < m; li++ {
			d.trans = append(d.trans, meet(next[li*words:(li+1)*words]))
		}
	}
	d.numStates = subsets.len()
	return d
}

func orWords(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

func intersects(a, b []uint64) bool {
	for i, w := range a {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}

// subsetTable interns bitsets of words uint64s each and numbers them
// densely in first-seen order.
type subsetTable struct {
	words int
	// sets holds subset i at sets[i*words : (i+1)*words].
	sets []uint64
	// slots is an open-addressing hash table of subset id + 1; 0 is free.
	slots []int32
}

func newSubsetTable(words, capacity int) *subsetTable {
	t := &subsetTable{words: words, sets: make([]uint64, 0, capacity*words)}
	t.rehash(tableSize(capacity))
	return t
}

func (t *subsetTable) len() int { return len(t.sets) / t.words }

func (t *subsetTable) set(i int) []uint64 { return t.sets[i*t.words : (i+1)*t.words] }

// intern returns the id of set, adding a copy of it if it is new.
func (t *subsetTable) intern(set []uint64) (id int, added bool) {
	if 2*(t.len()+1) > len(t.slots) {
		t.rehash(2 * len(t.slots))
	}
	mask := len(t.slots) - 1
	for i := hashWords(set) & mask; ; i = (i + 1) & mask {
		v := int(t.slots[i])
		if v == 0 {
			t.sets = append(t.sets, set...)
			t.slots[i] = int32(t.len())
			return t.len() - 1, true
		}
		if slices.Equal(t.set(v-1), set) {
			return v - 1, false
		}
	}
}

func (t *subsetTable) rehash(size int) {
	t.slots = make([]int32, size)
	mask := size - 1
	for id := 0; id < t.len(); id++ {
		i := hashWords(t.set(id)) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id + 1)
	}
}

// tableSize returns the power-of-two hash table size that keeps n keys at
// most half full.
func tableSize(n int) int {
	size := 16
	for size < 2*n {
		size *= 2
	}
	return size
}

// hashWords mixes a word sequence into a non-negative hash.
func hashWords(ws []uint64) int {
	h := uint64(len(ws))
	for _, w := range ws {
		h = bits.RotateLeft64(h^w, 27) * 0x9e3779b97f4a7c15
	}
	return int(mix64(h) >> 1)
}

// mix64 is the murmur3 64-bit finaliser.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Minimize returns the minimal DFA equivalent to d, restricted to the
// states reachable from the start state, by Moore's partition refinement:
// starting from the accepting and the rejecting block, every round splits
// each block by its states' successor blocks, until a round splits none.
// The partition is kept in int32 arrays, and a round groups states by
// signature in a hash table keyed by each group's least state. The result
// numbers the start block 0 and the other blocks in refinement order: a
// round keeps the order of the blocks it splits, and orders the parts of
// one block by their least state. The result shares d's alphabet and
// label index, which no method changes after construction.
func (d *DFA) Minimize() *DFA {
	n, m := d.numStates, len(d.alphabet)
	size := tableSize(n)
	buf := make([]int32, 7*n+1+size)
	block := buf[:n]         // block of each reachable state, -1 if unreachable
	group := buf[n : 2*n]    // this round's group of each reachable state
	rep := buf[2*n : 3*n]    // least state of each group
	parent := buf[3*n : 4*n] // the block each group comes from
	renum := buf[4*n : 5*n]  // group -> next round's block
	reach := buf[5*n : 6*n]  // reachable states, ascending
	count := buf[6*n : 7*n+1]
	slots := buf[7*n+1:] // group + 1 by signature hash; 0 is free

	// Reachable states; group doubles as the search stack.
	for i := range block {
		block[i] = -1
	}
	block[d.start] = 0
	stack := append(group[:0:n], int32(d.start))
	for len(stack) > 0 {
		s := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		for _, t := range d.trans[s*m : (s+1)*m] {
			if block[t] < 0 {
				block[t] = 0
				stack = append(stack, int32(t))
			}
		}
	}
	hasAcc, hasRej := false, false
	numReach := 0
	for s := range block {
		if block[s] == 0 {
			reach[numReach] = int32(s)
			numReach++
			hasAcc = hasAcc || d.accepting[s]
			hasRej = hasRej || !d.accepting[s]
		}
	}
	reach = reach[:numReach]
	numBlocks := int32(0)
	if hasAcc {
		numBlocks++
	}
	if hasRej {
		numBlocks++
	}
	for _, s := range reach {
		if hasAcc && !d.accepting[s] {
			block[s] = 1
		}
	}

	mask := len(slots) - 1
	for {
		clear(slots)
		numGroups := int32(0)
		for _, s := range reach {
			for i := d.signatureHash(block, s) & mask; ; i = (i + 1) & mask {
				g := slots[i] - 1
				if g < 0 {
					g = numGroups
					numGroups++
					rep[g], parent[g] = s, block[s]
					slots[i] = g + 1
				} else if !d.sameSignature(block, rep[g], s) {
					continue
				}
				group[s] = g
				break
			}
		}
		if numGroups == numBlocks {
			break
		}
		// Number the groups block by block, in first-seen order within a
		// block: a counting sort of the groups by the block they split.
		clear(count[:numBlocks+1])
		for _, b := range parent[:numGroups] {
			count[b+1]++
		}
		for b := int32(0); b < numBlocks; b++ {
			count[b+1] += count[b]
		}
		for g, b := range parent[:numGroups] {
			renum[g] = count[b]
			count[b]++
		}
		for _, s := range reach {
			block[s] = renum[group[s]]
		}
		numBlocks = numGroups
	}

	// The last round split nothing, so group g is block parent[g] and
	// rep[g] its least state. The start block becomes state 0.
	startBlock := block[d.start]
	stateOf := func(b int32) State {
		switch {
		case b == startBlock:
			return 0
		case b < startBlock:
			return State(b + 1)
		}
		return State(b)
	}
	out := &DFA{
		alphabet:   d.alphabet,
		labelIndex: d.labelIndex,
		numStates:  int(numBlocks),
		trans:      make([]State, int(numBlocks)*m),
		accepting:  make([]bool, numBlocks),
	}
	for g, b := range parent[:numBlocks] {
		r := int(rep[g])
		q := int(stateOf(b))
		out.accepting[q] = d.accepting[r]
		for l, t := range d.trans[r*m : (r+1)*m] {
			out.trans[q*m+l] = stateOf(block[t])
		}
	}
	return out
}

// signatureHash hashes the block of state s and the blocks of its
// successors.
func (d *DFA) signatureHash(block []int32, s int32) int {
	m := len(d.alphabet)
	h := uint64(block[s])
	for _, t := range d.trans[int(s)*m : (int(s)+1)*m] {
		h = bits.RotateLeft64(h^uint64(block[t]), 27) * 0x9e3779b97f4a7c15
	}
	return int(mix64(h) >> 1)
}

// sameSignature reports whether states a and b lie in one block and so do
// their successors under every label.
func (d *DFA) sameSignature(block []int32, a, b int32) bool {
	if block[a] != block[b] {
		return false
	}
	m := len(d.alphabet)
	ta := d.trans[int(a)*m : (int(a)+1)*m]
	tb := d.trans[int(b)*m : (int(b)+1)*m]
	for l, t := range ta {
		if block[t] != block[tb[l]] {
			return false
		}
	}
	return true
}

func (d *DFA) reachableStates() []State {
	m := len(d.alphabet)
	seen := make([]bool, d.numStates)
	seen[d.start] = true
	stack := []State{d.start}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range d.trans[int(s)*m : (int(s)+1)*m] {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	out := make([]State, 0, d.numStates)
	for s, ok := range seen {
		if ok {
			out = append(out, State(s))
		}
	}
	return out
}

// IsEmpty reports whether the DFA accepts no word.
func (d *DFA) IsEmpty() bool {
	for _, s := range d.reachableStates() {
		if d.accepting[s] {
			return false
		}
	}
	return true
}
