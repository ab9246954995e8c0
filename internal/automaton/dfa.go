package automaton

import (
	"fmt"
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
	accepting map[State]bool
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
		accepting:  make(map[State]bool),
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
	return s
}

// NumStates returns the number of states.
func (d *DFA) NumStates() int { return d.numStates }

// Start returns the start state.
func (d *DFA) Start() State { return d.start }

// SetStart sets the start state.
func (d *DFA) SetStart(s State) { d.start = s }

// SetAccepting marks a state accepting.
func (d *DFA) SetAccepting(s State, accepting bool) {
	if accepting {
		d.accepting[s] = true
	} else {
		delete(d.accepting, s)
	}
}

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
// the alphabet are added.
func (n *NFA) Determinize(alphabet []string) *DFA {
	labelSet := make(map[string]bool)
	for _, l := range alphabet {
		labelSet[l] = true
	}
	for _, l := range n.Labels() {
		labelSet[l] = true
	}
	labels := make([]string, 0, len(labelSet))
	for l := range labelSet {
		labels = append(labels, l)
	}
	sort.Strings(labels)

	d := NewDFA(labels)
	// State 0 of the fresh DFA becomes the subset-start; we also need an
	// explicit sink for the empty subset.
	type subset string
	key := func(states []State) subset {
		parts := make([]string, len(states))
		for i, s := range states {
			parts[i] = fmt.Sprint(int(s))
		}
		return subset(strings.Join(parts, ","))
	}
	startSet := n.EpsilonClosure([]State{n.start})
	ids := map[subset]State{key(startSet): d.start}
	sink := State(-1)
	getSink := func() State {
		if sink < 0 {
			sink = d.AddState()
			for _, l := range labels {
				d.SetTransition(sink, l, sink)
			}
		}
		return sink
	}
	if containsAccepting(n, startSet) {
		d.SetAccepting(d.start, true)
	}
	queue := [][]State{startSet}
	keys := []subset{key(startSet)}
	for len(queue) > 0 {
		cur := queue[0]
		curKey := keys[0]
		queue, keys = queue[1:], keys[1:]
		curID := ids[curKey]
		for _, label := range labels {
			nextSet := make(map[State]bool)
			for _, s := range cur {
				for _, t := range n.trans[s][label] {
					nextSet[t] = true
				}
			}
			if len(nextSet) == 0 {
				d.SetTransition(curID, label, getSink())
				continue
			}
			nextStates := make([]State, 0, len(nextSet))
			for s := range nextSet {
				nextStates = append(nextStates, s)
			}
			closure := n.EpsilonClosure(nextStates)
			k := key(closure)
			id, ok := ids[k]
			if !ok {
				id = d.AddState()
				ids[k] = id
				if containsAccepting(n, closure) {
					d.SetAccepting(id, true)
				}
				queue = append(queue, closure)
				keys = append(keys, k)
			}
			d.SetTransition(curID, label, id)
		}
	}
	return d
}

func containsAccepting(n *NFA, states []State) bool {
	for _, s := range states {
		if n.accepting[s] {
			return true
		}
	}
	return false
}

// Minimize returns the minimal DFA equivalent to d (Hopcroft's algorithm),
// restricted to states reachable from the start state.
func (d *DFA) Minimize() *DFA {
	// Restrict to reachable states first.
	reachable := d.reachableStates()
	// Initial partition: accepting vs non-accepting (reachable only).
	var acc, rej []State
	for _, s := range reachable {
		if d.accepting[s] {
			acc = append(acc, s)
		} else {
			rej = append(rej, s)
		}
	}
	var partitions [][]State
	if len(acc) > 0 {
		partitions = append(partitions, acc)
	}
	if len(rej) > 0 {
		partitions = append(partitions, rej)
	}
	if len(partitions) == 0 {
		// No reachable states (impossible: start is always reachable), but
		// guard anyway.
		return NewDFA(d.alphabet)
	}

	blockOf := make(map[State]int)
	for bi, block := range partitions {
		for _, s := range block {
			blockOf[s] = bi
		}
	}
	// Iteratively refine until stable (Moore's algorithm — simpler than
	// full Hopcroft and fast enough for the sizes GPS handles).
	for {
		changed := false
		var next [][]State
		nextBlockOf := make(map[State]int)
		for _, block := range partitions {
			// Group states in the block by their successor-block signature.
			groups := make(map[string][]State)
			var order []string
			for _, s := range block {
				var sig strings.Builder
				for _, l := range d.alphabet {
					succ, _ := d.Next(s, l)
					fmt.Fprintf(&sig, "%d,", blockOf[succ])
				}
				k := sig.String()
				if _, ok := groups[k]; !ok {
					order = append(order, k)
				}
				groups[k] = append(groups[k], s)
			}
			if len(groups) > 1 {
				changed = true
			}
			for _, k := range order {
				bi := len(next)
				next = append(next, groups[k])
				for _, s := range groups[k] {
					nextBlockOf[s] = bi
				}
			}
		}
		partitions = next
		blockOf = nextBlockOf
		if !changed {
			break
		}
	}

	// Build the minimal DFA.
	m := NewDFA(d.alphabet)
	// Block of the start state becomes state 0; allocate the rest.
	blockState := make([]State, len(partitions))
	for i := range blockState {
		blockState[i] = State(-1)
	}
	blockState[blockOf[d.start]] = m.start
	for bi := range partitions {
		if blockState[bi] < 0 {
			blockState[bi] = m.AddState()
		}
	}
	for bi, block := range partitions {
		repr := block[0]
		if d.accepting[repr] {
			m.SetAccepting(blockState[bi], true)
		}
		for _, l := range d.alphabet {
			succ, _ := d.Next(repr, l)
			m.SetTransition(blockState[bi], l, blockState[blockOf[succ]])
		}
	}
	return m
}

func (d *DFA) reachableStates() []State {
	seen := map[State]bool{d.start: true}
	stack := []State{d.start}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range d.alphabet {
			next, _ := d.Next(s, l)
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	out := make([]State, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
