package automaton

import (
	"fmt"
	"sort"
	"strings"
)

// The map-based subset construction and Moore refinement below are the
// oracles for the integer-array Determinize and Minimize: they key subsets
// and refinement signatures by strings, number states in the same order
// and are kept only to check the production code against.

// EpsilonClosure returns the ε-closure of the given set of states, sorted.
func (n *NFA) EpsilonClosure(states []State) []State {
	seen := make(map[State]bool, len(states))
	stack := append([]State(nil), states...)
	for _, s := range states {
		seen[s] = true
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range n.trans[s][Epsilon] {
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

// referenceDeterminize is the subset construction keyed by strings.
func referenceDeterminize(n *NFA, alphabet []string) *DFA {
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

// referenceMinimize is Moore's partition refinement keyed by string
// signatures, restricted to the states reachable from the start state.
func referenceMinimize(d *DFA) *DFA {
	reachable := d.reachableStates()
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

	blockOf := make(map[State]int)
	for bi, block := range partitions {
		for _, s := range block {
			blockOf[s] = bi
		}
	}
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
