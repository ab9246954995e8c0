package automaton

// Dense access to the NFA transition relation. The NFA stores its
// transitions in nested maps keyed by label strings, which is flexible for
// construction but hostile to hot loops: the learner's generalisation step
// probes the same prefix-tree automaton once per (candidate merge × product
// configuration × label), and each probe through the map API costs a string
// hash plus a sorted copy of the successor slice.
//
// DenseNFA freezes an ε-free NFA into flat integer-indexed tables, mirroring
// what dense.go does for the DFA: labels are interned into a dense index and
// the successor relation is laid out in CSR buckets by (state, label index).
// The view is immutable once built and reflects the NFA at the time of the
// Dense call.

import "sort"

// DenseNFA is an immutable, integer-indexed view of an ε-free NFA.
type DenseNFA struct {
	numLabels int
	labelIdx  map[string]int
	// CSR successors: succ[succStart[b]:succStart[b+1]] lists the states
	// reachable from state s under label l, sorted, for bucket
	// b = s*numLabels + l.
	succStart []int32
	succ      []State
}

// Dense builds the dense view of the NFA. Build cost is linear in states ×
// alphabet; callers build it once per algorithm run (e.g. once per Learn
// call) and then probe it inside their hot loops. Dense panics if the NFA
// has an ε-transition: the view has no closure tables, and its one caller
// builds it over FromWords prefix trees, which never carry one.
func (n *NFA) Dense() *DenseNFA {
	labels := n.Labels()
	m := len(labels)
	d := &DenseNFA{
		numLabels: m,
		labelIdx:  make(map[string]int, m),
	}
	for i, l := range labels {
		d.labelIdx[l] = i
	}
	d.succStart = make([]int32, n.numStates*m+1)
	for s, byLabel := range n.trans {
		for l, targets := range byLabel {
			if l == Epsilon {
				panic("automaton: Dense on an NFA with ε-transitions")
			}
			d.succStart[int(s)*m+d.labelIdx[l]+1] += int32(len(targets))
		}
	}
	for b := 1; b < len(d.succStart); b++ {
		d.succStart[b] += d.succStart[b-1]
	}
	d.succ = make([]State, d.succStart[len(d.succStart)-1])
	fill := make([]int32, n.numStates*m)
	copy(fill, d.succStart[:n.numStates*m])
	for s, byLabel := range n.trans {
		for l, targets := range byLabel {
			b := int(s)*m + d.labelIdx[l]
			for _, t := range targets {
				d.succ[fill[b]] = t
				fill[b]++
			}
		}
	}
	// Match the sorted order of NFA.Successors within each bucket.
	for b := 0; b < n.numStates*m; b++ {
		bucket := d.succ[d.succStart[b]:d.succStart[b+1]]
		sort.Slice(bucket, func(i, j int) bool { return bucket[i] < bucket[j] })
	}
	return d
}

// LabelIndex returns the dense index of a label in the view's alphabet.
func (d *DenseNFA) LabelIndex(label string) (int, bool) {
	i, ok := d.labelIdx[label]
	return i, ok
}

// Successors returns the states reachable from s under the label with the
// given dense index, as a shared sorted slice view. The caller must not
// modify it.
func (d *DenseNFA) Successors(s State, labelIdx int) []State {
	b := int(s)*d.numLabels + labelIdx
	return d.succ[d.succStart[b]:d.succStart[b+1]]
}
