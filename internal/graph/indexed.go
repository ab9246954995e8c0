package graph

// Indexed is an immutable, integer-indexed view of a Graph built for the
// hot evaluation paths. Node IDs and labels are interned into dense int32
// ranges and the adjacency is laid out as CSR-style flat arrays grouped by
// (node, label) bucket, so that enumerating the neighbours of a node under
// one label is a slice view with zero hashing and zero allocation.
//
// An Indexed view is built once per graph revision and cached on the Graph
// (see Graph.Indexed); any structural mutation of the graph invalidates the
// cache. The view itself is never mutated after construction and is safe
// for concurrent use.
type Indexed struct {
	version uint64
	// nodes[i] is the NodeID interned as i; sorted, so iterating indices
	// yields nodes in the same order as Graph.Nodes.
	nodes   []NodeID
	nodeIdx map[NodeID]int32
	// labels[l] is the Label interned as l; sorted like Graph.Alphabet.
	labels   []Label
	labelIdx map[Label]int32
	// CSR adjacency: bucket b = node*numLabels + label. outTo[outStart[b]:
	// outStart[b+1]] lists the successors of node under label; inFrom is the
	// symmetric predecessor layout.
	outStart []int32
	outTo    []int32
	inStart  []int32
	inFrom   []int32
}

// buildIndexed constructs the dense view from the current graph state.
func buildIndexed(g *Graph, version uint64) *Indexed {
	ix := &Indexed{
		version:  version,
		nodes:    g.Nodes(),
		labels:   g.Alphabet(),
		nodeIdx:  make(map[NodeID]int32, g.NumNodes()),
		labelIdx: make(map[Label]int32, len(g.labels)),
	}
	for i, id := range ix.nodes {
		ix.nodeIdx[id] = int32(i)
	}
	for l, lab := range ix.labels {
		ix.labelIdx[lab] = int32(l)
	}
	n, m := len(ix.nodes), len(ix.labels)
	buckets := n * m
	ix.outStart = make([]int32, buckets+1)
	ix.inStart = make([]int32, buckets+1)
	ix.outTo = make([]int32, 0, g.NumEdges())
	ix.inFrom = make([]int32, 0, g.NumEdges())
	// The per-node adjacency lists are kept sorted by (Label, To/From), so a
	// single pass per node emits each (node, label) bucket contiguously.
	for i, id := range ix.nodes {
		for _, e := range g.out[id] {
			b := i*m + int(ix.labelIdx[e.Label])
			ix.outStart[b+1]++
			ix.outTo = append(ix.outTo, ix.nodeIdx[e.To])
		}
		for _, e := range g.in[id] {
			b := i*m + int(ix.labelIdx[e.Label])
			ix.inStart[b+1]++
			ix.inFrom = append(ix.inFrom, ix.nodeIdx[e.From])
		}
	}
	for b := 1; b <= buckets; b++ {
		ix.outStart[b] += ix.outStart[b-1]
		ix.inStart[b] += ix.inStart[b-1]
	}
	return ix
}

// Indexed returns the dense integer-indexed view of the graph, building it
// on first use and caching it until the next structural mutation. Safe for
// concurrent callers once mutation has finished (the same guarantee the
// rest of Graph's read API gives).
func (g *Graph) Indexed() *Indexed {
	g.idxMu.Lock()
	defer g.idxMu.Unlock()
	if g.idx == nil || g.idx.version != g.version {
		g.idx = buildIndexed(g, g.version)
	}
	return g.idx
}

// Version returns a counter that increases on every structural mutation
// (node or edge added). Caches keyed on a graph — the Indexed
// view, compiled query engines — use it to detect staleness.
func (g *Graph) Version() uint64 { return g.version }

// Version returns the graph structural version this view was built at.
// Derived structures (the rpq index, compiled engines) carry it so that
// staleness against a mutated graph is detectable.
func (ix *Indexed) Version() uint64 { return ix.version }

// NumNodes returns the number of interned nodes.
func (ix *Indexed) NumNodes() int { return len(ix.nodes) }

// NumLabels returns the number of interned labels.
func (ix *Indexed) NumLabels() int { return len(ix.labels) }

// NodeAt returns the NodeID interned as i.
func (ix *Indexed) NodeAt(i int32) NodeID { return ix.nodes[i] }

// IndexOf returns the dense index of a node and whether it exists.
func (ix *Indexed) IndexOf(id NodeID) (int32, bool) {
	i, ok := ix.nodeIdx[id]
	return i, ok
}

// LabelAt returns the Label interned as l.
func (ix *Indexed) LabelAt(l int32) Label { return ix.labels[l] }

// LabelIndexOf returns the dense index of a label and whether it exists.
func (ix *Indexed) LabelIndexOf(lab Label) (int32, bool) {
	l, ok := ix.labelIdx[lab]
	return l, ok
}

// Out returns the successor indices of node under label as a shared slice
// view. The caller must not modify it.
func (ix *Indexed) Out(node, label int32) []int32 {
	b := int(node)*len(ix.labels) + int(label)
	return ix.outTo[ix.outStart[b]:ix.outStart[b+1]]
}

// In returns the predecessor indices of node under label as a shared slice
// view. The caller must not modify it.
func (ix *Indexed) In(node, label int32) []int32 {
	b := int(node)*len(ix.labels) + int(label)
	return ix.inFrom[ix.inStart[b]:ix.inStart[b+1]]
}

// OutDegree returns the total out-degree of a node across all labels.
func (ix *Indexed) OutDegree(node int32) int {
	m := len(ix.labels)
	if m == 0 {
		return 0
	}
	lo := ix.outStart[int(node)*m]
	hi := ix.outStart[int(node)*m+m]
	return int(hi - lo)
}
