package graph

import "sync"

// Indexed is an immutable, integer-indexed view of a Graph built for the
// hot evaluation paths. Node IDs and labels are interned into dense int32
// ranges and the adjacency is laid out as CSR-style flat arrays grouped by
// (node, label) bucket, so that enumerating the neighbours of a node under
// one label is a slice view with zero hashing and zero allocation.
//
// An Indexed view is built at most once per graph and cached on it (see
// Graph.Indexed); building it freezes the graph, so the view can never go
// stale. The view's arrays are never mutated after construction, so it is
// safe for concurrent use, and facts derived from it alone are memoised on
// it (see Derived).
type Indexed struct {
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
	// srcBits holds one node bitset per label, ⌈n/64⌉ words each: bit v
	// of row l is set iff node v has an outgoing l-edge. It is the exact
	// predecessor set of a full frontier under l, which turns the first
	// backward step of a product sweep into one word-parallel OR.
	srcBits []uint64
	// derived holds the values Derived memoises, one entry per key.
	derivedMu sync.Mutex
	derived   map[any]*derivedEntry
}

// derivedEntry is one key's value in the Derived memo; once makes the
// first caller build it and every other caller wait for that build.
type derivedEntry struct {
	once  sync.Once
	value any
}

// buildIndexed constructs the dense view of the graph.
func buildIndexed(g *Graph) *Indexed {
	ix := &Indexed{
		nodes:    g.Nodes(),
		labels:   g.Alphabet(),
		nodeIdx:  make(map[NodeID]int32, g.NumNodes()),
		labelIdx: make(map[Label]int32, len(g.labels)),
		derived:  make(map[any]*derivedEntry),
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
	words := (n + 63) / 64
	ix.srcBits = make([]uint64, m*words)
	for b := 0; b < buckets; b++ {
		if ix.outStart[b+1] > ix.outStart[b] {
			v, l := b/m, b%m
			ix.srcBits[l*words+v>>6] |= 1 << (uint(v) & 63)
		}
	}
	return ix
}

// Indexed returns the dense integer-indexed view of the graph, building it
// on first use. It freezes the graph (see Freeze), so the view is built
// once and kept. Safe for concurrent callers once mutation has finished
// (the same guarantee the rest of Graph's read API gives). Once the view
// exists a call is one atomic load; only the first build takes the lock.
func (g *Graph) Indexed() *Indexed {
	if ix := g.idx.Load(); ix != nil {
		return ix
	}
	g.idxMu.Lock()
	defer g.idxMu.Unlock()
	if ix := g.idx.Load(); ix != nil {
		return ix
	}
	g.Freeze()
	ix := buildIndexed(g)
	g.idx.Store(ix)
	return ix
}

// Derived returns the value memoised on the view under key, calling build
// to compute it on the first request for that key. The view never changes,
// so a value computed from the view and the key alone never goes stale,
// and it lives as long as the view, which is as long as the graph.
// Concurrent first requests for one key run build once: the others wait
// for it. The key must be comparable; a package keys its values with an
// unexported type, so no two packages share a key. Callers must not modify
// the value.
func (ix *Indexed) Derived(key any, build func() any) any {
	ix.derivedMu.Lock()
	e := ix.derived[key]
	if e == nil {
		e = &derivedEntry{}
		ix.derived[key] = e
	}
	ix.derivedMu.Unlock()
	e.once.Do(func() { e.value = build() })
	return e.value
}

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

// SourceBits returns the bitset of nodes with at least one outgoing edge
// of label l, ⌈NumNodes/64⌉ words. Callers must not modify it.
func (ix *Indexed) SourceBits(l int32) []uint64 {
	words := (len(ix.nodes) + 63) / 64
	return ix.srcBits[int(l)*words : (int(l)+1)*words]
}
