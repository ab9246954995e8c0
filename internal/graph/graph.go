// Package graph implements the labelled directed multigraph substrate used
// by GPS. A graph database here is a set of nodes and a set of directed
// edges, each edge carrying a label drawn from a finite alphabet. The
// package provides adjacency indexes, neighbourhood (bounded-radius
// subgraph) extraction, basic statistics and a simple text serialisation.
//
// The zero value of Graph is an empty graph ready to use.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node. IDs are arbitrary non-empty strings; the
// Figure 1 example uses names such as "N1" or "C2".
type NodeID string

// Label is an edge label, for instance "tram" or "cinema".
type Label string

// Edge is a directed labelled edge.
type Edge struct {
	From  NodeID
	Label Label
	To    NodeID
}

// String renders the edge as "from -label-> to".
func (e Edge) String() string {
	return fmt.Sprintf("%s -%s-> %s", e.From, e.Label, e.To)
}

// Graph is a labelled directed multigraph. It is not safe for concurrent
// mutation; concurrent reads are safe once mutation has finished. A graph
// becomes read-only once it is frozen (see Freeze).
type Graph struct {
	nodes map[NodeID]struct{}
	// out[from] and in[to] hold edges sorted lazily on demand.
	out map[NodeID][]Edge
	in  map[NodeID][]Edge
	// labels counts edges per label.
	labels    map[Label]int
	edgeCount int
	// attrs holds optional node attributes (kind, display name, ...).
	attrs map[NodeID]map[string]string
	// frozen makes the mutators panic; idx publishes the dense view, which
	// is built at most once, under idxMu (see indexed.go).
	frozen atomic.Bool
	idxMu  sync.Mutex
	idx    atomic.Pointer[Indexed]
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{}
}

func (g *Graph) init() {
	if g.nodes == nil {
		g.nodes = make(map[NodeID]struct{})
		g.out = make(map[NodeID][]Edge)
		g.in = make(map[NodeID][]Edge)
		g.labels = make(map[Label]int)
		g.attrs = make(map[NodeID]map[string]string)
	}
}

// Freeze makes the graph read-only: AddNode, AddEdge and SetAttr panic
// from now on. Everything derived from a graph — the Indexed view, query
// engines, closure indexes, session state — relies on it never changing,
// so none of them checks for staleness. Freeze builds nothing; Indexed
// freezes the graph too.
func (g *Graph) Freeze() { g.frozen.Store(true) }

// mustBeMutable panics on a frozen graph: mutating one is a bug.
func (g *Graph) mustBeMutable() {
	if g.frozen.Load() {
		panic("graph: mutation of a frozen graph")
	}
}

// AddNode adds a node if not already present. Adding a node that exists is
// a no-op. Empty IDs are rejected. It panics on a frozen graph.
func (g *Graph) AddNode(id NodeID) error {
	g.mustBeMutable()
	if id == "" {
		return fmt.Errorf("graph: empty node id")
	}
	g.init()
	g.nodes[id] = struct{}{}
	return nil
}

// MustAddNode adds a node and panics on error. Intended for literals in
// tests and dataset builders.
func (g *Graph) MustAddNode(id NodeID) {
	if err := g.AddNode(id); err != nil {
		panic(err)
	}
}

// HasNode reports whether the node exists.
func (g *Graph) HasNode(id NodeID) bool {
	_, ok := g.nodes[id]
	return ok
}

// SetAttr attaches a string attribute to a node, creating the node if
// necessary. It panics on a frozen graph.
func (g *Graph) SetAttr(id NodeID, key, value string) error {
	if err := g.AddNode(id); err != nil {
		return err
	}
	m := g.attrs[id]
	if m == nil {
		m = make(map[string]string)
		g.attrs[id] = m
	}
	m[key] = value
	return nil
}

// Attr returns a node attribute and whether it was set.
func (g *Graph) Attr(id NodeID, key string) (string, bool) {
	m, ok := g.attrs[id]
	if !ok {
		return "", false
	}
	v, ok := m[key]
	return v, ok
}

// AddEdge adds a directed labelled edge, creating endpoints as needed.
// Parallel edges with the same label are deduplicated. The adjacency lists
// are kept sorted on insertion so that Out and In are cheap read paths (the
// evaluator, the word enumerator and the neighbourhood extractor all sit on
// them). It panics on a frozen graph.
func (g *Graph) AddEdge(from NodeID, label Label, to NodeID) error {
	g.mustBeMutable()
	if from == "" || to == "" {
		return fmt.Errorf("graph: edge with empty endpoint %q -> %q", from, to)
	}
	if label == "" {
		return fmt.Errorf("graph: edge %q -> %q with empty label", from, to)
	}
	g.init()
	g.nodes[from] = struct{}{}
	g.nodes[to] = struct{}{}
	e := Edge{From: from, Label: label, To: to}

	outPos, found := searchEdge(g.out[from], e, lessOut)
	if found {
		return nil
	}
	g.out[from] = insertEdge(g.out[from], outPos, e)
	inPos, _ := searchEdge(g.in[to], e, lessIn)
	g.in[to] = insertEdge(g.in[to], inPos, e)
	g.labels[label]++
	g.edgeCount++
	return nil
}

// lessOut orders a node's outgoing edges by (Label, To).
func lessOut(a, b Edge) bool {
	if a.Label != b.Label {
		return a.Label < b.Label
	}
	return a.To < b.To
}

// lessIn orders a node's incoming edges by (Label, From).
func lessIn(a, b Edge) bool {
	if a.Label != b.Label {
		return a.Label < b.Label
	}
	return a.From < b.From
}

// searchEdge returns the insertion position of e in the sorted slice and
// whether an equal edge is already present.
func searchEdge(edges []Edge, e Edge, less func(a, b Edge) bool) (int, bool) {
	pos := sort.Search(len(edges), func(i int) bool { return !less(edges[i], e) })
	if pos < len(edges) && edges[pos] == e {
		return pos, true
	}
	return pos, false
}

// insertEdge inserts e at position pos.
func insertEdge(edges []Edge, pos int, e Edge) []Edge {
	edges = append(edges, Edge{})
	copy(edges[pos+1:], edges[pos:])
	edges[pos] = e
	return edges
}

// MustAddEdge adds an edge and panics on error.
func (g *Graph) MustAddEdge(from NodeID, label Label, to NodeID) {
	if err := g.AddEdge(from, label, to); err != nil {
		panic(err)
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edgeCount }

// Nodes returns all node IDs in sorted order.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Edges returns all edges sorted by (From, Label, To).
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.edgeCount)
	for _, out := range g.out {
		edges = append(edges, out...)
	}
	sortEdges(edges)
	return edges
}

func sortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.To < b.To
	})
}

// Out returns the outgoing edges of a node sorted by (Label, To). The
// returned slice must not be modified.
func (g *Graph) Out(id NodeID) []Edge { return g.out[id] }

// In returns the incoming edges of a node sorted by (Label, From). The
// returned slice must not be modified.
func (g *Graph) In(id NodeID) []Edge { return g.in[id] }

// OutDegree returns the number of outgoing edges of a node.
func (g *Graph) OutDegree(id NodeID) int { return len(g.out[id]) }

// InDegree returns the number of incoming edges of a node.
func (g *Graph) InDegree(id NodeID) int { return len(g.in[id]) }

// Alphabet returns the distinct edge labels in sorted order.
func (g *Graph) Alphabet() []Label {
	labels := make([]Label, 0, len(g.labels))
	for l := range g.labels {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	return labels
}
