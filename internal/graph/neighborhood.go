package graph

import "sort"

// Neighborhood is the bounded-radius fragment of a graph around a centre
// node, as presented to the user in the interactive scenario (Figure 3 of
// the paper). It records which nodes sit on the frontier, i.e. have
// outgoing edges that leave the fragment — those are rendered as "..." in
// the paper's screenshots.
type Neighborhood struct {
	Center   NodeID
	Radius   int
	Fragment *Graph
	// Frontier lists nodes inside the fragment that have at least one
	// outgoing edge to a node outside the fragment.
	Frontier []NodeID
	// Distance maps each fragment node to its (undirected) distance from
	// the centre.
	Distance map[NodeID]int
}

// NeighborhoodOptions controls fragment extraction.
type NeighborhoodOptions struct {
	// Directed restricts traversal to outgoing edges only. The paper's
	// screenshots follow outgoing paths (the query semantics are forward
	// paths), which is the default used by the interactive engine.
	Directed bool
}

// NeighborhoodAround extracts the fragment of nodes and edges at distance
// at most radius from center. With opts.Directed it follows outgoing edges
// only; otherwise edges are traversed in both directions. Edges between
// two retained nodes are always included.
func (g *Graph) NeighborhoodAround(center NodeID, radius int, opts NeighborhoodOptions) *Neighborhood {
	n := &Neighborhood{
		Center:   center,
		Radius:   radius,
		Fragment: New(),
		Distance: make(map[NodeID]int),
	}
	if !g.HasNode(center) || radius < 0 {
		return n
	}
	// BFS by distance.
	n.Distance[center] = 0
	queue := []NodeID{center}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		d := n.Distance[cur]
		if d == radius {
			continue
		}
		for _, e := range g.Out(cur) {
			if _, seen := n.Distance[e.To]; !seen {
				n.Distance[e.To] = d + 1
				queue = append(queue, e.To)
			}
		}
		if !opts.Directed {
			for _, e := range g.In(cur) {
				if _, seen := n.Distance[e.From]; !seen {
					n.Distance[e.From] = d + 1
					queue = append(queue, e.From)
				}
			}
		}
	}
	// Build the fragment: all retained nodes and every edge between them.
	for id := range n.Distance {
		n.Fragment.MustAddNode(id)
		if kind, ok := g.Attr(id, "kind"); ok {
			if err := n.Fragment.SetAttr(id, "kind", kind); err != nil {
				panic(err) // unreachable: node already added
			}
		}
	}
	frontier := make(map[NodeID]bool)
	for id := range n.Distance {
		for _, e := range g.Out(id) {
			if _, in := n.Distance[e.To]; in {
				n.Fragment.MustAddEdge(e.From, e.Label, e.To)
			} else {
				frontier[id] = true
			}
		}
	}
	for id := range frontier {
		n.Frontier = append(n.Frontier, id)
	}
	sort.Slice(n.Frontier, func(i, j int) bool { return n.Frontier[i] < n.Frontier[j] })
	return n
}

// Added returns the nodes and edges present in this neighbourhood but not
// in prev. It is used to highlight (in blue, per the paper) what a zoom-out
// step revealed.
func (n *Neighborhood) Added(prev *Neighborhood) (nodes []NodeID, edges []Edge) {
	if prev == nil {
		return n.Fragment.Nodes(), n.Fragment.Edges()
	}
	for _, id := range n.Fragment.Nodes() {
		if !prev.Fragment.HasNode(id) {
			nodes = append(nodes, id)
		}
	}
	prevEdges := make(map[Edge]bool)
	for _, e := range prev.Fragment.Edges() {
		prevEdges[e] = true
	}
	for _, e := range n.Fragment.Edges() {
		if !prevEdges[e] {
			edges = append(edges, e)
		}
	}
	return nodes, edges
}

// ReachableFrom returns the set of nodes reachable from start by following
// outgoing edges (including start itself).
func (g *Graph) ReachableFrom(start NodeID) map[NodeID]bool {
	reached := make(map[NodeID]bool)
	if !g.HasNode(start) {
		return reached
	}
	reached[start] = true
	stack := []NodeID{start}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Out(cur) {
			if !reached[e.To] {
				reached[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return reached
}
