// Package render draws graphs, neighbourhood fragments and prefix trees as
// text (ASCII) and Graphviz DOT. It is the terminal stand-in for the demo's
// visual widgets: Figure 3(a,b) — a zoomable neighbourhood with the newly
// revealed part highlighted and "..." markers on the frontier — and Figure
// 3(c) — a prefix tree with a highlighted candidate path.
package render

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/paths"
)

// DOT renders the whole graph in Graphviz DOT syntax. Node kinds (the
// "kind" attribute) select shapes: neighbourhoods are ellipses, facilities
// are boxes.
func DOT(g *graph.Graph) string {
	var sb strings.Builder
	sb.WriteString("digraph G {\n  rankdir=LR;\n")
	for _, id := range g.Nodes() {
		shape := "ellipse"
		if kind, ok := g.Attr(id, "kind"); ok && kind != "neighborhood" {
			shape = "box"
		}
		fmt.Fprintf(&sb, "  %q [shape=%s];\n", id, shape)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "  %q -> %q [label=%q];\n", e.From, e.To, e.Label)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// NeighborhoodDOT renders a neighbourhood fragment in DOT, highlighting the
// centre node, drawing the nodes and edges added with respect to prev in
// blue (as the paper does when the user zooms out), and attaching a "..."
// marker to frontier nodes.
func NeighborhoodDOT(n *graph.Neighborhood, prev *graph.Neighborhood) string {
	addedNodes, addedEdges := n.Added(prev)
	isNewNode := make(map[graph.NodeID]bool, len(addedNodes))
	for _, id := range addedNodes {
		isNewNode[id] = true
	}
	isNewEdge := make(map[graph.Edge]bool, len(addedEdges))
	for _, e := range addedEdges {
		isNewEdge[e] = true
	}
	frontier := make(map[graph.NodeID]bool, len(n.Frontier))
	for _, id := range n.Frontier {
		frontier[id] = true
	}

	var sb strings.Builder
	sb.WriteString("digraph Neighborhood {\n  rankdir=LR;\n")
	for _, id := range n.Fragment.Nodes() {
		attrs := []string{}
		if id == n.Center {
			attrs = append(attrs, "style=filled", "fillcolor=gold")
		} else if prev != nil && isNewNode[id] {
			attrs = append(attrs, "color=blue", "fontcolor=blue")
		}
		shape := "ellipse"
		if kind, ok := n.Fragment.Attr(id, "kind"); ok && kind != "neighborhood" {
			shape = "box"
		}
		attrs = append(attrs, "shape="+shape)
		fmt.Fprintf(&sb, "  %q [%s];\n", id, strings.Join(attrs, ","))
		if frontier[id] {
			fmt.Fprintf(&sb, "  %q [label=\"...\",shape=plaintext];\n", string(id)+"_more")
			fmt.Fprintf(&sb, "  %q -> %q [style=dotted];\n", id, string(id)+"_more")
		}
	}
	for _, e := range n.Fragment.Edges() {
		style := ""
		if prev != nil && isNewEdge[e] {
			style = ",color=blue,fontcolor=blue"
		}
		fmt.Fprintf(&sb, "  %q -> %q [label=%q%s];\n", e.From, e.To, e.Label, style)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// NeighborhoodASCII renders a neighbourhood fragment as indented text: one
// line per edge, grouped by source node, with "..." on frontier nodes and a
// "+" prefix on nodes/edges newly revealed with respect to prev.
func NeighborhoodASCII(n *graph.Neighborhood, prev *graph.Neighborhood) string {
	addedNodes, addedEdges := n.Added(prev)
	isNewNode := make(map[graph.NodeID]bool, len(addedNodes))
	for _, id := range addedNodes {
		isNewNode[id] = true
	}
	isNewEdge := make(map[graph.Edge]bool, len(addedEdges))
	for _, e := range addedEdges {
		isNewEdge[e] = true
	}
	frontier := make(map[graph.NodeID]bool, len(n.Frontier))
	for _, id := range n.Frontier {
		frontier[id] = true
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "neighborhood of %s (radius %d, %d nodes, %d edges)\n",
		n.Center, n.Radius, n.Fragment.NumNodes(), n.Fragment.NumEdges())
	// Order nodes by distance from the centre, then by ID, so the fragment
	// reads outwards like the paper's figures.
	nodes := n.Fragment.Nodes()
	sort.SliceStable(nodes, func(i, j int) bool {
		di, dj := n.Distance[nodes[i]], n.Distance[nodes[j]]
		if di != dj {
			return di < dj
		}
		return nodes[i] < nodes[j]
	})
	for _, id := range nodes {
		marker := "  "
		if id == n.Center {
			marker = "* "
		} else if prev != nil && isNewNode[id] {
			marker = "+ "
		}
		line := fmt.Sprintf("%s%s (d=%d)", marker, id, n.Distance[id])
		if frontier[id] {
			line += " ..."
		}
		sb.WriteString(line + "\n")
		for _, e := range n.Fragment.Out(id) {
			edgeMarker := "    "
			if prev != nil && isNewEdge[e] {
				edgeMarker = "  + "
			}
			fmt.Fprintf(&sb, "%s-%s-> %s\n", edgeMarker, e.Label, e.To)
		}
	}
	return sb.String()
}

// PrefixTree renders the words as a prefix tree with the candidate word
// highlighted, mirroring Figure 3(c).
func PrefixTree(words [][]string, candidate []string) string {
	return paths.BuildTrie(words).Render(candidate)
}
