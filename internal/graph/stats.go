package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarises a graph. It backs the dataset tables cmd/gpsbench
// prints and the `gps stats` subcommand.
type Stats struct {
	Nodes        int
	Edges        int
	Labels       int
	AvgOutDegree float64
	MaxOutDegree int
	MaxInDegree  int
	// LabelHistogram maps each label to its edge count.
	LabelHistogram map[Label]int
	// Sinks counts nodes with no outgoing edges.
	Sinks int
	// Sources counts nodes with no incoming edges.
	Sources int
}

// ComputeStats computes summary statistics for the graph.
func (g *Graph) ComputeStats() Stats {
	s := Stats{
		Nodes:          g.NumNodes(),
		Edges:          g.NumEdges(),
		Labels:         len(g.labels),
		LabelHistogram: make(map[Label]int, len(g.labels)),
	}
	for l, c := range g.labels {
		s.LabelHistogram[l] = c
	}
	for id := range g.nodes {
		od, ind := g.OutDegree(id), g.InDegree(id)
		if od > s.MaxOutDegree {
			s.MaxOutDegree = od
		}
		if ind > s.MaxInDegree {
			s.MaxInDegree = ind
		}
		if od == 0 {
			s.Sinks++
		}
		if ind == 0 {
			s.Sources++
		}
	}
	if s.Nodes > 0 {
		s.AvgOutDegree = float64(s.Edges) / float64(s.Nodes)
	}
	return s
}

// String renders the statistics as a small human-readable block.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "nodes=%d edges=%d labels=%d avg_out_degree=%.2f max_out=%d max_in=%d sinks=%d sources=%d\n",
		s.Nodes, s.Edges, s.Labels, s.AvgOutDegree, s.MaxOutDegree, s.MaxInDegree, s.Sinks, s.Sources)
	labels := make([]Label, 0, len(s.LabelHistogram))
	for l := range s.LabelHistogram {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	for _, l := range labels {
		fmt.Fprintf(&sb, "  label %-12s %d\n", l, s.LabelHistogram[l])
	}
	return sb.String()
}
