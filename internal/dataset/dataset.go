// Package dataset builds the graph databases used by the examples,
// experiments and benchmarks: the paper's Figure 1 geographical graph, a
// synthetic transport-network generator in the spirit of the Transpole
// dataset the demo used, and random/scale-free labelled graphs standing in
// for the biological and synthetic datasets of the companion research
// paper, all generated in-repo so every run is reproducible offline.
package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/regex"
)

// Figure1 returns the geographical graph of Figure 1. The exact edge list
// is not fully recoverable from the paper's text, so this reconstruction is
// chosen to satisfy every statement the paper makes about it:
//
//   - (tram+bus)*.cinema selects exactly the neighbourhoods N1, N2, N4, N6;
//   - the witness paths quoted in Section 2 exist (N1 tram N4 cinema C1,
//     N2 bus N1 tram N4 cinema C1, N4 cinema C1, N6 cinema C2);
//   - N2 also has the length-3 path bus.bus.cinema highlighted in
//     Figure 3(c);
//   - the query "bus" selects N2 and N6 but not N5 (Section 3);
//   - N5 has no path leading to a cinema.
func Figure1() *graph.Graph {
	g := graph.New()
	type e struct{ from, label, to string }
	edges := []e{
		{"N1", "tram", "N4"},
		{"N1", "bus", "N4"},
		{"N2", "bus", "N1"},
		{"N2", "bus", "N3"},
		{"N2", "tram", "N5"},
		{"N3", "bus", "N5"},
		{"N4", "cinema", "C1"},
		{"N4", "bus", "N5"},
		{"N5", "restaurant", "R1"},
		{"N6", "cinema", "C2"},
		{"N6", "restaurant", "R2"},
		{"N6", "bus", "N5"},
		{"N6", "tram", "N3"},
	}
	for _, x := range edges {
		g.MustAddEdge(graph.NodeID(x.from), graph.Label(x.label), graph.NodeID(x.to))
	}
	for i := 1; i <= 6; i++ {
		mustSetAttr(g, graph.NodeID(fmt.Sprintf("N%d", i)), "kind", "neighborhood")
	}
	mustSetAttr(g, "C1", "kind", "cinema")
	mustSetAttr(g, "C2", "kind", "cinema")
	mustSetAttr(g, "R1", "kind", "restaurant")
	mustSetAttr(g, "R2", "kind", "restaurant")
	return g
}

func mustSetAttr(g *graph.Graph, id graph.NodeID, key, value string) {
	if err := g.SetAttr(id, key, value); err != nil {
		panic(err)
	}
}

// Figure1GoalQuery returns the paper's running goal query
// (tram+bus)*.cinema.
func Figure1GoalQuery() *regex.Expr {
	return regex.MustParse("(tram+bus)*.cinema")
}

// Figure1Examples returns the paper's example labels: positives N2 and N6,
// negative N5, together with the validated paths quoted in Section 2.
func Figure1Examples() (positives map[graph.NodeID][]string, negatives []graph.NodeID) {
	positives = map[graph.NodeID][]string{
		"N2": {"bus", "tram", "cinema"},
		"N6": {"cinema"},
	}
	negatives = []graph.NodeID{"N5"}
	return positives, negatives
}

// TransportOptions parameterises the synthetic geographical network
// generator. The generated graph mimics the structure of Figure 1 at
// scale: a grid of neighbourhoods connected by tram and bus lines, each
// neighbourhood optionally hosting facility nodes (cinema, restaurant,
// museum, park) reachable by a facility-labelled edge.
type TransportOptions struct {
	// Rows and Cols shape the neighbourhood grid. Defaults: 4x4.
	Rows, Cols int
	// TramLines and BusLines are how many straight lines of each kind run
	// across the grid. Defaults: Rows tram lines and Cols bus lines.
	TramLines, BusLines int
	// FacilityRate is the probability that a neighbourhood hosts a given
	// facility. Default 0.25.
	FacilityRate float64
	// Facilities lists facility labels. Default cinema, restaurant,
	// museum, park.
	Facilities []string
	// Seed drives all randomness.
	Seed int64
}

func (o TransportOptions) withDefaults() TransportOptions {
	if o.Rows <= 0 {
		o.Rows = 4
	}
	if o.Cols <= 0 {
		o.Cols = 4
	}
	if o.TramLines <= 0 {
		o.TramLines = o.Rows
	}
	if o.BusLines <= 0 {
		o.BusLines = o.Cols
	}
	if o.FacilityRate <= 0 {
		o.FacilityRate = 0.25
	}
	if len(o.Facilities) == 0 {
		o.Facilities = []string{"cinema", "restaurant", "museum", "park"}
	}
	return o
}

// Transport generates a synthetic geographical transport network.
func Transport(opts TransportOptions) *graph.Graph {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	g := graph.New()
	node := func(r, c int) graph.NodeID {
		return graph.NodeID(fmt.Sprintf("N%d_%d", r, c))
	}
	for r := 0; r < opts.Rows; r++ {
		for c := 0; c < opts.Cols; c++ {
			g.MustAddNode(node(r, c))
			mustSetAttr(g, node(r, c), "kind", "neighborhood")
		}
	}
	// Tram lines run along rows, bus lines along columns; both directions
	// with occasional gaps so that not every neighbourhood reaches every
	// facility.
	for r := 0; r < opts.TramLines && r < opts.Rows; r++ {
		for c := 0; c+1 < opts.Cols; c++ {
			if rng.Float64() < 0.85 {
				g.MustAddEdge(node(r, c), "tram", node(r, c+1))
			}
			if rng.Float64() < 0.6 {
				g.MustAddEdge(node(r, c+1), "tram", node(r, c))
			}
		}
	}
	for c := 0; c < opts.BusLines && c < opts.Cols; c++ {
		for r := 0; r+1 < opts.Rows; r++ {
			if rng.Float64() < 0.85 {
				g.MustAddEdge(node(r, c), "bus", node(r+1, c))
			}
			if rng.Float64() < 0.6 {
				g.MustAddEdge(node(r+1, c), "bus", node(r, c))
			}
		}
	}
	// Facilities.
	for r := 0; r < opts.Rows; r++ {
		for c := 0; c < opts.Cols; c++ {
			for _, f := range opts.Facilities {
				if rng.Float64() < opts.FacilityRate {
					id := graph.NodeID(fmt.Sprintf("%s_%d_%d", f, r, c))
					g.MustAddEdge(node(r, c), graph.Label(f), id)
					mustSetAttr(g, id, "kind", f)
				}
			}
		}
	}
	return g
}

// RandomOptions parameterises the uniform random labelled graph generator.
type RandomOptions struct {
	// Nodes is the number of nodes. Default 100.
	Nodes int
	// AvgDegree is the average out-degree. Default 3.
	AvgDegree float64
	// Alphabet lists the edge labels. Default {a, b, c, d}.
	Alphabet []string
	// Seed drives all randomness.
	Seed int64
}

func (o RandomOptions) withDefaults() RandomOptions {
	if o.Nodes <= 0 {
		o.Nodes = 100
	}
	if o.AvgDegree <= 0 {
		o.AvgDegree = 3
	}
	if len(o.Alphabet) == 0 {
		o.Alphabet = []string{"a", "b", "c", "d"}
	}
	return o
}

// Random generates a uniform random labelled graph.
func Random(opts RandomOptions) *graph.Graph {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	g := graph.New()
	ids := make([]graph.NodeID, opts.Nodes)
	for i := range ids {
		ids[i] = graph.NodeID(fmt.Sprintf("v%d", i))
		g.MustAddNode(ids[i])
	}
	edges := int(float64(opts.Nodes) * opts.AvgDegree)
	for i := 0; i < edges; i++ {
		from := ids[rng.Intn(len(ids))]
		to := ids[rng.Intn(len(ids))]
		label := graph.Label(opts.Alphabet[rng.Intn(len(opts.Alphabet))])
		g.MustAddEdge(from, label, to)
	}
	return g
}

// ScaleFreeOptions parameterises the preferential-attachment generator that
// stands in for the biological networks of the companion paper.
type ScaleFreeOptions struct {
	// Nodes is the number of nodes. Default 100.
	Nodes int
	// EdgesPerNode is how many edges each new node attaches. Default 2.
	EdgesPerNode int
	// Alphabet lists the edge labels. Default {interacts, regulates,
	// binds, inhibits}.
	Alphabet []string
	// Seed drives all randomness.
	Seed int64
}

func (o ScaleFreeOptions) withDefaults() ScaleFreeOptions {
	if o.Nodes <= 0 {
		o.Nodes = 100
	}
	if o.EdgesPerNode <= 0 {
		o.EdgesPerNode = 2
	}
	if len(o.Alphabet) == 0 {
		o.Alphabet = []string{"interacts", "regulates", "binds", "inhibits"}
	}
	return o
}

// ScaleFree generates a labelled graph by preferential attachment
// (Barabási–Albert style), producing the heavy-tailed degree distribution
// typical of protein-interaction networks.
func ScaleFree(opts ScaleFreeOptions) *graph.Graph {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	g := graph.New()
	id := func(i int) graph.NodeID { return graph.NodeID(fmt.Sprintf("p%d", i)) }
	// Repeated-targets list implements preferential attachment.
	var targets []graph.NodeID
	g.MustAddNode(id(0))
	targets = append(targets, id(0))
	for i := 1; i < opts.Nodes; i++ {
		g.MustAddNode(id(i))
		for k := 0; k < opts.EdgesPerNode; k++ {
			to := targets[rng.Intn(len(targets))]
			label := graph.Label(opts.Alphabet[rng.Intn(len(opts.Alphabet))])
			g.MustAddEdge(id(i), label, to)
			// Occasionally add a back edge to create cycles, as in real
			// interaction networks.
			if rng.Float64() < 0.3 {
				g.MustAddEdge(to, graph.Label(opts.Alphabet[rng.Intn(len(opts.Alphabet))]), id(i))
			}
			targets = append(targets, to, id(i))
		}
	}
	return g
}
