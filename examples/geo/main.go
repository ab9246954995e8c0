// The paper's motivating example (Figure 1) end to end: the geographical
// graph, the goal query (tram+bus)*.cinema, its answer set and witness
// paths, and the two-step learning algorithm run on the paper's examples
// {N2:+, N6:+, N5:-} — with and without path validation.
//
//	go run ./examples/geo
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/learn"
	"repro/internal/paths"
	"repro/internal/render"
)

func main() {
	g := dataset.Figure1()
	sys := core.New(g)
	goal := dataset.Figure1GoalQuery()

	fmt.Println("=== Figure 1: the geographical graph database ===")
	fmt.Print(g.Text())

	fmt.Println("\n=== Evaluating the goal query ===")
	res := sys.Evaluate(goal)
	fmt.Printf("%s selects %v\n", goal, res.Nodes)
	for _, node := range res.Nodes {
		fmt.Printf("  %s: %s\n", node, paths.Path{Start: node, Edges: res.Witnesses[node]})
	}

	fmt.Println("\n=== The fragment shown for N2 at radius 2, then zoomed to 3 ===")
	opts := graph.NeighborhoodOptions{Directed: true}
	n2 := g.NeighborhoodAround("N2", 2, opts)
	n3 := g.NeighborhoodAround("N2", 3, opts)
	fmt.Print(render.NeighborhoodASCII(n2, nil))
	fmt.Println("-- after zooming out (new parts marked with +) --")
	fmt.Print(render.NeighborhoodASCII(n3, n2))

	fmt.Println("\n=== The prefix tree of N2's candidate paths (Figure 3c) ===")
	words := paths.UncoveredWords(g, "N2", []graph.NodeID{"N5"}, 3)
	fmt.Print(render.PrefixTree(words, []string{"bus", "bus", "cinema"}))

	fmt.Println("\n=== Learning from the paper's examples ===")
	positives, negatives := dataset.Figure1Examples()

	// With the validated paths of interest (third demo scenario).
	validated := learn.NewSample()
	for n, w := range positives {
		validated.AddPositive(n, w)
	}
	for _, n := range negatives {
		validated.AddNegative(n)
	}
	withVal, err := sys.LearnFromExamples(validated)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with path validation:    %s (goal-equivalent: %v)\n",
		withVal.Query, core.EquivalentQueries(withVal.Query, goal))

	// Without path validation: the learner picks the shortest uncovered
	// witness itself (second demo scenario) — consistent, but not the goal.
	auto := learn.NewSample()
	for n := range positives {
		auto.AddPositive(n, nil)
	}
	for _, n := range negatives {
		auto.AddNegative(n)
	}
	withoutVal, err := sys.LearnFromExamples(auto)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("without path validation: %s (goal-equivalent: %v)\n",
		withoutVal.Query, core.EquivalentQueries(withoutVal.Query, goal))
	fmt.Printf("auto-chosen witnesses:   %s\n", witnessSummary(withoutVal))
}

// witnessSummary lists the witness of each positive node, in node order.
func witnessSummary(res *learn.Result) string {
	var parts []string
	for _, node := range slices.Sorted(maps.Keys(res.Witnesses)) {
		parts = append(parts, fmt.Sprintf("%s=%s", node, strings.Join(res.Witnesses[node], ".")))
	}
	return strings.Join(parts, "  ")
}
