// A companion-paper-style scenario on a biological-looking network: a
// scale-free protein-interaction graph (generated in-repo, standing in for
// a real interactome) on which a biologist specifies the query
// (interacts+regulates)*.binds by labelling a handful of proteins —
// including a run with a noisy user in the static-labelling scenario, where
// the system detects the inconsistent labels.
//
//	go run ./examples/biological
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/regex"
	"repro/internal/user"
)

func main() {
	g := dataset.ScaleFree(dataset.ScaleFreeOptions{Nodes: 400, EdgesPerNode: 2, Seed: 3})
	sys := core.New(g)
	stats := g.ComputeStats()
	fmt.Printf("protein-interaction network: %d nodes, %d edges, max in-degree %d (hub proteins)\n",
		stats.Nodes, stats.Edges, stats.MaxInDegree)

	goal := regex.MustParse("(interacts+regulates)*.binds")
	answer := sys.Evaluate(goal)
	fmt.Printf("goal query %s selects %d proteins\n\n", goal, len(answer.Nodes))

	// Interactive specification with the hypothesis-aware strategy.
	tr, err := sys.InteractiveSession(sys.SimulateUser(goal), core.SessionConfig{
		Strategy:       "disagreement",
		PathValidation: true,
		MaxPathLength:  4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("interactive session: %d labels (+%d propagated), halt=%s\n",
		tr.Labels(), tr.ImpliedTotal, tr.Halt)
	fmt.Printf("learned query: %s\n", tr.Final)
	fmt.Printf("returns the goal answer set: %v\n\n", sys.SameAnswerSet(tr.Final, goal))

	// Static labelling with a sloppy user: 20% of labels are wrong. The
	// system detects that the sample has become inconsistent instead of
	// silently learning a wrong query.
	noisy := user.NewNoisy(sys.SimulateUser(goal), 0.2, 99)
	static := sys.StaticSession(noisy, user.NewRandomChoice(99), 40)
	fmt.Printf("static labelling with a 20%% error rate: %d labels, inconsistent=%v, satisfied=%v\n",
		static.Labels, static.Inconsistent, static.Satisfied)
	if static.Inconsistent {
		fmt.Println("GPS reported the inconsistency — in the demo the user would now revisit her labels.")
	} else if static.Final != nil {
		fmt.Printf("query learned despite the noise: %s\n", static.Final)
	}
}
