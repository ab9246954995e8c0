package experiment

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/interactive"
	"repro/internal/learn"
	"repro/internal/regex"
	"repro/internal/rpq"
	"repro/internal/stats"
	"repro/internal/user"
)

// transportGoalWorkload returns goal queries over the transport alphabet in
// increasing size, the workload used by the companion-style experiments.
func transportGoalWorkload() []*regex.Expr {
	return []*regex.Expr{
		regex.MustParse("cinema"),
		regex.MustParse("tram.cinema"),
		regex.MustParse("bus*.cinema"),
		regex.MustParse("(tram+bus)*.cinema"),
		regex.MustParse("(tram+bus)*.cinema+restaurant"),
		regex.MustParse("(tram+bus)*.(cinema+museum)"),
	}
}

// InteractionsVsQuerySize measures, per goal query size and per strategy,
// how many labels the interactive session needs before the user is
// satisfied (the learned query returns the goal answer set). It mirrors
// the companion paper's interactions-vs-query-complexity series.
func InteractionsVsQuerySize(cfg Config) *stats.Table {
	table := stats.NewTable(
		"E1 — labels to convergence vs goal query size, per strategy",
		"goal query", "query size", "strategy", "runs", "mean labels", "converged")
	size := 4
	if !cfg.Quick {
		size = 6
	}
	reps := cfg.repetitions()
	for _, goal := range transportGoalWorkload() {
		for _, name := range []string{"random", "informative", "disagreement"} {
			var labels []float64
			converged, runs := 0, 0
			for rep := 0; rep < reps; rep++ {
				seed := cfg.Seed + int64(rep)
				g := dataset.Transport(dataset.TransportOptions{Rows: size, Cols: size, Seed: seed, FacilityRate: 0.4})
				if len(rpq.Evaluate(g, goal)) == 0 {
					continue
				}
				runs++
				u := user.NewSimulated(g, goal)
				tr, err := interactive.Run(g, u, interactive.Options{
					Strategy:        mustStrategy(name, cfg.Seed),
					PathValidation:  true,
					MaxInteractions: g.NumNodes(),
					Learn:           learn.Options{MaxPathLength: pathBound(size)},
				})
				if err != nil {
					continue
				}
				labels = append(labels, float64(tr.Labels()))
				if tr.Halt == interactive.HaltSatisfied {
					converged++
				}
			}
			table.AddRow(goal.String(), goal.Size(), name, runs,
				stats.Summarize(labels).Mean, fmt.Sprintf("%d/%d", converged, runs))
		}
	}
	return table
}

// learningSizes returns the graph sizes used by the learning-time
// experiment.
func learningSizes(cfg Config) []int {
	if cfg.Quick {
		return []int{100, 500, 1000}
	}
	return []int{100, 500, 1000, 5000, 10000, 20000}
}

// LearningTimeVsGraphSize measures, as the graph grows, the wall-clock time
// of (i) one Learn call in which the learner also has to find witness
// paths itself (witness search + prefix-tree construction + consistent
// state merging) and (ii) one full evaluation of the goal query on the
// graph. The shape expected from the paper's polynomial-time claim is a
// roughly linear growth in graph size for both.
func LearningTimeVsGraphSize(cfg Config) *stats.Table {
	table := stats.NewTable(
		"E2 — learning and evaluation time vs graph size (scale-free graphs, goal (interacts+regulates)*.binds, 4+ / 4- examples)",
		"nodes", "edges", "examples", "mean learn time (ms)", "mean eval time (ms)", "learned query consistent")
	goal := regex.MustParse("(interacts+regulates)*.binds")
	for _, n := range learningSizes(cfg) {
		var learnTimes, evalTimes []float64
		consistent := true
		edges := 0
		examples := 0
		for rep := 0; rep < cfg.repetitions(); rep++ {
			g := dataset.ScaleFree(dataset.ScaleFreeOptions{Nodes: n, EdgesPerNode: 2, Seed: cfg.Seed + int64(rep)})
			edges = g.NumEdges()
			sample, ok := sampleFromGoal(g, goal, 4, 4)
			if !ok {
				continue
			}
			// Strip the validated words so that the learner performs the
			// witness search of step 1 itself, which is the graph-dependent
			// part of the algorithm.
			stripped := learn.NewSample()
			for _, p := range sample.PositiveNodes() {
				stripped.AddPositive(p, nil)
			}
			for _, neg := range sample.Negatives {
				stripped.AddNegative(neg)
			}
			examples = stripped.Size()

			start := time.Now()
			res, err := learn.Learn(g, stripped, learn.Options{MaxPathLength: 4})
			learnTimes = append(learnTimes, float64(time.Since(start).Microseconds())/1000)
			if err != nil || !learn.Consistent(g, res.Query, stripped) {
				consistent = false
			}

			start = time.Now()
			if len(rpq.Evaluate(g, goal)) == 0 {
				consistent = false
			}
			evalTimes = append(evalTimes, float64(time.Since(start).Microseconds())/1000)
		}
		table.AddRow(n, edges, examples,
			stats.Summarize(learnTimes).Mean,
			stats.Summarize(evalTimes).Mean,
			boolCell(consistent))
	}
	return table
}

// sampleFromGoal builds a sample of up to maxPos positive and maxNeg
// negative examples according to the goal query's answer set, attaching to
// each positive a witness word of the goal (as a user validating her path
// of interest would).
func sampleFromGoal(g *graph.Graph, goal *regex.Expr, maxPos, maxNeg int) (*learn.Sample, bool) {
	engine := rpq.New(g, goal)
	sample := learn.NewSample()
	pos, neg := 0, 0
	for _, node := range g.Nodes() {
		if engine.Selects(node) {
			if pos >= maxPos {
				continue
			}
			if w, ok := user.WitnessWord(g, goal, node, 4); ok {
				sample.AddPositive(node, w)
				pos++
			}
		} else if neg < maxNeg {
			sample.AddNegative(node)
			neg++
		}
	}
	return sample, pos > 0
}

// StrategyComparison compares the three node-proposal strategies on the
// same transport network: labels to convergence, zoom requests, pruned
// nodes and whether the goal was reached.
func StrategyComparison(cfg Config) *stats.Table {
	table := stats.NewTable(
		"E3 — strategy comparison on a transport network, goal (tram+bus)*.cinema",
		"strategy", "runs", "mean labels", "mean zooms", "mean pruned", "converged")
	size := 4
	if !cfg.Quick {
		size = 6
	}
	goal := figure2Goal()
	reps := cfg.repetitions()
	for _, name := range []string{"random", "informative", "hybrid", "disagreement"} {
		var labels, zooms, pruned []float64
		converged, runs := 0, 0
		for rep := 0; rep < reps; rep++ {
			seed := cfg.Seed + int64(rep)
			g := dataset.Transport(dataset.TransportOptions{Rows: size, Cols: size, Seed: seed, FacilityRate: 0.4})
			if len(rpq.Evaluate(g, goal)) == 0 {
				continue
			}
			runs++
			u := user.NewSimulated(g, goal)
			tr, err := interactive.Run(g, u, interactive.Options{
				Strategy:        mustStrategy(name, seed),
				PathValidation:  true,
				MaxInteractions: g.NumNodes(),
				Learn:           learn.Options{MaxPathLength: pathBound(size)},
			})
			if err != nil {
				continue
			}
			labels = append(labels, float64(tr.Labels()))
			zooms = append(zooms, float64(tr.ZoomsTotal))
			pruned = append(pruned, float64(tr.PrunedTotal))
			if tr.Halt == interactive.HaltSatisfied {
				converged++
			}
		}
		table.AddRow(name, runs,
			stats.Summarize(labels).Mean,
			stats.Summarize(zooms).Mean,
			stats.Summarize(pruned).Mean,
			fmt.Sprintf("%d/%d", converged, runs))
	}
	return table
}
