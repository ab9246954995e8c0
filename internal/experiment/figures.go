package experiment

import (
	"fmt"

	"repro/internal/automaton"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/interactive"
	"repro/internal/learn"
	"repro/internal/regex"
	"repro/internal/rpq"
	"repro/internal/stats"
	"repro/internal/user"
)

// Figure1Learning reproduces the motivating example (Figure 1): given the
// paper's examples — positives N2 and N6 with their validated paths,
// negative N5 — the learner must construct a query language-equivalent to
// (tram+bus)*.cinema. The table also shows what happens without path
// validation (the learner picks its own witnesses) and without
// generalisation (the raw disjunction of witnesses).
func Figure1Learning(cfg Config) *stats.Table {
	g := dataset.Figure1()
	goal := dataset.Figure1GoalQuery()
	table := stats.NewTable(
		"Figure 1 — learning the goal query (tram+bus)*.cinema from examples {N2:+, N6:+, N5:-}",
		"variant", "learned query", "consistent", "goal-equivalent", "merges")

	type variant struct {
		name      string
		validated bool
		opts      learn.Options
	}
	variants := []variant{
		{"validated paths + generalisation", true, learn.Options{}},
		{"validated paths, no generalisation", true, learn.Options{DisableGeneralization: true}},
		{"auto witnesses (no validation)", false, learn.Options{}},
	}
	for _, v := range variants {
		sample := learn.NewSample()
		pos, negs := dataset.Figure1Examples()
		for n, w := range pos {
			if v.validated {
				sample.AddPositive(n, w)
			} else {
				sample.AddPositive(n, nil)
			}
		}
		for _, n := range negs {
			sample.AddNegative(n)
		}
		res, err := learn.Learn(g, sample, v.opts)
		if err != nil {
			table.AddRow(v.name, "error: "+err.Error(), "no", "no", 0)
			continue
		}
		equivalent := automaton.EquivalentNFA(
			automaton.FromRegex(res.Query), automaton.FromRegex(goal))
		table.AddRow(v.name, res.Query.String(),
			boolCell(learn.Consistent(g, res.Query, sample)),
			boolCell(equivalent), res.Merges)
	}
	return table
}

// figure2Goal is the goal query used by the transport-network experiments.
func figure2Goal() *regex.Expr { return regex.MustParse("(tram+bus)*.cinema") }

// transportSizes returns the grid sizes used by the interactive
// experiments.
func transportSizes(cfg Config) []int {
	if cfg.Quick {
		return []int{3, 4}
	}
	return []int{3, 4, 6, 8, 10}
}

// InteractiveVsStatic reproduces the point of Figure 2 and of the first two
// demonstration scenarios: guided interaction needs far fewer labels than
// unguided (static) labelling to reach the user's goal query. For each
// graph size it reports the average number of labels each approach needed
// (static runs are capped at the number of nodes).
func InteractiveVsStatic(cfg Config) *stats.Table {
	goal := figure2Goal()
	table := stats.NewTable(
		"Figure 2 — labels to reach the goal: interactive vs static labelling",
		"grid", "nodes", "interactive labels", "interactive converged", "static labels", "static converged", "static/interactive")
	for _, size := range transportSizes(cfg) {
		var interLabels, staticLabels []float64
		interConverged, staticConverged := 0, 0
		reps := cfg.repetitions()
		for rep := 0; rep < reps; rep++ {
			seed := cfg.Seed + int64(rep)
			g := dataset.Transport(dataset.TransportOptions{Rows: size, Cols: size, Seed: seed, FacilityRate: 0.5})
			if len(rpq.Evaluate(g, goal)) == 0 {
				continue
			}
			// Interactive: informative strategy with path validation.
			u := user.NewSimulated(g, goal)
			tr, err := interactive.Run(g, u, interactive.Options{
				PathValidation:  true,
				MaxInteractions: g.NumNodes(),
				Learn:           learn.Options{MaxPathLength: pathBound(size)},
			})
			if err == nil {
				interLabels = append(interLabels, float64(tr.Labels()))
				if tr.Halt == interactive.HaltSatisfied {
					interConverged++
				}
			}
			// Static: the user explores in random order without guidance.
			su := user.NewSimulated(g, goal)
			sres := interactive.RunStatic(g, su, interactive.StaticOptions{
				Choice: user.NewRandomChoice(seed),
				Learn:  learn.Options{MaxPathLength: pathBound(size)},
			})
			labels := float64(sres.Labels)
			if !sres.Satisfied {
				labels = float64(g.NumNodes())
			} else {
				staticConverged++
			}
			staticLabels = append(staticLabels, labels)
		}
		is := stats.Summarize(interLabels)
		ss := stats.Summarize(staticLabels)
		nodes := dataset.Transport(dataset.TransportOptions{Rows: size, Cols: size, Seed: cfg.Seed, FacilityRate: 0.5}).NumNodes()
		table.AddRow(fmt.Sprintf("%dx%d", size, size), nodes,
			is.Mean, fmt.Sprintf("%d/%d", interConverged, reps),
			ss.Mean, fmt.Sprintf("%d/%d", staticConverged, reps),
			ratioCell(ss.Mean, is.Mean))
	}
	return table
}

// mustStrategy returns the strategy StrategyByName gives the name, which
// must be one it knows.
func mustStrategy(name string, seed int64) interactive.Strategy {
	s, err := interactive.StrategyByName(name, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// pathBound picks the witness/informativeness path-length bound so that a
// corner neighbourhood of a size×size grid can still reach a facility.
func pathBound(gridSize int) int {
	b := 2*(gridSize-1) + 1
	if b < learn.DefaultMaxPathLength {
		return learn.DefaultMaxPathLength
	}
	if b > 8 {
		return 8
	}
	return b
}

// NeighborhoodGrowth reproduces Figure 3(a,b): the size of the fragment
// shown to the user as she zooms out, compared with the size of the whole
// graph — the quantity that makes interactive visualisation feasible at
// all. Fragments are averaged over every node of the graph.
func NeighborhoodGrowth(cfg Config) *stats.Table {
	table := stats.NewTable(
		"Figure 3(a,b) — fragment size by zoom radius (averaged over centre nodes)",
		"graph", "graph nodes", "radius", "fragment nodes", "fragment edges", "frontier nodes", "fraction of graph")
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"figure1", dataset.Figure1()},
		{"transport-4x4", dataset.Transport(dataset.TransportOptions{Rows: 4, Cols: 4, Seed: cfg.Seed, FacilityRate: 0.5})},
	}
	if !cfg.Quick {
		graphs = append(graphs, struct {
			name string
			g    *graph.Graph
		}{"transport-10x10", dataset.Transport(dataset.TransportOptions{Rows: 10, Cols: 10, Seed: cfg.Seed, FacilityRate: 0.5})})
	}
	for _, entry := range graphs {
		for radius := 1; radius <= 4; radius++ {
			var nodes, edges, frontier []float64
			for _, id := range entry.g.Nodes() {
				n := entry.g.NeighborhoodAround(id, radius, graph.NeighborhoodOptions{Directed: true})
				nodes = append(nodes, float64(n.Fragment.NumNodes()))
				edges = append(edges, float64(n.Fragment.NumEdges()))
				frontier = append(frontier, float64(len(n.Frontier)))
			}
			ns := stats.Summarize(nodes)
			es := stats.Summarize(edges)
			fs := stats.Summarize(frontier)
			table.AddRow(entry.name, entry.g.NumNodes(), radius, ns.Mean, es.Mean, fs.Mean,
				fmt.Sprintf("%.0f%%", 100*ns.Mean/float64(entry.g.NumNodes())))
		}
	}
	return table
}

// PathValidationEffect reproduces the purpose of Figure 3(c) and of the
// third demonstration scenario: with path validation the learned query is
// built from the paths the user actually cares about, so it matches the
// goal more closely. The table reports, over several goal queries and
// random transport networks, how often each variant (i) returns the goal
// answer set on the instance and (ii) learns a query whose *language* is
// equivalent to the goal — the paper's stronger claim — together with the
// labels needed.
func PathValidationEffect(cfg Config) *stats.Table {
	table := stats.NewTable(
		"Figure 3(c) — goal recovery with and without path validation",
		"goal query", "runs",
		"answer set (with)", "answer set (without)",
		"language-equal (with)", "language-equal (without)",
		"labels (with)", "labels (without)")
	goals := []*regex.Expr{
		regex.MustParse("cinema"),
		regex.MustParse("tram.cinema"),
		regex.MustParse("(tram+bus)*.cinema"),
		regex.MustParse("(tram+bus)*.restaurant"),
		regex.MustParse("bus.(tram+bus)*.cinema"),
	}
	reps := cfg.repetitions()
	size := 4
	for _, goal := range goals {
		goalNFA := automaton.FromRegex(goal)
		withSet, withoutSet, withLang, withoutLang, runs := 0, 0, 0, 0, 0
		var withLabels, withoutLabels []float64
		for rep := 0; rep < reps; rep++ {
			seed := cfg.Seed + int64(rep)
			g := dataset.Transport(dataset.TransportOptions{Rows: size, Cols: size, Seed: seed, FacilityRate: 0.4})
			if len(rpq.Evaluate(g, goal)) == 0 {
				continue
			}
			runs++
			for _, withValidation := range []bool{true, false} {
				u := user.NewSimulated(g, goal)
				tr, err := interactive.Run(g, u, interactive.Options{
					PathValidation:  withValidation,
					MaxInteractions: g.NumNodes(),
					Learn:           learn.Options{MaxPathLength: pathBound(size)},
				})
				if err != nil || tr.Final == nil {
					continue
				}
				set := sameAnswerSet(g, tr.Final, goal)
				lang := automaton.EquivalentNFA(automaton.FromRegex(tr.Final), goalNFA)
				if withValidation {
					withLabels = append(withLabels, float64(tr.Labels()))
					if set {
						withSet++
					}
					if lang {
						withLang++
					}
				} else {
					withoutLabels = append(withoutLabels, float64(tr.Labels()))
					if set {
						withoutSet++
					}
					if lang {
						withoutLang++
					}
				}
			}
		}
		table.AddRow(goal.String(), runs,
			fmt.Sprintf("%d/%d", withSet, runs),
			fmt.Sprintf("%d/%d", withoutSet, runs),
			fmt.Sprintf("%d/%d", withLang, runs),
			fmt.Sprintf("%d/%d", withoutLang, runs),
			stats.Summarize(withLabels).Mean,
			stats.Summarize(withoutLabels).Mean)
	}
	return table
}

// sameAnswerSet reports whether the two queries select exactly the same
// nodes of the graph.
func sameAnswerSet(g *graph.Graph, a, b *regex.Expr) bool {
	ea, eb := rpq.New(g, a), rpq.New(g, b)
	for _, n := range g.Nodes() {
		if ea.Selects(n) != eb.Selects(n) {
			return false
		}
	}
	return true
}
