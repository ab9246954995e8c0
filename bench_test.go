// Package repro's root benchmark suite: one testing.B benchmark per
// experiment of cmd/gpsbench (each regenerates the corresponding table in
// the quick configuration), plus micro-benchmarks for the performance-
// critical primitives (RPQ evaluation, learning, neighbourhood extraction,
// path enumeration).
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/graph"
	"repro/internal/interactive"
	"repro/internal/learn"
	"repro/internal/paths"
	"repro/internal/regex"
	"repro/internal/rpq"
	"repro/internal/user"
)

func benchConfig() experiment.Config { return experiment.Config{Quick: true, Seed: 1} }

// --- one benchmark per paper artefact --------------------------------------

// BenchmarkFigure1Learning regenerates experiment F1 (Figure 1, the
// motivating example).
func BenchmarkFigure1Learning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiment.Figure1Learning(benchConfig()); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure2Interactions regenerates experiment F2 (Figure 2,
// interactive vs static labelling).
func BenchmarkFigure2Interactions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiment.InteractiveVsStatic(benchConfig()); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure3Neighborhood regenerates experiment F3a (Figure 3(a,b),
// neighbourhood growth under zooming).
func BenchmarkFigure3Neighborhood(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiment.NeighborhoodGrowth(benchConfig()); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure3PathValidation regenerates experiment F3c (Figure 3(c),
// the effect of path validation).
func BenchmarkFigure3PathValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiment.PathValidationEffect(benchConfig()); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkInteractionsVsQuerySize regenerates experiment E1.
func BenchmarkInteractionsVsQuerySize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiment.InteractionsVsQuerySize(benchConfig()); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkLearningTimeVsGraphSize regenerates experiment E2.
func BenchmarkLearningTimeVsGraphSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiment.LearningTimeVsGraphSize(benchConfig()); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkStrategyComparison regenerates experiment E3.
func BenchmarkStrategyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiment.StrategyComparison(benchConfig()); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkAblationWitnessOrder regenerates ablation AB1.
func BenchmarkAblationWitnessOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiment.AblationWitnessOrder(benchConfig()); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkAblationMergeOrder regenerates ablation AB2.
func BenchmarkAblationMergeOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiment.AblationMergeOrder(benchConfig()); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkAblationNeighborhoodRadius regenerates ablation AB3.
func BenchmarkAblationNeighborhoodRadius(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiment.AblationNeighborhoodRadius(benchConfig()); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- micro-benchmarks on the primitives -------------------------------------

func benchTransport(b *testing.B, size int) *graph.Graph {
	b.Helper()
	return dataset.Transport(dataset.TransportOptions{Rows: size, Cols: size, Seed: 1, FacilityRate: 0.4})
}

// BenchmarkRPQEvaluation measures product-graph evaluation of the goal
// query on a 10x10 transport network.
func BenchmarkRPQEvaluation(b *testing.B) {
	g := benchTransport(b, 10)
	q := regex.MustParse("(tram+bus)*.cinema")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(rpq.Evaluate(g, q)) == 0 {
			b.Fatal("no nodes selected")
		}
	}
}

// BenchmarkRPQEvaluationSharded measures the worker-pool product sweep on
// a 60x60 transport network (large enough to clear the engine's parallel
// threshold), against BenchmarkRPQEvaluationLargeSequential as baseline.
func BenchmarkRPQEvaluationSharded(b *testing.B) {
	g := benchTransport(b, 60)
	q := regex.MustParse("(tram+bus)*.cinema")
	workers := rpq.DefaultWorkers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(rpq.NewWith(g, q, rpq.Options{Workers: workers}).Selected()) == 0 {
			b.Fatal("no nodes selected")
		}
	}
}

// BenchmarkRPQEvaluationLargeSequential is the sequential baseline of
// BenchmarkRPQEvaluationSharded.
func BenchmarkRPQEvaluationLargeSequential(b *testing.B) {
	g := benchTransport(b, 60)
	q := regex.MustParse("(tram+bus)*.cinema")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(rpq.New(g, q).Selected()) == 0 {
			b.Fatal("no nodes selected")
		}
	}
}

// BenchmarkRPQEvaluationCached measures evaluation through an EngineCache,
// the configuration the interactive loop actually runs in (the same
// candidate queries recur across iterations).
func BenchmarkRPQEvaluationCached(b *testing.B) {
	g := benchTransport(b, 10)
	q := regex.MustParse("(tram+bus)*.cinema")
	cache := rpq.NewCache(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(cache.Get(q).Selected()) == 0 {
			b.Fatal("no nodes selected")
		}
	}
}

// BenchmarkRPQWitness measures witness-path extraction for every selected
// node.
func BenchmarkRPQWitness(b *testing.B) {
	g := benchTransport(b, 10)
	q := regex.MustParse("(tram+bus)*.cinema")
	engine := rpq.New(g, q)
	nodes := engine.Selected()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range nodes {
			if _, ok := engine.Witness(n); !ok {
				b.Fatal("missing witness")
			}
		}
	}
}

// BenchmarkLearnFigure1 measures one learning call on the paper's example.
func BenchmarkLearnFigure1(b *testing.B) {
	g := dataset.Figure1()
	pos, negs := dataset.Figure1Examples()
	sample := learn.NewSample()
	for n, w := range pos {
		sample.AddPositive(n, w)
	}
	for _, n := range negs {
		sample.AddNegative(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := learn.Learn(g, sample, learn.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLearnTransport measures learning on a 6x6 transport network with
// eight examples.
func BenchmarkLearnTransport(b *testing.B) {
	g := benchTransport(b, 6)
	goal := regex.MustParse("(tram+bus)*.cinema")
	engine := rpq.New(g, goal)
	sample := learn.NewSample()
	posSeen, negSeen := 0, 0
	for _, n := range g.Nodes() {
		if engine.Selects(n) && posSeen < 4 {
			if w, ok := user.WitnessWord(g, goal, n, 6); ok {
				sample.AddPositive(n, w)
				posSeen++
			}
		} else if !engine.Selects(n) && negSeen < 4 {
			sample.AddNegative(n)
			negSeen++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := learn.Learn(g, sample, learn.Options{MaxPathLength: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNeighborhoodExtraction measures radius-2 fragment extraction on
// a 10x10 transport network.
func BenchmarkNeighborhoodExtraction(b *testing.B) {
	g := benchTransport(b, 10)
	nodes := g.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := g.NeighborhoodAround(nodes[i%len(nodes)], 2, graph.NeighborhoodOptions{Directed: true})
		if n.Fragment.NumNodes() == 0 {
			b.Fatal("empty fragment")
		}
	}
}

// BenchmarkWordEnumeration measures bounded word enumeration (the
// informativeness primitive) on a 10x10 transport network.
func BenchmarkWordEnumeration(b *testing.B) {
	g := benchTransport(b, 10)
	nodes := g.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(paths.Words(g, nodes[i%len(nodes)], 5)) == 0 {
			b.Fatal("no words")
		}
	}
}

// BenchmarkInteractiveSession measures a full simulated interactive session
// on a 4x4 transport network.
func BenchmarkInteractiveSession(b *testing.B) {
	g := benchTransport(b, 4)
	goal := regex.MustParse("(tram+bus)*.cinema")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := user.NewSimulated(g, goal)
		tr, err := interactive.Run(g, u, interactive.Options{
			PathValidation:  true,
			MaxInteractions: g.NumNodes(),
			Learn:           learn.Options{MaxPathLength: 7},
		})
		if err != nil {
			b.Fatal(err)
		}
		if tr.Final == nil {
			b.Fatal("no query learned")
		}
	}
}

// BenchmarkLearnTransportReference is BenchmarkLearnTransport forced onto
// the map-based reference generalization path (the equivalence oracle),
// against which the dense engine's speedup is gated in CI (see gpsbench
// -learnbench / -learngate).
func BenchmarkLearnTransportReference(b *testing.B) {
	g := benchTransport(b, 6)
	goal := regex.MustParse("(tram+bus)*.cinema")
	engine := rpq.New(g, goal)
	sample := learn.NewSample()
	posSeen, negSeen := 0, 0
	for _, n := range g.Nodes() {
		if engine.Selects(n) && posSeen < 4 {
			if w, ok := user.WitnessWord(g, goal, n, 6); ok {
				sample.AddPositive(n, w)
				posSeen++
			}
		} else if !engine.Selects(n) && negSeen < 4 {
			sample.AddNegative(n)
			negSeen++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := learn.Learn(g, sample, learn.Options{MaxPathLength: 6, Reference: true}); err != nil {
			b.Fatal(err)
		}
	}
}
