package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/learn"
	"repro/internal/regex"
	"repro/internal/user"
)

func TestEvaluateFigure1(t *testing.T) {
	sys := New(dataset.Figure1())
	res := sys.Evaluate(dataset.Figure1GoalQuery())
	if len(res.Nodes) != 4 {
		t.Fatalf("selected = %v", res.Nodes)
	}
	for _, node := range res.Nodes {
		w, ok := res.Witnesses[node]
		if !ok {
			t.Fatalf("no witness for %s", node)
		}
		if len(w) == 0 && !res.Query.Nullable() {
			t.Fatalf("empty witness for %s under a non-nullable query", node)
		}
	}
}

func TestNewWithShardedEvaluation(t *testing.T) {
	seq := New(dataset.Figure1())
	par := NewWith(dataset.Figure1(), Config{EvalWorkers: 4, CacheCapacity: 8})
	q := dataset.Figure1GoalQuery()
	a, b := seq.Evaluate(q), par.Evaluate(q)
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("sharded system selected %v, sequential %v", b.Nodes, a.Nodes)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("sharded system selected %v, sequential %v", b.Nodes, a.Nodes)
		}
	}
}

func TestEvaluateString(t *testing.T) {
	sys := New(dataset.Figure1())
	res, err := sys.EvaluateString("cinema")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 2 {
		t.Fatalf("cinema selects %v", res.Nodes)
	}
	if _, err := sys.EvaluateString("((("); err == nil {
		t.Fatal("invalid query should error")
	}
}

func TestLearnFromExamples(t *testing.T) {
	sys := New(dataset.Figure1())
	sample := learn.NewSample()
	pos, negs := dataset.Figure1Examples()
	for n, w := range pos {
		sample.AddPositive(n, w)
	}
	for _, n := range negs {
		sample.AddNegative(n)
	}
	res, err := sys.LearnFromExamples(sample)
	if err != nil {
		t.Fatal(err)
	}
	if !EquivalentQueries(res.Query, dataset.Figure1GoalQuery()) {
		t.Fatalf("learned %q, want goal-equivalent", res.Query)
	}
}

func TestInteractiveSessionFacade(t *testing.T) {
	sys := New(dataset.Figure1())
	goal := dataset.Figure1GoalQuery()
	u := sys.SimulateUser(goal)
	tr, err := sys.InteractiveSession(u, SessionConfig{PathValidation: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Final == nil || !sys.SameAnswerSet(tr.Final, goal) {
		t.Fatalf("interactive session did not reach the goal answer set: %v", tr.Final)
	}
	if _, err := sys.InteractiveSession(u, SessionConfig{Strategy: "bogus"}); err == nil {
		t.Fatal("unknown strategy must error")
	}
	for _, name := range []string{"random", "hybrid", "informative", "disagreement", ""} {
		if _, err := strategyByName(SessionConfig{Strategy: name}); err != nil {
			t.Fatalf("strategy %q should resolve: %v", name, err)
		}
	}
}

func TestStaticSessionFacade(t *testing.T) {
	sys := New(dataset.Figure1())
	u := sys.SimulateUser(regex.MustParse("restaurant"))
	res := sys.StaticSession(u, user.NewRandomChoice(2), 5)
	if res.Labels == 0 || res.Labels > 5 {
		t.Fatalf("labels = %d", res.Labels)
	}
}

func TestSameAnswerSetAndEquivalence(t *testing.T) {
	sys := New(dataset.Figure1())
	a := regex.MustParse("(tram+bus)*.cinema")
	b := regex.MustParse("(bus+tram)*.cinema")
	if !EquivalentQueries(a, b) {
		t.Fatal("commutative union should be equivalent")
	}
	if !sys.SameAnswerSet(a, b) {
		t.Fatal("equivalent queries share the answer set")
	}
	c := regex.MustParse("bus*.cinema")
	if EquivalentQueries(a, c) {
		t.Fatal("different languages")
	}
	if !sys.SameAnswerSet(a, c) {
		t.Fatal("on Figure 1, bus*.cinema happens to select the same nodes")
	}
	if sys.SameAnswerSet(a, regex.MustParse("restaurant")) {
		t.Fatal("different answer sets")
	}
	if sys.Graph().NumNodes() != 10 {
		t.Fatal("Graph accessor")
	}
}
