package interactive

import (
	"context"
	"testing"

	"repro/internal/automaton"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/learn"
	"repro/internal/paths"
	"repro/internal/regex"
	"repro/internal/rpq"
	"repro/internal/user"
)

// cancelingUser cancels the session context from inside its first
// LabelNode callback — modelling a remote client tearing the session down
// while the loop is parked on a question — and then answers positive.
type cancelingUser struct {
	cancel context.CancelFunc
	calls  int
}

func (u *cancelingUser) LabelNode(node graph.NodeID, n *graph.Neighborhood, canZoom bool) user.Decision {
	u.calls++
	u.cancel()
	return user.Positive
}

func (u *cancelingUser) ValidatePath(node graph.NodeID, words [][]string, candidate []string) []string {
	return nil
}

func (u *cancelingUser) Satisfied(learned *regex.Expr) bool { return false }

func TestRunContextCancelDiscardsFabricatedDecision(t *testing.T) {
	g := dataset.Figure1()
	ctx, cancel := context.WithCancel(context.Background())
	u := &cancelingUser{cancel: cancel}
	tr, err := NewSession(g, u, Options{}).RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Halt != HaltCanceled {
		t.Fatalf("halt = %q, want %q", tr.Halt, HaltCanceled)
	}
	if u.calls != 1 {
		t.Fatalf("user was asked %d times after cancellation", u.calls)
	}
	// The positive decision fabricated while canceling must not have been
	// recorded, and no interaction must appear in the transcript.
	if len(tr.Interactions) != 0 || len(tr.Sample.Positives) != 0 || len(tr.Sample.Negatives) != 0 {
		t.Fatalf("canceled session recorded state: %d interactions, sample %+v", len(tr.Interactions), tr.Sample)
	}
}

// pathCancelingUser answers positive, then cancels from inside the
// path-validation callback.
type pathCancelingUser struct {
	cancel context.CancelFunc
}

func (u *pathCancelingUser) LabelNode(node graph.NodeID, n *graph.Neighborhood, canZoom bool) user.Decision {
	return user.Positive
}

func (u *pathCancelingUser) ValidatePath(node graph.NodeID, words [][]string, candidate []string) []string {
	u.cancel()
	return nil
}

func (u *pathCancelingUser) Satisfied(learned *regex.Expr) bool { return false }

func TestRunContextCancelDuringPathValidationRecordsNothing(t *testing.T) {
	g := dataset.Figure1()
	ctx, cancel := context.WithCancel(context.Background())
	u := &pathCancelingUser{cancel: cancel}
	tr, err := NewSession(g, u, Options{PathValidation: true}).RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Halt != HaltCanceled {
		t.Fatalf("halt = %q, want %q", tr.Halt, HaltCanceled)
	}
	if len(tr.Sample.Positives) != 0 {
		t.Fatalf("fabricated validated word entered the sample: %+v", tr.Sample.Positives)
	}
}

func TestRunContextAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := dataset.Figure1()
	u := user.NewSimulated(g, dataset.Figure1GoalQuery())
	tr, err := NewSession(g, u, Options{}).RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Halt != HaltCanceled || len(tr.Interactions) != 0 {
		t.Fatalf("halt = %q with %d interactions, want immediate cancel", tr.Halt, len(tr.Interactions))
	}
}

func TestSessionFigure1WithPathValidationRecoversGoal(t *testing.T) {
	g := dataset.Figure1()
	goal := dataset.Figure1GoalQuery()
	u := user.NewSimulated(g, goal)
	tr, err := Run(g, u, Options{PathValidation: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tr.Final == nil {
		t.Fatal("no query learned")
	}
	if tr.Halt != HaltSatisfied {
		t.Fatalf("halt = %s, want user-satisfied (learned %q after %d labels)", tr.Halt, tr.Final, tr.Labels())
	}
	// The learned query must return the goal answer set on the instance.
	learned := rpq.New(g, tr.Final)
	want := rpq.New(g, goal)
	for _, n := range g.Nodes() {
		if learned.Selects(n) != want.Selects(n) {
			t.Fatalf("learned %q disagrees with goal on %s", tr.Final, n)
		}
	}
	// Interactive labelling should need far fewer labels than the number
	// of nodes.
	if tr.Labels() >= g.NumNodes() {
		t.Fatalf("interactive session used %d labels on a %d-node graph", tr.Labels(), g.NumNodes())
	}
}

func TestSessionFigure1WithoutPathValidationStillConsistent(t *testing.T) {
	g := dataset.Figure1()
	goal := dataset.Figure1GoalQuery()
	u := user.NewSimulated(g, goal)
	tr, err := Run(g, u, Options{PathValidation: false, MaxInteractions: 20})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tr.Final == nil {
		t.Fatal("no query learned")
	}
	// Whatever was learned must be consistent with the collected labels.
	if !learn.Consistent(g, tr.Final, tr.Sample) {
		t.Fatalf("final query %q inconsistent with the sample", tr.Final)
	}
}

func TestSessionTranscriptRecordsZoomsAndWords(t *testing.T) {
	g := dataset.Figure1()
	u := user.NewSimulated(g, dataset.Figure1GoalQuery())
	u.MaxZoom = 3
	tr, err := Run(g, u, Options{PathValidation: true, InitialRadius: 1, MaxRadius: 4})
	if err != nil {
		t.Fatal(err)
	}
	sawPositiveWithWord := false
	for _, inter := range tr.Interactions {
		if inter.Radius < 1 || inter.Radius > 4 {
			t.Fatalf("radius out of range: %+v", inter)
		}
		if inter.Decision == user.Positive && inter.ValidatedWord != nil {
			sawPositiveWithWord = true
			if !regex.MustParse("(tram+bus)*.cinema").Matches(inter.ValidatedWord) {
				t.Fatalf("validated word %v does not match the goal", inter.ValidatedWord)
			}
		}
	}
	if !sawPositiveWithWord {
		t.Fatal("expected at least one positive label with a validated word")
	}
}

func TestSessionStrategiesAllConverge(t *testing.T) {
	g := dataset.Transport(TransportOptionsForTest())
	goal := regex.MustParse("(tram+bus)*.cinema")
	// Skip if the generated graph has no positive node for the goal.
	if len(rpq.Evaluate(g, goal)) == 0 {
		t.Skip("generated transport graph has no cinema reachable")
	}
	strategies := []Strategy{
		NewRandomStrategy(1),
		&InformativeStrategy{},
		&HybridStrategy{},
		&DisagreementStrategy{},
	}
	for _, strat := range strategies {
		u := user.NewSimulated(g, goal)
		tr, err := Run(g, u, Options{Strategy: strat, PathValidation: true, MaxInteractions: 60})
		if err != nil {
			t.Fatalf("strategy %s: %v", strat.Name(), err)
		}
		if tr.Final == nil {
			t.Fatalf("strategy %s learned nothing", strat.Name())
		}
		if !learn.Consistent(g, tr.Final, tr.Sample) {
			t.Fatalf("strategy %s produced an inconsistent query", strat.Name())
		}
		if tr.Strategy != strat.Name() {
			t.Fatalf("transcript strategy name %q != %q", tr.Strategy, strat.Name())
		}
	}
}

// TransportOptionsForTest returns a small deterministic transport network
// used across the interactive tests.
func TransportOptionsForTest() dataset.TransportOptions {
	return dataset.TransportOptions{Rows: 3, Cols: 3, Seed: 42, FacilityRate: 0.4}
}

// turnFor builds the Turn a Machine would hand a strategy on the sample at
// bound k: the open nodes are the unlabelled ones not in excluded.
func turnFor(g *graph.Graph, k int, sample *learn.Sample, excluded ...graph.NodeID) *Turn {
	out := make(map[graph.NodeID]bool)
	for _, id := range excluded {
		out[id] = true
	}
	var open []graph.NodeID
	for _, id := range g.Nodes() {
		if !labeled(sample, id) && !out[id] {
			open = append(open, id)
		}
	}
	return &Turn{Graph: g, K: k, Open: open, Coverage: paths.NewCoverage(g, sample.Negatives, k), Cache: rpq.NewCache(g)}
}

func TestInformativeStrategySkipsUninformativeNodes(t *testing.T) {
	// Build a graph where after one negative label every path of some node
	// is covered, so it must never be proposed.
	g := graph.New()
	g.MustAddEdge("p", "a", "x")
	g.MustAddEdge("p", "b", "y")
	g.MustAddEdge("q", "a", "z") // q's only word "a" will be covered by neg
	g.MustAddEdge("neg", "a", "w")
	sample := learn.NewSample()
	sample.AddNegative("neg")
	s := &InformativeStrategy{}
	node, ok := s.Propose(turnFor(g, 3, sample))
	if !ok {
		t.Fatal("p is informative and should be proposed")
	}
	if node != "p" {
		t.Fatalf("expected p (2 uncovered words), got %s", node)
	}
	// Exclude p: q's single word is covered, sinks have no words, so no
	// informative node remains.
	if n, ok := s.Propose(turnFor(g, 3, sample, "p")); ok {
		t.Fatalf("no informative node should remain, got %s", n)
	}
}

func TestRandomStrategyRespectsExclusions(t *testing.T) {
	g := dataset.Figure1()
	sample := learn.NewSample()
	sample.AddPositive("N1", nil)
	turn := turnFor(g, learn.DefaultMaxPathLength, sample, "N2", "N3")
	s := NewRandomStrategy(9)
	for i := 0; i < 20; i++ {
		node, ok := s.Propose(turn)
		if !ok {
			t.Fatal("nodes remain")
		}
		if node == "N1" || node == "N2" || node == "N3" {
			t.Fatalf("proposed labelled or excluded node %s", node)
		}
	}
	// Nothing open -> no proposal.
	if _, ok := s.Propose(turnFor(g, learn.DefaultMaxPathLength, sample, g.Nodes()...)); ok {
		t.Fatal("no candidate should remain")
	}
}

func TestDisagreementStrategyWithoutHypothesis(t *testing.T) {
	// Without a hypothesis the strategy behaves like the informative one:
	// it must propose an informative node and refuse when none remains.
	g := dataset.Figure1()
	sample := learn.NewSample()
	s := &DisagreementStrategy{}
	node, ok := s.Propose(turnFor(g, 3, sample))
	if !ok || node == "" {
		t.Fatal("proposal expected")
	}
	if _, ok := s.Propose(turnFor(g, 3, sample, g.Nodes()...)); ok {
		t.Fatal("no candidate should remain")
	}
}

func TestDisagreementStrategyTargetsFalsePositives(t *testing.T) {
	// The hypothesis cinema? is nullable, so it wrongly selects the sink
	// nodes; the strategy must propose a hypothesis-selected node with a
	// low uncovered count (a facility sink) rather than a hub
	// neighbourhood.
	g := dataset.Figure1()
	sample := learn.NewSample()
	turn := turnFor(g, 3, sample)
	turn.Hypothesis = regex.MustParse("cinema?")
	node, ok := (&DisagreementStrategy{}).Propose(turn)
	if !ok {
		t.Fatal("proposal expected")
	}
	// The best correction candidates are nodes with exactly one uncovered
	// word (the empty one): the facility sinks C1, C2, R1, R2.
	switch node {
	case "C1", "C2", "R1", "R2":
	default:
		t.Fatalf("expected a facility sink to be proposed, got %s", node)
	}
}

func TestDisagreementStrategyConvergesFast(t *testing.T) {
	// On Figure 1 the disagreement strategy should converge with few
	// labels, never more than the graph has nodes and at least as few as
	// the informative strategy baseline on the same instance.
	g := dataset.Figure1()
	goal := dataset.Figure1GoalQuery()
	run := func(s Strategy) int {
		tr, err := Run(g, user.NewSimulated(g, goal), Options{Strategy: s, PathValidation: true, MaxInteractions: 50})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Halt != HaltSatisfied {
			t.Fatalf("strategy %s did not converge", s.Name())
		}
		return tr.Labels()
	}
	disagreement := run(&DisagreementStrategy{})
	informative := run(&InformativeStrategy{})
	if disagreement > informative {
		t.Fatalf("disagreement (%d labels) should not need more labels than informative (%d) on Figure 1",
			disagreement, informative)
	}
}

func TestHybridStrategyPrefersHighDegree(t *testing.T) {
	g := dataset.Figure1()
	sample := learn.NewSample()
	node, ok := (&HybridStrategy{}).Propose(turnFor(g, learn.DefaultMaxPathLength, sample))
	if !ok {
		t.Fatal("proposal expected")
	}
	// The proposed node must be among the highest out-degree nodes (degree
	// >= 2 in Figure 1).
	if g.OutDegree(node) < 2 {
		t.Fatalf("hybrid strategy proposed low-degree node %s", node)
	}
}

func TestSessionPrunesAfterNegativeLabels(t *testing.T) {
	// A star of identical branches: one negative label covers the words of
	// all sibling branches, which must then be pruned rather than asked.
	g := graph.New()
	for _, n := range []string{"s1", "s2", "s3", "s4"} {
		g.MustAddEdge(graph.NodeID(n), "x", graph.NodeID(n+"_sink"))
	}
	// One special node with a distinct label: the only true positive.
	g.MustAddEdge("p", "y", "p_sink")
	goal := regex.MustParse("y")
	u := user.NewSimulated(g, goal)
	tr, err := Run(g, u, Options{PathValidation: true, MaxInteractions: 30})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Halt != HaltSatisfied {
		t.Fatalf("halt = %s", tr.Halt)
	}
	// Once one s-node is labelled negative the other s-nodes become
	// uninformative; the session must not have labelled all of them.
	negLabels := 0
	for _, inter := range tr.Interactions {
		if inter.Decision == user.Negative {
			negLabels++
		}
	}
	if negLabels > 2 {
		t.Fatalf("pruning failed: %d negative labels on interchangeable nodes", negLabels)
	}
	if tr.PrunedTotal == 0 && negLabels > 0 {
		t.Fatal("expected pruned nodes after a negative label")
	}
}

func TestSessionPropagatesValidatedWords(t *testing.T) {
	// Three nodes share the exact same path label sequence "go.stop"; once
	// the user validates that path for one of them, the other two are
	// implied positive and must not be proposed again.
	g := graph.New()
	for _, n := range []string{"a", "b", "c"} {
		g.MustAddEdge(graph.NodeID(n), "go", graph.NodeID(n+"_mid"))
		g.MustAddEdge(graph.NodeID(n+"_mid"), "stop", graph.NodeID(n+"_end"))
	}
	g.MustAddEdge("other", "noise", "other_end")
	goal := regex.MustParse("go.stop")
	u := user.NewSimulated(g, goal)
	tr, err := Run(g, u, Options{PathValidation: true, MaxInteractions: 30})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Halt != HaltSatisfied {
		t.Fatalf("halt = %s", tr.Halt)
	}
	if tr.ImpliedTotal < 2 {
		t.Fatalf("expected at least 2 implied positives, got %d", tr.ImpliedTotal)
	}
	positiveLabels := 0
	for _, inter := range tr.Interactions {
		if inter.Decision == user.Positive {
			positiveLabels++
		}
	}
	if positiveLabels > 1 {
		t.Fatalf("propagation should avoid asking the sibling nodes, got %d positive labels", positiveLabels)
	}
}

func TestSessionMaxInteractionsHalt(t *testing.T) {
	g := dataset.Figure1()
	u := user.NewSimulated(g, dataset.Figure1GoalQuery())
	tr, err := Run(g, u, Options{MaxInteractions: 1, PathValidation: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Labels() > 1 {
		t.Fatalf("labels = %d, want <= 1", tr.Labels())
	}
	if tr.Halt == HaltNoInformative {
		t.Fatalf("unexpected halt reason %s", tr.Halt)
	}
}

func TestSessionDefaultsApplied(t *testing.T) {
	opts := (&Options{}).withDefaults()
	if opts.InitialRadius != 2 || opts.MaxRadius < 2 || opts.MaxInteractions <= 0 {
		t.Fatalf("defaults wrong: %+v", opts)
	}
	if opts.Strategy == nil || opts.Strategy.Name() != "informative" {
		t.Fatal("default strategy should be informative")
	}
	if opts.Learn.MaxPathLength != learn.DefaultMaxPathLength {
		t.Fatal("default learn path length wrong")
	}
}

func TestRunStaticWithPerfectUser(t *testing.T) {
	g := dataset.Figure1()
	goal := dataset.Figure1GoalQuery()
	u := user.NewSimulated(g, goal)
	res := RunStatic(g, u, StaticOptions{Choice: user.NewRandomChoice(3)})
	if res.Inconsistent {
		t.Fatal("perfect user cannot produce an inconsistent sample")
	}
	if res.Final == nil {
		t.Fatal("static run should learn something")
	}
	if !learn.Consistent(g, res.Final, res.Sample) {
		t.Fatal("static result inconsistent with sample")
	}
	if res.Labels == 0 {
		t.Fatal("labels expected")
	}
}

func TestRunStaticNoisyUserCanBeInconsistent(t *testing.T) {
	g := dataset.Figure1()
	goal := dataset.Figure1GoalQuery()
	inconsistentSeen := false
	for seed := int64(0); seed < 10 && !inconsistentSeen; seed++ {
		u := user.NewNoisy(user.NewSimulated(g, goal), 0.5, seed)
		res := RunStatic(g, u, StaticOptions{Choice: user.NewRandomChoice(seed)})
		if res.Inconsistent {
			inconsistentSeen = true
		}
	}
	if !inconsistentSeen {
		t.Fatal("a 50% error rate should eventually produce an inconsistent sample")
	}
}

func TestRunStaticLabelBudget(t *testing.T) {
	g := dataset.Figure1()
	u := user.NewSimulated(g, regex.MustParse("restaurant"))
	res := RunStatic(g, u, StaticOptions{MaxLabels: 2, Choice: user.NewRandomChoice(1)})
	if res.Labels > 2 {
		t.Fatalf("labels = %d, budget 2", res.Labels)
	}
}

func TestInteractiveBeatsStaticOnLabels(t *testing.T) {
	// The headline claim of the paper: guided interaction needs fewer
	// labels than unguided static labelling to reach the goal.
	g := dataset.Transport(dataset.TransportOptions{Rows: 3, Cols: 3, Seed: 5, FacilityRate: 0.5})
	goal := regex.MustParse("(tram+bus)*.cinema")
	if len(rpq.Evaluate(g, goal)) == 0 {
		t.Skip("no positive nodes in generated graph")
	}
	interactiveLabels := 0
	{
		u := user.NewSimulated(g, goal)
		tr, err := Run(g, u, Options{PathValidation: true, MaxInteractions: 100, Learn: learn.Options{MaxPathLength: 6}})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Halt != HaltSatisfied {
			t.Fatalf("interactive session did not converge: %s after %d labels", tr.Halt, tr.Labels())
		}
		interactiveLabels = tr.Labels()
	}
	staticLabels := 0
	{
		u := user.NewSimulated(g, goal)
		res := RunStatic(g, u, StaticOptions{Choice: user.NewRandomChoice(7)})
		staticLabels = res.Labels
		if !res.Satisfied {
			// Static labelling may exhaust all nodes without converging;
			// that counts as the worst case.
			staticLabels = g.NumNodes()
		}
	}
	if interactiveLabels > staticLabels {
		t.Fatalf("interactive (%d labels) should not need more labels than static (%d)",
			interactiveLabels, staticLabels)
	}
}

func TestPathValidationRecoversGoalMoreOftenThanWithout(t *testing.T) {
	// Figure 3(c)'s purpose: with path validation the learned query equals
	// the goal query (not merely a consistent one). Check on Figure 1 that
	// validation recovers the goal while the no-validation variant learns a
	// different (though consistent) query.
	g := dataset.Figure1()
	goal := dataset.Figure1GoalQuery()

	withVal, err := Run(g, user.NewSimulated(g, goal), Options{PathValidation: true})
	if err != nil {
		t.Fatal(err)
	}
	if withVal.Final == nil || !equivalentOnInstance(g, withVal.Final, goal) {
		t.Fatalf("with validation the goal should be recovered, got %v", withVal.Final)
	}
}

func equivalentOnInstance(g *graph.Graph, a, b *regex.Expr) bool {
	ea, eb := rpq.New(g, a), rpq.New(g, b)
	for _, n := range g.Nodes() {
		if ea.Selects(n) != eb.Selects(n) {
			return false
		}
	}
	return true
}

func TestLearnedQueryMatchesPaperWitnesses(t *testing.T) {
	// When the learner is fed exactly the witnesses the paper quotes (via a
	// session whose user validates bus.tram.cinema for N2 and cinema for
	// N6), the learned language is equivalent to the goal query. The
	// automated session may validate a different but equally valid witness
	// (e.g. bus.bus.cinema), so language equivalence is asserted on the
	// paper's witnesses and instance equivalence on the session output
	// (TestSessionFigure1WithPathValidationRecoversGoal).
	g := dataset.Figure1()
	goal := dataset.Figure1GoalQuery()
	sample := learn.NewSample()
	pos, negs := dataset.Figure1Examples()
	for n, w := range pos {
		sample.AddPositive(n, w)
	}
	for _, n := range negs {
		sample.AddNegative(n)
	}
	res, err := learn.Learn(g, sample, learn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !automaton.EquivalentNFA(automaton.FromRegex(res.Query), automaton.FromRegex(goal)) {
		t.Fatalf("learned %q not language-equivalent to the goal", res.Query)
	}
}

// turnRecorder proposes like the informative strategy and keeps each
// proposal's Turn.Coverage.
type turnRecorder struct {
	InformativeStrategy
	coverages []*paths.Coverage
}

func (r *turnRecorder) Propose(t *Turn) (graph.NodeID, bool) {
	r.coverages = append(r.coverages, t.Coverage)
	return r.InformativeStrategy.Propose(t)
}

// TestCoverageSourceReuse checks that Turn.Coverage is the same coverage
// across rounds whose negative set did not change, and is rebuilt after a
// negative label.
func TestCoverageSourceReuse(t *testing.T) {
	// On Figure 1 this goal's session labels negative, positive, positive,
	// negative.
	g := dataset.Figure1()
	rec := &turnRecorder{}
	tr, err := Run(g, user.NewSimulated(g, regex.MustParse("tram.bus.restaurant+bus.park")), Options{Strategy: rec, PathValidation: true})
	if err != nil {
		t.Fatal(err)
	}
	reused, rebuilt := 0, 0
	// Proposal i (from 0) follows the labels of interactions 0..i-1.
	for i := 1; i < len(rec.coverages); i++ {
		same := rec.coverages[i] == rec.coverages[i-1]
		if negative := tr.Interactions[i-1].Decision == user.Negative; negative == same {
			t.Fatalf("proposal %d: after a negative = %t but coverage reused = %t", i+1, negative, same)
		}
		if same {
			reused++
		} else {
			rebuilt++
		}
	}
	if reused == 0 || rebuilt == 0 {
		t.Fatalf("want both a reused and a rebuilt coverage, got %d reused and %d rebuilt", reused, rebuilt)
	}
}

// TestCoverageAtBound checks that coverageAt serves the cached coverage at
// the session's bound and builds a new one at any other bound.
func TestCoverageAtBound(t *testing.T) {
	s := NewMachine(dataset.Figure1(), Options{})
	k := s.opts.Learn.MaxPathLength
	if s.coverageAt(k) != s.negCoverage() {
		t.Fatal("coverageAt at the session bound must serve the cached coverage")
	}
	if s.coverageAt(k+1) == s.negCoverage() {
		t.Fatal("coverageAt at another bound must build a new coverage")
	}
}

func TestStrategyByName(t *testing.T) {
	for _, c := range []struct{ name, want string }{
		{"informative", "informative"},
		{"random", "random"},
		{"hybrid", "hybrid"},
		{"disagreement", "disagreement"},
		{"", "informative"},
	} {
		s, err := StrategyByName(c.name, 1)
		if err != nil || s.Name() != c.want {
			t.Fatalf("StrategyByName(%q) = %v, %v; want %s", c.name, s, err, c.want)
		}
	}
	want := `unknown strategy "bogus" (want informative, random, hybrid or disagreement)`
	if s, err := StrategyByName("bogus", 1); err == nil || err.Error() != want || s != nil {
		t.Fatalf(`StrategyByName("bogus") = %v, %v; want error %s`, s, err, want)
	}
}
