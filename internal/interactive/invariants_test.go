package interactive

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/learn"
	"repro/internal/paths"
	"repro/internal/regex"
	"repro/internal/rpq"
	"repro/internal/user"
)

// labeled reports whether the sample labels id either way.
func labeled(s *learn.Sample, id graph.NodeID) bool {
	_, positive := s.Positives[id]
	return positive || slices.Contains(s.Negatives, id)
}

// openNodes returns the nodes the Machine may still propose: neither
// labelled nor pruned, in sorted order.
func openNodes(m *Machine) []graph.NodeID { return m.open }

// informativeChoice is the node the informative strategy must propose:
// the first open node of maximal uncovered count at bound k, counted
// against a coverage built afresh from the sample's negatives. ok=false
// means every open node has count zero.
func informativeChoice(m *Machine, open []graph.NodeID) (graph.NodeID, bool) {
	k := m.opts.Learn.MaxPathLength
	cov := paths.NewCoverage(m.g, m.sample.Negatives, k)
	best, bestCount := graph.NodeID(""), 0
	for _, id := range open {
		if c := paths.CountUncoveredWith(m.g, id, k, cov); c > bestCount {
			best, bestCount = id, c
		}
	}
	return best, bestCount > 0
}

// checkTurn states the Figure 2 loop's invariants after a completed label
// and returns every violation:
//   - I1 consistency: the hypothesis learned this turn selects every
//     positive and no negative;
//   - I2 pruning: an unlabelled node is out of play iff it has zero
//     uncovered words at bound k;
//   - I3 propagation: every validated word is spelt by its node;
//   - I5 bookkeeping: the open set is sorted, holds no labelled node, and
//     so the pruned nodes (unlabelled and not open) and the labelled ones
//     are disjoint.
//
// I4 (the informative proposal) and the rest of I5 (no node is asked
// twice) are checked by runChecked when a node is proposed.
func checkTurn(m *Machine) []string {
	var errs []string
	g, sample, k := m.g, m.sample, m.opts.Learn.MaxPathLength
	last := m.t.Interactions[len(m.t.Interactions)-1]

	if last.Learned != "" {
		e := rpq.New(g, regex.MustParse(last.Learned))
		for id := range sample.Positives {
			if !e.Selects(id) {
				errs = append(errs, fmt.Sprintf("I1: %s misses positive %s", last.Learned, id))
			}
		}
		for _, id := range sample.Negatives {
			if e.Selects(id) {
				errs = append(errs, fmt.Sprintf("I1: %s selects negative %s", last.Learned, id))
			}
		}
	}

	open := openNodes(m)
	inOpen := make(map[graph.NodeID]bool, len(open))
	for i, id := range open {
		if i > 0 && open[i-1] >= id {
			errs = append(errs, fmt.Sprintf("I5: open set out of order at %s", id))
		}
		if labeled(sample, id) {
			errs = append(errs, fmt.Sprintf("I5: labelled node %s is open", id))
		}
		inOpen[id] = true
	}
	cov := paths.NewCoverage(g, sample.Negatives, k)
	for _, id := range g.Nodes() {
		if labeled(sample, id) {
			continue
		}
		zero := paths.CountUncoveredWith(g, id, k, cov) == 0
		if zero == inOpen[id] {
			errs = append(errs, fmt.Sprintf("I2: %s has zero uncovered words = %t but open = %t", id, zero, inOpen[id]))
		}
	}

	for id, word := range sample.Positives {
		if word != nil && !paths.HasWord(g, id, word) {
			errs = append(errs, fmt.Sprintf("I3: %s does not spell its word %v", id, word))
		}
	}
	return errs
}

// runChecked drives a Machine with a simulated user for the goal, checks
// every proposal (I4 for the informative strategy, I5's no-node-asked-twice
// for all) and runs checkTurn after every completed label. Any error from
// the loop fails the test. It returns the number of labels checked.
func runChecked(t *testing.T, g *graph.Graph, goal *regex.Expr, opts Options) int {
	t.Helper()
	u := user.NewSimulated(g, goal)
	m := NewMachine(g, opts)
	informative := m.opts.Strategy.Name() == "informative"
	asked := make(map[graph.NodeID]bool)
	round := -1
	for {
		q, ok := m.Next()
		if !ok {
			break
		}
		if n := len(m.t.Interactions); q.Kind == AskLabel && n != round {
			round = n
			if asked[q.Node] {
				t.Fatalf("turn %d: I5: %s asked twice", n+1, q.Node)
			}
			asked[q.Node] = true
			open := openNodes(m)
			if informative {
				if want, _ := informativeChoice(m, open); q.Node != want {
					t.Fatalf("turn %d: I4: proposed %s, want %s", n+1, q.Node, want)
				}
			}
		}
		before := len(m.t.Interactions)
		if err := m.Answer(Ask(u, q)); err != nil {
			t.Fatalf("turn %d: %v", before+1, err)
		}
		if len(m.t.Interactions) > before {
			if errs := checkTurn(m); len(errs) > 0 {
				t.Fatalf("turn %d: %d violations, first: %s", len(m.t.Interactions), len(errs), errs[0])
			}
		}
	}
	if informative && m.t.Halt == HaltNoInformative {
		if node, ok := informativeChoice(m, openNodes(m)); ok {
			t.Fatalf("I4: halted with no informative node, but %s is informative", node)
		}
	}
	return len(m.t.Interactions)
}

// TestLoopInvariants runs the sessions of the figure1, transport10 and
// scalefree200 golden corpora (three goals × four strategies × path
// validation on and off) and checks the loop's invariants after every
// label.
func TestLoopInvariants(t *testing.T) {
	transportGoals := []string{"(tram+bus)*.cinema", "tram*.bus.museum", "tram.bus.restaurant+bus.park"}
	corpora := []struct {
		name  string
		graph func() *graph.Graph
		goals []string
	}{
		{"figure1", dataset.Figure1, transportGoals},
		{"transport10", func() *graph.Graph {
			return dataset.Transport(dataset.TransportOptions{Rows: 10, Cols: 10, Seed: 1, FacilityRate: 0.3})
		}, transportGoals},
		{"scalefree200", func() *graph.Graph {
			return dataset.ScaleFree(dataset.ScaleFreeOptions{Nodes: 200, Seed: 1})
		}, []string{"interacts*.binds", "regulates.inhibits", "(interacts+binds)*.regulates"}},
	}
	for _, c := range corpora {
		for _, goal := range c.goals {
			for _, strat := range []string{"random", "informative", "hybrid", "disagreement"} {
				for _, validate := range []bool{true, false} {
					c, goal, strat, validate := c, goal, strat, validate
					t.Run(fmt.Sprintf("%s/%s/%s/validation=%t", c.name, goal, strat, validate), func(t *testing.T) {
						t.Parallel()
						// The golden corpus seeds the random strategy with 1.
						s, err := StrategyByName(strat, 1)
						if err != nil {
							t.Fatal(err)
						}
						labels := runChecked(t, c.graph(), regex.MustParse(goal), Options{Strategy: s, PathValidation: validate})
						if labels == 0 {
							t.Fatal("no label checked")
						}
						t.Logf("%d labels checked", labels)
					})
				}
			}
		}
	}
}
