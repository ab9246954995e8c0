package learn

import (
	"sort"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/regex"
)

// The map-based reference implementation of step 2: it copies the
// partition map and materialises a fresh Quotient per candidate merge, and
// checks each candidate with a map-keyed product search. It is the oracle
// the dense fold in dense.go is pinned against.

// learnReference is Learn with generalizeReference as step 2.
func learnReference(g *graph.Graph, sample *Sample, opts Options) (*Result, error) {
	if opts.MaxPathLength <= 0 {
		opts.MaxPathLength = DefaultMaxPathLength
	}
	if len(sample.Positives) == 0 {
		return &Result{
			Query:     regex.Empty(),
			Automaton: automaton.NewNFA(),
			Witnesses: map[graph.NodeID][]string{},
		}, nil
	}
	pta, witnesses, err := buildPTA(g, sample, opts)
	if err != nil {
		return nil, err
	}
	result := &Result{Witnesses: witnesses}
	nfa := generalizeReference(g, pta, sample.Negatives, opts, result)
	result.Automaton = nfa
	result.Query = nfa.ToRegex()
	return result, nil
}

// generalizeReference folds the PTA in the order generalize documents:
// each state j merges into the first earlier unmerged state whose quotient
// selects no negative.
func generalizeReference(g *graph.Graph, pta *automaton.NFA, negatives []graph.NodeID, opts Options, result *Result) *automaton.NFA {
	partition := make(map[automaton.State]automaton.State)
	current := pta
	n := automaton.State(pta.NumStates())
	var weights []int
	if opts.MergeOrder == MergeEvidence {
		weights = evidenceWeights(pta)
	}
	for j := automaton.State(1); j < n; j++ {
		for _, i := range mergeTargets(partition, j, opts.MergeOrder, weights) {
			result.CandidateMerges++
			trial := make(map[automaton.State]automaton.State, len(partition)+1)
			for k, v := range partition {
				trial[k] = v
			}
			trial[j] = i
			candidate := pta.Quotient(trial)
			if selectsAnyNegative(g, candidate, negatives) {
				continue
			}
			partition = trial
			current = candidate
			result.Merges++
			break
		}
	}
	return current
}

// mergeTargets lists the candidate earlier states j may be merged into:
// every state below j that has not itself been merged away, ordered by the
// merge ordering (weights must be non-nil for MergeEvidence).
func mergeTargets(partition map[automaton.State]automaton.State, j automaton.State, order MergeOrder, weights []int) []automaton.State {
	var targets []automaton.State
	for i := automaton.State(0); i < j; i++ {
		if _, merged := partition[i]; merged {
			continue
		}
		targets = append(targets, i)
	}
	if order == MergeEvidence {
		sort.SliceStable(targets, func(a, b int) bool {
			return weights[targets[a]] > weights[targets[b]]
		})
	}
	return targets
}

// selectsAnyNegative reports whether the automaton's language selects at
// least one negative node of the graph, i.e. some negative node has a path
// whose word is accepted: a breadth-first search over the product of the
// NFA with the graph.
func selectsAnyNegative(g *graph.Graph, n *automaton.NFA, negatives []graph.NodeID) bool {
	if len(negatives) == 0 {
		return false
	}
	type config struct {
		state automaton.State
		node  graph.NodeID
	}
	seen := make(map[config]bool)
	var queue []config
	push := func(states []automaton.State, node graph.NodeID) bool {
		for _, s := range states {
			if n.IsAccepting(s) {
				return true
			}
			c := config{s, node}
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
		return false
	}
	startClosure := n.EpsilonClosure([]automaton.State{n.Start()})
	for _, neg := range negatives {
		if !g.HasNode(neg) {
			continue
		}
		if push(startClosure, neg) {
			return true
		}
	}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, e := range g.Out(cur.node) {
			succ := n.Successors(cur.state, string(e.Label))
			if len(succ) == 0 {
				continue
			}
			if push(n.EpsilonClosure(succ), e.To) {
				return true
			}
		}
	}
	return false
}
