package learn

import (
	"fmt"
	"sort"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/regex"
)

// The reference implementations of both steps. Step 1 checks positive by
// positive in node order: a HasWord walk and a Covered call per validated
// positive, a fresh negative coverage per chosen witness. It is the oracle the
// per-distinct-word buildPTA is pinned against. Step 2 copies the partition
// map and materialises a fresh Quotient per candidate merge, and checks
// each candidate with a map-keyed product search. It is the oracle the
// dense fold in dense.go is pinned against.

// learnReference is Learn with buildPTAReference as step 1 and
// generalizeReference as step 2.
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
	pta, witnesses, err := buildPTAReference(g, sample, opts)
	if err != nil {
		return nil, err
	}
	result := &Result{Witnesses: witnesses}
	nfa := generalizeReference(g, pta, sample.Negatives, opts, result)
	result.Automaton = nfa
	result.Query = nfa.ToRegex()
	return result, nil
}

// buildPTAReference is step 1 positive by positive, in node order: the
// first positive whose validated word is not one of its paths, or is
// covered, or that has no uncovered word, fails the sample.
func buildPTAReference(g *graph.Graph, sample *Sample, opts Options) (*automaton.NFA, map[graph.NodeID][]string, error) {
	witnesses := make(map[graph.NodeID][]string, len(sample.Positives))
	var words [][]string
	for _, node := range sample.PositiveNodes() {
		word := sample.Positives[node]
		if word == nil {
			w, ok := chooseWitness(g, node, paths.NewCoverage(g, sample.Negatives, opts.MaxPathLength), opts)
			if !ok {
				return nil, nil, fmt.Errorf("%w: every path of positive %s (length <= %d) is covered by a negative example",
					ErrInconsistent, node, opts.MaxPathLength)
			}
			word = w
		} else {
			if !paths.HasWord(g, node, word) {
				return nil, nil, fmt.Errorf("%w: validated path %v is not a path of %s", ErrInconsistent, word, node)
			}
			if paths.Covered(g, word, sample.Negatives) {
				return nil, nil, fmt.Errorf("%w: validated path %v of %s is covered by a negative example", ErrInconsistent, word, node)
			}
		}
		witnesses[node] = word
		words = append(words, word)
	}
	return automaton.FromWords(words), witnesses, nil
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
