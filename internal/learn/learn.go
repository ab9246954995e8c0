// Package learn implements the query learning algorithm at the heart of
// GPS. Following the paper (Section 2), learning a path query consistent
// with a set of node examples proceeds in two steps:
//
//  1. for each positive example, find a path (word) that is not covered by
//     any negative example — i.e. no negative node has a path spelling it;
//  2. build a prefix-tree automaton recognising precisely those words and
//     generalise it by state merges as long as no negative example becomes
//     selected by the generalised automaton.
//
// The generalised automaton is finally converted back to a regular
// expression (the learned query). When the user validated paths of
// interest (the third demonstration scenario), those validated words are
// used directly in step 1, which is what guarantees that the learned query
// generalises the paths the user cares about.
//
// Step 2 is one serial RPNI-style fold over a union-find partition of the
// prefix tree (dense.go). oracle_test.go keeps the map-based reference fold
// the dense one is tested against.
package learn

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/regex"
	"repro/internal/rpq"
)

// WitnessOrder selects how step 1 picks a witness word for a positive
// example when the user has not validated one.
type WitnessOrder int

const (
	// WitnessShortest picks a shortest uncovered word (ties broken
	// lexicographically). This is the default used by the paper's scenario
	// without path validation.
	WitnessShortest WitnessOrder = iota
	// WitnessLongest picks a longest uncovered word within the length
	// bound. Used by the ablation study.
	WitnessLongest
)

// MergeOrder selects the order in which candidate state merges are tried.
type MergeOrder int

const (
	// MergeBFS tries merges in breadth-first state order (RPNI-like).
	MergeBFS MergeOrder = iota
	// MergeEvidence tries merging states with the largest combined number
	// of outgoing transitions first, preferring merges supported by more
	// evidence. Used by the ablation study.
	MergeEvidence
)

// Options configures the learner.
type Options struct {
	// MaxPathLength bounds the witness words considered in step 1 for
	// positives without a validated path. Zero means DefaultMaxPathLength.
	MaxPathLength int
	// WitnessOrder picks the witness selection rule.
	WitnessOrder WitnessOrder
	// MergeOrder picks the merge ordering.
	MergeOrder MergeOrder
	// DisableGeneralization skips step 2 and returns the disjunction of
	// the witness words. Used to measure the benefit of state merging.
	DisableGeneralization bool
	// Trace, when non-nil, receives span timings of one Learn call: phase
	// "witnesses" (step 1: witness selection and PTA construction),
	// "generalize" (step 2 total) and "negative_checks" (the aggregated
	// candidate consistency-check time inside the merge fold). Clocks only
	// run when Trace is set, so callers that leave it nil pay nothing on
	// the merge hot path.
	Trace func(phase string, d time.Duration)
}

// DefaultMaxPathLength bounds witness search when the caller does not
// provide one.
const DefaultMaxPathLength = 4

// Sample is a set of labelled examples collected from the user.
type Sample struct {
	// Positives maps each positive node to its validated path of interest
	// (a word). A nil word means the user did not validate a path and the
	// learner must choose one (step 1).
	Positives map[graph.NodeID][]string
	// Negatives lists the nodes labelled negative.
	Negatives []graph.NodeID
}

// NewSample returns an empty sample.
func NewSample() *Sample {
	return &Sample{Positives: make(map[graph.NodeID][]string)}
}

// AddPositive records a positive example. word may be nil.
func (s *Sample) AddPositive(node graph.NodeID, word []string) {
	if s.Positives == nil {
		s.Positives = make(map[graph.NodeID][]string)
	}
	s.Positives[node] = word
}

// AddNegative records a negative example.
func (s *Sample) AddNegative(node graph.NodeID) {
	for _, n := range s.Negatives {
		if n == node {
			return
		}
	}
	s.Negatives = append(s.Negatives, node)
}

// PositiveNodes returns the positive nodes in sorted order.
func (s *Sample) PositiveNodes() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(s.Positives))
	for n := range s.Positives {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Size returns the number of labelled examples.
func (s *Sample) Size() int { return len(s.Positives) + len(s.Negatives) }

// Result is the outcome of a learning call.
type Result struct {
	// Query is the learned query, consistent with the sample.
	Query *regex.Expr
	// Automaton is the generalised automaton the query was extracted from.
	Automaton *automaton.NFA
	// Witnesses records, for each positive node, the word used in step 1
	// (either the user-validated word or the one chosen by the learner).
	Witnesses map[graph.NodeID][]string
	// Merges counts the accepted state merges performed in step 2.
	Merges int
	// CandidateMerges counts the attempted state merges.
	CandidateMerges int
}

// ErrInconsistent is returned (wrapped) when no consistent query exists for
// the sample, e.g. a positive example all of whose words are covered by
// negative examples.
var ErrInconsistent = fmt.Errorf("learn: sample admits no consistent query")

// Learn runs the two-step learning algorithm on the graph and sample. It
// returns an error wrapping ErrInconsistent when step 1 finds no witness,
// and a plain error when the graph × prefix-tree product is too large for
// step 2.
func Learn(g *graph.Graph, sample *Sample, opts Options) (*Result, error) {
	if opts.MaxPathLength <= 0 {
		opts.MaxPathLength = DefaultMaxPathLength
	}
	if len(sample.Positives) == 0 {
		// With no positive example the empty-language query is (vacuously)
		// consistent with any set of negatives.
		return &Result{
			Query:     regex.Empty(),
			Automaton: automaton.NewNFA(),
			Witnesses: map[graph.NodeID][]string{},
		}, nil
	}

	// Step 1: one uncovered witness word per positive example, folded into
	// a prefix-tree automaton.
	var t0 time.Time
	if opts.Trace != nil {
		t0 = time.Now()
	}
	pta, witnesses, err := buildPTA(g, sample, opts)
	if err != nil {
		return nil, err
	}
	if opts.Trace != nil {
		opts.Trace("witnesses", time.Since(t0))
	}
	result := &Result{Witnesses: witnesses}
	nfa := pta
	if !opts.DisableGeneralization {
		if opts.Trace != nil {
			t0 = time.Now()
		}
		nfa, err = generalize(g, pta, sample.Negatives, opts, result)
		if err != nil {
			return nil, err
		}
		if opts.Trace != nil {
			opts.Trace("generalize", time.Since(t0))
		}
	}
	result.Automaton = nfa
	result.Query = nfa.ToRegex()
	return result, nil
}

// buildPTA runs step 1 (witness selection and validation) and folds the
// witness words into the prefix-tree automaton that step 2 generalises.
func buildPTA(g *graph.Graph, sample *Sample, opts Options) (*automaton.NFA, map[graph.NodeID][]string, error) {
	witnesses := make(map[graph.NodeID][]string, len(sample.Positives))
	for _, node := range sample.PositiveNodes() {
		word := sample.Positives[node]
		if word == nil {
			w, ok := chooseWitness(g, node, sample.Negatives, opts)
			if !ok {
				return nil, nil, fmt.Errorf("%w: every path of positive %s (length <= %d) is covered by a negative example",
					ErrInconsistent, node, opts.MaxPathLength)
			}
			word = w
		} else {
			// A validated word must itself be a path of the node and must
			// not be covered; otherwise the sample is inconsistent.
			if !paths.HasWord(g, node, word) {
				return nil, nil, fmt.Errorf("%w: validated path %v is not a path of %s", ErrInconsistent, word, node)
			}
			if paths.Covered(g, word, sample.Negatives) {
				return nil, nil, fmt.Errorf("%w: validated path %v of %s is covered by a negative example", ErrInconsistent, word, node)
			}
		}
		witnesses[node] = word
	}
	words := make([][]string, 0, len(witnesses))
	for _, node := range sortedKeys(witnesses) {
		words = append(words, witnesses[node])
	}
	return automaton.FromWords(words), witnesses, nil
}

func sortedKeys(m map[graph.NodeID][]string) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// chooseWitness implements step 1 for a positive example without a
// validated path.
func chooseWitness(g *graph.Graph, node graph.NodeID, negatives []graph.NodeID, opts Options) ([]string, bool) {
	switch opts.WitnessOrder {
	case WitnessLongest:
		uncovered := paths.UncoveredWords(g, node, negatives, opts.MaxPathLength)
		if len(uncovered) == 0 {
			return nil, false
		}
		best := uncovered[0]
		for _, w := range uncovered[1:] {
			if len(w) > len(best) {
				best = w
			}
		}
		return best, true
	default:
		return paths.SmallestUncovered(g, node, negatives, opts.MaxPathLength)
	}
}

// Consistent reports whether the query is consistent with the sample on
// the graph: it selects every positive node and no negative node. Callers
// that re-check the same candidate queries across iterations should
// evaluate through an rpq.EngineCache (Get, then Engine.ConsistentWith)
// instead.
func Consistent(g *graph.Graph, query *regex.Expr, sample *Sample) bool {
	return rpq.Consistent(g, query, sample.PositiveNodes(), sample.Negatives)
}
