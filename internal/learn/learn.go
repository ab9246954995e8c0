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
package learn

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
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
	// Parallelism bounds the worker pool used to check independent
	// candidate merges concurrently in step 2. Zero means min(GOMAXPROCS,
	// 8); 1 forces sequential checking. The learned query is identical at
	// any setting: candidates are still chosen in the sequential order.
	Parallelism int
	// Reference forces the original map-based generalization path (copied
	// partition maps, a fresh NFA quotient per candidate, map-keyed product
	// search). It is kept as the equivalence oracle for the dense engine:
	// the randomized equivalence tests and the -learngate benchmark gate
	// pin the dense path against it. The learned query, the Witnesses map
	// and the Merges/CandidateMerges counters are identical on both paths.
	Reference bool
	// Trace, when non-nil, receives span timings of one Learn call: phase
	// "witnesses" (step 1: witness selection and PTA construction),
	// "generalize" (step 2 total) and "negative_checks" (the aggregated
	// candidate consistency-check time inside the merge fold). Clocks only
	// run when Trace is set, so callers that leave it nil pay nothing on
	// the merge hot path.
	Trace func(phase string, d time.Duration)
}

// WorkerCount resolves the Parallelism option to a concrete pool size.
func (o Options) WorkerCount() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
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

// IsPositive reports whether the node is a positive example.
func (s *Sample) IsPositive(node graph.NodeID) bool {
	_, ok := s.Positives[node]
	return ok
}

// IsNegative reports whether the node is a negative example.
func (s *Sample) IsNegative(node graph.NodeID) bool {
	for _, n := range s.Negatives {
		if n == node {
			return true
		}
	}
	return false
}

// Labeled reports whether the node is labelled either way.
func (s *Sample) Labeled(node graph.NodeID) bool {
	return s.IsPositive(node) || s.IsNegative(node)
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

// Learn runs the two-step learning algorithm on the graph and sample.
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
		nfa = generalize(g, pta, sample.Negatives, opts, result)
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

// generalize merges states of the PTA while the automaton's language keeps
// selecting no negative example on the graph. States are visited in a
// single increasing pass: each state j is merged into the first earlier
// (still unmerged) state i for which the merged automaton stays consistent,
// the usual RPNI-style folding order. The evidence-weighted order instead
// tries earlier states with more outgoing evidence first.
// Candidate merges for one state are independent of each other, so they are
// evaluated concurrently in chunks of the worker-pool size. The chunk
// results are then scanned in sequential order and the first consistent
// candidate wins, which makes the outcome — and the CandidateMerges counter
// — identical to the sequential RPNI-style fold.
//
// Two implementations share this contract. The dense engine (dense.go)
// represents the partition as a union-find array and checks each candidate
// with a bitset product reachability over graph.Indexed, reusing all
// scratch across the O(n²) candidates. The reference path below copies the
// partition map and materialises a fresh Quotient per candidate; it
// survives as the equivalence oracle (Options.Reference) and as the
// fallback for ε-carrying automata, which FromWords never produces.
func generalize(g *graph.Graph, pta *automaton.NFA, negatives []graph.NodeID, opts Options, result *Result) *automaton.NFA {
	if opts.Reference {
		return generalizeReference(g, pta, negatives, opts, result)
	}
	// The dense engine packs product configurations node*numStates+block
	// into int32 (like the rpq core packs its product); a graph × PTA
	// product beyond that range must take the map-keyed path.
	if int64(g.NumNodes())*int64(pta.NumStates()) > math.MaxInt32 {
		return generalizeReference(g, pta, negatives, opts, result)
	}
	dense := pta.Dense()
	if dense.HasEpsilon() {
		return generalizeReference(g, pta, negatives, opts, result)
	}
	return generalizeDense(g, pta, dense, negatives, opts, result)
}

// generalizeReference is the map-based oracle implementation of the
// generalisation contract described on generalize.
func generalizeReference(g *graph.Graph, pta *automaton.NFA, negatives []graph.NodeID, opts Options, result *Result) *automaton.NFA {
	workers := opts.WorkerCount()
	partition := make(map[automaton.State]automaton.State)
	current := pta
	n := automaton.State(pta.NumStates())
	var weights []int
	if opts.MergeOrder == MergeEvidence {
		weights = evidenceWeights(pta)
	}
	type outcome struct {
		trial     map[automaton.State]automaton.State
		candidate *automaton.NFA
		ok        bool
	}
	tryMerge := func(j, i automaton.State) outcome {
		trial := make(map[automaton.State]automaton.State, len(partition)+1)
		for k, v := range partition {
			trial[k] = v
		}
		trial[j] = i
		candidate := pta.Quotient(trial)
		return outcome{trial, candidate, !selectsAnyNegative(g, candidate, negatives)}
	}
	traced := opts.Trace != nil
	var checkTime time.Duration
	for j := automaton.State(1); j < n; j++ {
		targets := mergeTargets(partition, j, opts.MergeOrder, weights)
		merged := false
		for lo := 0; lo < len(targets) && !merged; lo += workers {
			hi := lo + workers
			if hi > len(targets) {
				hi = len(targets)
			}
			chunk := targets[lo:hi]
			outcomes := make([]outcome, len(chunk))
			var chunkStart time.Time
			if traced {
				chunkStart = time.Now()
			}
			if len(chunk) == 1 || workers == 1 {
				for k, i := range chunk {
					outcomes[k] = tryMerge(j, i)
				}
			} else {
				var wg sync.WaitGroup
				for k, i := range chunk {
					wg.Add(1)
					go func(k int, i automaton.State) {
						defer wg.Done()
						outcomes[k] = tryMerge(j, i)
					}(k, i)
				}
				wg.Wait()
			}
			if traced {
				checkTime += time.Since(chunkStart)
			}
			for k := range outcomes {
				// Count exactly the attempts the sequential fold would have
				// made: everything up to and including the accepted merge.
				result.CandidateMerges++
				if !outcomes[k].ok {
					continue
				}
				partition = outcomes[k].trial
				current = outcomes[k].candidate
				result.Merges++
				merged = true
				break
			}
		}
	}
	if traced {
		opts.Trace("negative_checks", checkTime)
	}
	return current
}

// evidenceWeights precomputes the MergeEvidence weight of every PTA state
// (its total number of outgoing transitions). The weights depend only on
// the immutable PTA, so one pass per generalize call replaces the
// per-comparison recomputation the sort comparator used to do.
func evidenceWeights(pta *automaton.NFA) []int {
	labels := pta.Labels()
	weights := make([]int, pta.NumStates())
	for s := range weights {
		for _, l := range labels {
			weights[s] += len(pta.Successors(automaton.State(s), l))
		}
	}
	return weights
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
// whose word is accepted. The check is a reachability search over the
// product of the NFA with the graph — no determinisation is needed, which
// keeps each candidate merge cheap.
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
	// Pop with a head index: re-slicing the queue (queue = queue[1:]) keeps
	// the whole backing array live for the rest of the search, so a long
	// BFS would retain every already-processed configuration.
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

// Consistent reports whether the query is consistent with the sample on
// the graph: it selects every positive node and no negative node. Callers
// that re-check the same candidate queries across iterations should
// evaluate through rpq.EngineCache.Consistent instead.
func Consistent(g *graph.Graph, query *regex.Expr, sample *Sample) bool {
	return rpq.Consistent(g, query, sample.PositiveNodes(), sample.Negatives)
}
