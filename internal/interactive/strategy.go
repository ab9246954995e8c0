// Package interactive implements the interactive scenario of Figure 2: the
// loop that proposes informative nodes to the user, shows zoomable
// neighbourhood fragments, collects labels and validated paths, propagates
// labels by pruning uninformative nodes, and learns a query after each
// interaction.
package interactive

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/regex"
	"repro/internal/rpq"
)

// Turn is the state the node-proposal function Υ reads. The Machine builds
// one per proposal; strategies must not modify it.
type Turn struct {
	Graph *graph.Graph
	// K is the path-length bound: the learner's MaxPathLength.
	K int
	// Open lists the nodes that are neither labelled nor pruned, in sorted
	// order; only they may be proposed.
	Open []graph.NodeID
	// Coverage is the covered-word set of the negative examples at bound K.
	Coverage *paths.Coverage
	// Hypothesis is the query learned so far (nil before the first one).
	Hypothesis *regex.Expr
	// Cache is the session's engine cache on Graph.
	Cache *rpq.EngineCache
	// counts memoises uncovered by dense node index of Graph, -1 for a node
	// not yet counted. The Machine keeps it for as long as Coverage stays
	// the same; nil means every call counts afresh.
	counts []int32
	// noNegatives reports that Coverage covers no word, so a node's count
	// is its number of words: the first count read fills the whole memo
	// from paths.WordCounts, which every session on the graph shares.
	noNegatives bool
}

// uncovered returns the number of words of length at most K that node id
// spells and no negative example covers: the paper's informativeness.
func (t *Turn) uncovered(id graph.NodeID) int {
	i, ok := t.Graph.Indexed().IndexOf(id)
	if t.counts == nil || !ok {
		return paths.CountUncoveredWith(t.Graph, id, t.K, t.Coverage)
	}
	if t.counts[i] < 0 {
		if t.noNegatives {
			// The memo is written to, so it holds a copy.
			copy(t.counts, paths.WordCounts(t.Graph, t.K))
		} else {
			t.counts[i] = int32(paths.CountUncoveredWith(t.Graph, id, t.K, t.Coverage))
		}
	}
	return int(t.counts[i])
}

// Strategy is the node-proposal function Υ of the paper: it returns the
// next node to ask the user about, one of t.Open.
type Strategy interface {
	// Name identifies the strategy in transcripts and experiment tables.
	Name() string
	// Propose returns the next node to label. ok=false means no
	// informative node remains.
	Propose(t *Turn) (graph.NodeID, bool)
}

// StrategyByName returns the strategy a session names: "" or
// "informative", "random" (drawing from seed), "hybrid" or "disagreement".
func StrategyByName(name string, seed int64) (Strategy, error) {
	switch name {
	case "", "informative":
		return &InformativeStrategy{}, nil
	case "random":
		return NewRandomStrategy(seed), nil
	case "hybrid":
		return &HybridStrategy{}, nil
	case "disagreement":
		return &DisagreementStrategy{}, nil
	}
	return nil, fmt.Errorf("unknown strategy %q (want informative, random, hybrid or disagreement)", name)
}

// RandomStrategy proposes an open node uniformly at random. It is the
// baseline strategy in the experiments.
type RandomStrategy struct {
	rng *rand.Rand
}

// NewRandomStrategy returns a RandomStrategy seeded deterministically.
func NewRandomStrategy(seed int64) *RandomStrategy {
	return &RandomStrategy{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Strategy.
func (s *RandomStrategy) Name() string { return "random" }

// Propose implements Strategy.
func (s *RandomStrategy) Propose(t *Turn) (graph.NodeID, bool) {
	if len(t.Open) == 0 {
		return "", false
	}
	return t.Open[s.rng.Intn(len(t.Open))], true
}

// InformativeStrategy proposes the node with the largest number of
// bounded-length paths not covered by the current negative examples — the
// practical strategy the paper describes: "seek the nodes having an
// important number of paths that are shorter than a fixed bound and not
// covered by any negative node". Nodes with zero uncovered paths are
// uninformative and never proposed.
type InformativeStrategy struct{}

// Name implements Strategy.
func (s *InformativeStrategy) Name() string { return "informative" }

// Propose implements Strategy. Ties go to the smallest id.
func (s *InformativeStrategy) Propose(t *Turn) (graph.NodeID, bool) {
	best, bestCount := graph.NodeID(""), 0
	for _, id := range t.Open {
		if count := t.uncovered(id); count > bestCount {
			best, bestCount = id, count
		}
	}
	return best, bestCount > 0
}

// DisagreementStrategy is an extension beyond the paper's count-based
// strategy: it proposes the node whose label is most likely to change the
// current hypothesis (the query learned so far). Nodes the hypothesis
// selects but that have few uncovered paths are likely false positives
// (their negative label immediately corrects the hypothesis); nodes the
// hypothesis does not select but that have many uncovered paths are likely
// false negatives (their positive label extends it). Before any query has
// been learned it behaves like InformativeStrategy.
type DisagreementStrategy struct{}

// Name implements Strategy.
func (s *DisagreementStrategy) Name() string { return "disagreement" }

// Propose implements Strategy. Both passes read t.uncovered, a memo read
// while the negatives stay the same.
func (s *DisagreementStrategy) Propose(t *Turn) (graph.NodeID, bool) {
	maxCount, first := 0, 0
	for i, id := range t.Open {
		if count := t.uncovered(id); count > maxCount {
			maxCount, first = count, i
		}
	}
	if maxCount == 0 {
		return "", false
	}
	if t.Hypothesis == nil || t.Hypothesis.IsEmptyLanguage() {
		// No usable hypothesis yet: behave like the informative strategy.
		return t.Open[first], true
	}
	engine := t.Cache.Get(t.Hypothesis)
	best, bestScore := 0, -1
	for i, id := range t.Open {
		count := t.uncovered(id)
		if count == 0 {
			continue // uninformative, never propose
		}
		// Likely false positive: hypothesis selects it, few uncovered
		// paths. Likely false negative: hypothesis misses it, many
		// uncovered paths.
		score := count
		if engine.Selects(id) {
			score = maxCount - count
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return t.Open[best], true
}

// hybridShortlist is how many highest-out-degree open nodes the hybrid
// strategy scores exactly.
const hybridShortlist = 8

// HybridStrategy proposes high-degree nodes first (cheap to compute) and
// falls back to the informative count to break ties. It trades a little
// precision for speed on large graphs, matching the paper's requirement
// that the user "does not have to wait too much between two consecutive
// interactions".
type HybridStrategy struct{}

// Name implements Strategy.
func (s *HybridStrategy) Name() string { return "hybrid" }

// Propose implements Strategy. One pass over t.Open keeps the shortlist
// sorted by out-degree, descending, then id, ascending; the shortlisted
// node with the most uncovered paths wins, ties to the earlier one.
func (s *HybridStrategy) Propose(t *Turn) (graph.NodeID, bool) {
	type ranked struct {
		id     graph.NodeID
		degree int
	}
	var buf [hybridShortlist]ranked
	shortlist := buf[:0]
	for _, id := range t.Open {
		r := ranked{id, t.Graph.OutDegree(id)}
		i := len(shortlist)
		for i > 0 && (r.degree > shortlist[i-1].degree ||
			r.degree == shortlist[i-1].degree && r.id < shortlist[i-1].id) {
			i--
		}
		if i == hybridShortlist {
			continue
		}
		if len(shortlist) < hybridShortlist {
			shortlist = append(shortlist, ranked{})
		}
		copy(shortlist[i+1:], shortlist[i:len(shortlist)-1])
		shortlist[i] = r
	}
	best, bestCount := graph.NodeID(""), 0
	for _, r := range shortlist {
		if count := t.uncovered(r.id); count > bestCount {
			best, bestCount = r.id, count
		}
	}
	return best, bestCount > 0
}
