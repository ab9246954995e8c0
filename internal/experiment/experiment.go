// Package experiment is the harness that regenerates every figure-level
// artefact of the paper and the companion-style quantitative evaluation.
// Each experiment returns a stats.Table of one series; cmd/gpsbench prints
// them (README "Running") and bench_test.go wraps them in testing.B
// benchmarks.
package experiment

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Config controls the scale of the experiments.
type Config struct {
	// Quick shrinks graph sizes and repetition counts so that the whole
	// suite runs in seconds (used by `go test` and `go test -bench` runs);
	// the full setting is used by `gpsbench -full`.
	Quick bool
	// Seed drives every pseudo-random choice, making runs reproducible.
	Seed int64
}

// DefaultConfig is a quick, seeded configuration.
func DefaultConfig() Config { return Config{Quick: true, Seed: 1} }

// repetitions returns how many seeds each measured point is averaged over.
func (c Config) repetitions() int {
	if c.Quick {
		return 3
	}
	return 10
}

// Runner is an experiment entry in the registry.
type Runner struct {
	// ID is the experiment identifier used on the command line (e.g. "f1").
	ID string
	// Paper names the paper artefact being reproduced.
	Paper string
	// Description summarises what is measured.
	Description string
	// Run executes the experiment.
	Run func(Config) *stats.Table
}

// Registry lists every experiment in a stable order.
func Registry() []Runner {
	return []Runner{
		{
			ID:          "f1",
			Paper:       "Figure 1 (motivating example)",
			Description: "learn the goal query from the paper's examples on the Figure 1 graph",
			Run:         Figure1Learning,
		},
		{
			ID:          "f2",
			Paper:       "Figure 2 (interactive scenario)",
			Description: "labels needed to reach the goal: interactive vs static labelling",
			Run:         InteractiveVsStatic,
		},
		{
			ID:          "f3a",
			Paper:       "Figure 3(a,b) (neighbourhood & zoom)",
			Description: "size of the shown fragment as the zoom radius grows",
			Run:         NeighborhoodGrowth,
		},
		{
			ID:          "f3c",
			Paper:       "Figure 3(c) (path validation)",
			Description: "goal recovery with and without the path-validation step",
			Run:         PathValidationEffect,
		},
		{
			ID:          "e1",
			Paper:       "Companion-style evaluation 1",
			Description: "labels to convergence vs goal query size, per strategy",
			Run:         InteractionsVsQuerySize,
		},
		{
			ID:          "e2",
			Paper:       "Companion-style evaluation 2",
			Description: "learning time vs graph size",
			Run:         LearningTimeVsGraphSize,
		},
		{
			ID:          "e3",
			Paper:       "Companion-style evaluation 3",
			Description: "strategy comparison: labels, zooms, pruning",
			Run:         StrategyComparison,
		},
		{
			ID:          "ab1",
			Paper:       "Ablation: witness order",
			Description: "shortest-first vs longest-first witness selection",
			Run:         AblationWitnessOrder,
		},
		{
			ID:          "ab2",
			Paper:       "Ablation: merge order",
			Description: "BFS vs evidence-weighted state-merging order",
			Run:         AblationMergeOrder,
		},
		{
			ID:          "ab3",
			Paper:       "Ablation: initial neighbourhood radius",
			Description: "initial radius 1 vs 2 vs 3: zooms and labels",
			Run:         AblationNeighborhoodRadius,
		},
	}
}

// Lookup returns the runner with the given ID.
func Lookup(id string) (Runner, bool) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// IDs returns the sorted experiment identifiers.
func IDs() []string {
	var ids []string
	for _, r := range Registry() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return ids
}

// boolCell renders a boolean for a table cell.
func boolCell(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// ratioCell renders a ratio "x.yz×", guarding against division by zero.
func ratioCell(num, den float64) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", num/den)
}
