package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/regex"
	"repro/internal/rpq"
	"repro/internal/rpq/index"
)

// Index benchmark: -indexbench measures the /evaluate product sweep on the
// large transport graph with and without the precomputed reachability
// index, in one process on one machine, and writes the per-query and
// median speedups to a JSON summary. -indexgate reads such a summary and
// fails below a ratio floor — a same-machine two-run comparison, immune to
// the machine drift that plagues absolute ns/op baselines.

// indexBenchQueries is the /evaluate workload: star-heavy reachability
// queries (where the closure jumps collapse the grid diameter) plus
// concatenation-only ones (where only the bitset sweep helps), so the median speedup reflects a mixed diet rather than the
// index's best case.
var indexBenchQueries = []string{
	"(tram+bus)*.cinema",
	"(tram+bus)*.restaurant",
	"tram*.cinema",
	"bus*.museum",
	"(tram+bus)*.(cinema+museum)",
	"tram.bus.tram.cinema",
	"(tram.bus)*.park",
}

// indexBenchIters is the per-mode sample count per query; odd so the
// median is one observed run, interleaved so both modes share any thermal
// or scheduling drift.
const indexBenchIters = 9

// indexQueryResult is one query's row in the JSON summary.
type indexQueryResult struct {
	Query         string  `json:"query"`
	UnindexedNsOp float64 `json:"unindexed_ns_per_op"`
	IndexedNsOp   float64 `json:"indexed_ns_per_op"`
	Speedup       float64 `json:"speedup"`
}

// indexBenchSummary is the -indexbench JSON payload. MedianSpeedup is the
// number -indexgate gates on; IndexedP99Us is the tail of every indexed
// evaluation observed across the whole workload.
type indexBenchSummary struct {
	Graph         string             `json:"graph"`
	IndexStats    index.Stats        `json:"index_stats"`
	Queries       []indexQueryResult `json:"queries"`
	MedianSpeedup float64            `json:"median_speedup"`
	IndexedP99Us  float64            `json:"indexed_p99_us"`
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := s[len(s)/2]
	if len(s)%2 == 0 {
		m = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return m
}

// runIndexBench measures indexed vs unindexed evaluation and writes the
// summary to outPath.
func runIndexBench(outPath string, seed int64) error {
	g := dataset.Transport(dataset.TransportOptions{Rows: 60, Cols: 60, Seed: seed, FacilityRate: 0.3})
	buildStart := time.Now()
	idx := index.Build(g.Indexed(), index.Options{})
	fmt.Printf("index built in %.0fms: %s\n", time.Since(buildStart).Seconds()*1000, func() string {
		st := idx.Stats()
		return fmt.Sprintf("%d bytes, %d closed labels", st.Bytes, st.ClosedLabels)
	}())

	results := make([]indexQueryResult, 0, len(indexBenchQueries))
	speedups := make([]float64, 0, len(indexBenchQueries))
	var indexedNs []float64
	for _, qs := range indexBenchQueries {
		q := regex.MustParse(qs)
		// Equivalence pre-check and DFA warm-up: the compiled DFA is
		// globally memoised, so after these two builds the timed loops
		// compare only the product sweeps.
		plain := rpq.New(g, q)
		indexed := rpq.NewWith(g, q, rpq.Options{Index: idx})
		if !plain.SameSelection(indexed) {
			return fmt.Errorf("indexbench: %s: indexed selection diverges from unindexed", qs)
		}
		var unNs, inNs []float64
		for i := 0; i < indexBenchIters; i++ {
			t0 := time.Now()
			e := rpq.New(g, q)
			unNs = append(unNs, float64(time.Since(t0).Nanoseconds()))
			t0 = time.Now()
			ei := rpq.NewWith(g, q, rpq.Options{Index: idx})
			d := float64(time.Since(t0).Nanoseconds())
			inNs = append(inNs, d)
			indexedNs = append(indexedNs, d)
			if len(e.Selected()) != len(ei.Selected()) {
				return fmt.Errorf("indexbench: %s: selection count diverged mid-run", qs)
			}
		}
		row := indexQueryResult{
			Query:         qs,
			UnindexedNsOp: medianOf(unNs),
			IndexedNsOp:   medianOf(inNs),
		}
		row.Speedup = row.UnindexedNsOp / row.IndexedNsOp
		results = append(results, row)
		speedups = append(speedups, row.Speedup)
		fmt.Printf("%-30s %12.0f ns unindexed %12.0f ns indexed %8.1fx\n",
			qs, row.UnindexedNsOp, row.IndexedNsOp, row.Speedup)
	}

	sort.Float64s(indexedNs)
	pi := (len(indexedNs) * 99) / 100
	if pi >= len(indexedNs) {
		pi = len(indexedNs) - 1
	}
	p99 := indexedNs[pi]
	summary := indexBenchSummary{
		Graph:         fmt.Sprintf("transport-60x60 (%d nodes, %d edges)", g.NumNodes(), g.NumEdges()),
		IndexStats:    idx.Stats(),
		Queries:       results,
		MedianSpeedup: medianOf(speedups),
		IndexedP99Us:  p99 / 1000,
	}
	fmt.Printf("median speedup %.1fx, indexed p99 %.0fus\n", summary.MedianSpeedup, summary.IndexedP99Us)
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return fmt.Errorf("indexbench: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return fmt.Errorf("indexbench: %w", err)
	}
	fmt.Printf("wrote %s\n", outPath)
	appendBenchHistory(outPath, summary)
	return nil
}

// runIndexGate fails when the summary's indexed-vs-unindexed median
// speedup is below min. Both sides of the ratio come from one -indexbench
// run on one machine, so the gate cannot be tripped by hardware drift.
func runIndexGate(path string, min float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("indexgate: %w", err)
	}
	var summary indexBenchSummary
	if err := json.Unmarshal(data, &summary); err != nil {
		return fmt.Errorf("indexgate: %s: %w", path, err)
	}
	if len(summary.Queries) == 0 {
		return fmt.Errorf("indexgate: %s: no query results", path)
	}
	fmt.Printf("indexgate: median speedup %.2fx (floor %.2fx), indexed p99 %.0fus over %s\n",
		summary.MedianSpeedup, min, summary.IndexedP99Us, summary.Graph)
	printTrend(path, "median speedup", "x", false, floatFieldFromSummary("median_speedup"))
	if summary.MedianSpeedup < min {
		return fmt.Errorf("indexgate: median indexed speedup %.2fx below floor %.2fx", summary.MedianSpeedup, min)
	}
	fmt.Println("indexgate: ok")
	return nil
}
