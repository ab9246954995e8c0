package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/dataset"
	"repro/internal/regex"
	"repro/internal/rpq"
)

// RPQ micro-benchmark harness: -rpqbench runs the evaluation-core
// benchmarks through testing.Benchmark and writes a machine-readable
// summary (ns/op, bytes/op, allocs/op per benchmark) so the performance
// trajectory of the engine can be tracked across PRs without parsing
// `go test -bench` text output.

// rpqBenchResult is one row of the JSON summary.
type rpqBenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// runRPQBench runs the micro-benchmarks and writes the summary to outPath.
func runRPQBench(outPath string, seed int64) error {
	g := dataset.Transport(dataset.TransportOptions{Rows: 10, Cols: 10, Seed: seed, FacilityRate: 0.4})
	q := regex.MustParse("(tram+bus)*.cinema")
	engine := rpq.New(g, q)
	selected := engine.Selected()
	if len(selected) == 0 {
		return fmt.Errorf("rpqbench: goal query selects no node")
	}
	cache := rpq.NewCache(g)

	// One uncached evaluation is also timed on a much larger graph.
	largeG := dataset.Transport(dataset.TransportOptions{Rows: 60, Cols: 60, Seed: seed, FacilityRate: 0.3})

	benchmarks := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"RPQEvaluation", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(rpq.Evaluate(g, q)) == 0 {
					b.Fatal("no nodes selected")
				}
			}
		}},
		{"RPQEvaluationCached", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(cache.Get(q).Selected()) == 0 {
					b.Fatal("no nodes selected")
				}
			}
		}},
		{"RPQWitness", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, n := range selected {
					if _, ok := engine.Witness(n); !ok {
						b.Fatal("missing witness")
					}
				}
			}
		}},
		{"RPQEvaluationLargeSequential", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(rpq.New(largeG, q).Selected()) == 0 {
					b.Fatal("no nodes selected")
				}
			}
		}},
	}

	results := make([]rpqBenchResult, 0, len(benchmarks))
	for _, bm := range benchmarks {
		r := testing.Benchmark(bm.fn)
		results = append(results, rpqBenchResult{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		fmt.Printf("%-22s %10d iters %12.0f ns/op %8d B/op %6d allocs/op\n",
			bm.name, r.N, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	// Same-machine ratio for -rpqgate: both sides were measured seconds
	// apart in this process, so it gates cache effectiveness without the
	// machine-sensitivity of an absolute ns/op baseline.
	ns := make(map[string]float64, len(results))
	for _, r := range results {
		ns[r.Name] = r.NsPerOp
	}
	payload := struct {
		Graph         string           `json:"graph"`
		LargeGraph    string           `json:"large_graph"`
		Query         string           `json:"query"`
		CachedSpeedup float64          `json:"cached_speedup"`
		Results       []rpqBenchResult `json:"results"`
	}{
		Graph:         fmt.Sprintf("transport-10x10 (%d nodes, %d edges)", g.NumNodes(), g.NumEdges()),
		LargeGraph:    fmt.Sprintf("transport-60x60 (%d nodes, %d edges)", largeG.NumNodes(), largeG.NumEdges()),
		Query:         q.String(),
		CachedSpeedup: ns["RPQEvaluation"] / ns["RPQEvaluationCached"],
		Results:       results,
	}
	fmt.Printf("cached speedup %.1fx\n", payload.CachedSpeedup)
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return fmt.Errorf("rpqbench: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return fmt.Errorf("rpqbench: %w", err)
	}
	fmt.Printf("wrote %s\n", outPath)
	appendBenchHistory(outPath, payload)
	return nil
}
