package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Bench-regression gate: -benchcmp compares a fresh -rpqbench summary
// against the checked-in baseline (BENCH_baseline.json).
//
// Only allocs/op — deterministic and machine-independent — can fail the
// gate: a benchmark must not regress by more than the threshold (with a
// small floor so 0→1 blips don't fail the build). The ns/op comparison is
// printed for information only; absolute ns/op against a checked-in
// baseline is inherently machine-sensitive (a uniformly slower runner
// moves every ratio without any code change), so wall-clock performance
// is gated by the same-machine two-run ratios instead: -rpqgate on the
// cached speedup inside one -rpqbench run, and -indexgate on the
// indexed-vs-unindexed speedup inside one -indexbench run.
//
// Refresh the baseline with: go run ./cmd/gpsbench -rpqbench
// -rpqbench-out BENCH_baseline.json
type rpqBenchSummary struct {
	Results []rpqBenchResult `json:"results"`
}

func readBenchSummary(path string) (map[string]rpqBenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var summary rpqBenchSummary
	if err := json.Unmarshal(data, &summary); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(summary.Results) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	out := make(map[string]rpqBenchResult, len(summary.Results))
	for _, r := range summary.Results {
		out[r.Name] = r
	}
	return out, nil
}

// allocFloor is the minimum absolute allocs/op increase treated as a
// regression: going from 0 to 1 allocation is a blip, going from 0 to 300
// (e.g. losing a pooled-scratch path) is not.
const allocFloor = 16

// runBenchCompare fails (non-nil error) on a regression beyond threshold
// (0.25 = 25%).
func runBenchCompare(baselinePath, currentPath string, threshold float64) error {
	baseline, err := readBenchSummary(baselinePath)
	if err != nil {
		return fmt.Errorf("benchcmp: baseline: %w", err)
	}
	current, err := readBenchSummary(currentPath)
	if err != nil {
		return fmt.Errorf("benchcmp: current: %w", err)
	}

	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	ratios := make([]float64, 0, len(names))
	fmt.Printf("%-30s %14s %14s %8s %10s %10s\n",
		"benchmark", "base ns/op", "cur ns/op", "ns Δ", "base allocs", "cur allocs")
	for _, name := range names {
		base := baseline[name]
		cur, ok := current[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from current run", name))
			continue
		}
		ratio := cur.NsPerOp / base.NsPerOp
		ratios = append(ratios, ratio)
		fmt.Printf("%-30s %14.0f %14.0f %+7.1f%% %10d %10d\n",
			name, base.NsPerOp, cur.NsPerOp, (ratio-1)*100, base.AllocsPerOp, cur.AllocsPerOp)
		if cur.AllocsPerOp-base.AllocsPerOp >= allocFloor &&
			float64(cur.AllocsPerOp) > float64(base.AllocsPerOp)*(1+threshold) {
			failures = append(failures, fmt.Sprintf("%s: allocs/op regressed %d -> %d (>%0.f%%)",
				name, base.AllocsPerOp, cur.AllocsPerOp, threshold*100))
		}
	}
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		median := ratios[len(ratios)/2]
		if len(ratios)%2 == 0 {
			median = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
		}
		fmt.Printf("median ns/op ratio: %.3f (informational; wall-clock is gated by -rpqgate/-indexgate)\n", median)
	}
	printTrend(currentPath, "median ns/op", "ns", true, medianNsFromSummary)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchcmp: REGRESSION: %s\n", f)
		}
		return fmt.Errorf("benchcmp: %d regression(s) against %s", len(failures), baselinePath)
	}
	fmt.Println("benchcmp: no regression")
	return nil
}

// rpqGateSummary is the slice of the -rpqbench payload -rpqgate reads.
type rpqGateSummary struct {
	CachedSpeedup float64 `json:"cached_speedup"`
}

// runRPQGate checks the same-machine ratio of one -rpqbench run: the
// engine cache must pay off by at least cachedMin on repeat queries.
func runRPQGate(path string, cachedMin float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("rpqgate: %w", err)
	}
	var s rpqGateSummary
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("rpqgate: %s: %w", path, err)
	}
	if s.CachedSpeedup == 0 {
		return fmt.Errorf("rpqgate: %s: missing cached speedup (regenerate with -rpqbench)", path)
	}
	fmt.Printf("rpqgate: cached speedup %.2fx (floor %.2fx)\n", s.CachedSpeedup, cachedMin)
	printTrend(path, "cached speedup", "x", false, floatFieldFromSummary("cached_speedup"))
	if s.CachedSpeedup < cachedMin {
		return fmt.Errorf("rpqgate: cached speedup %.2fx below floor %.2fx", s.CachedSpeedup, cachedMin)
	}
	fmt.Println("rpqgate: ok")
	return nil
}
