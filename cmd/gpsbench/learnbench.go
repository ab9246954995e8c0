package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/interactive"
	"repro/internal/learn"
	"repro/internal/regex"
	"repro/internal/rpq"
	"repro/internal/user"
)

// Learner micro-benchmark harness: -learnbench measures the paper's
// central algorithm — the RPNI-style generalization of learn.Learn — the
// way the service runs it, on the transport graphs, and writes a
// machine-readable summary so the learner's performance trajectory is
// tracked across PRs like the RPQ core's and the store's.
//
// Two axes are measured:
//
//   - full Learn calls on 10x10 and 60x60 transport networks with a
//     12-positive / 12-negative sample whose witness words form a bushy
//     prefix tree (the goal query below has bounded shape, so the grid
//     supplies negatives that random-walk the product during every
//     candidate check — the worst case for the merge loop). Each
//     configuration runs on both engines: the dense union-find/bitset
//     engine and the map-based reference oracle (learn.Options.Reference);
//     the headline number is the median reference/dense speedup on the
//     60x60 workload, and -learngate enforces a same-machine floor in CI;
//   - interactive-session convergence: one simulated session driven to
//     user-satisfied on each transport graph, as wall time and label
//     count (every learner round runs a full Learn call, so this is the
//     end-to-end view of the same hot path).

// learnBenchGoal has bounded shape on purpose: with a Kleene-starred goal
// every grid node of a strongly connected transport network is selected
// and no negative example can walk the product, which makes candidate
// checks trivially cheap and unrepresentative.
const learnBenchGoal = "(tram+bus).(tram+bus).(tram+bus).(tram+bus).cinema"

const (
	learnBenchPositives = 12
	learnBenchNegatives = 12
	learnBenchMaxLen    = 6
	learnBenchRuns      = 7
)

type learnBenchRow struct {
	Name     string  `json:"name"`
	Engine   string  `json:"engine"`
	Runs     int     `json:"runs"`
	MedianNs float64 `json:"median_ns_per_op"`
	MinNs    float64 `json:"min_ns_per_op"`
	// Positives and Negatives are the sample the row actually measured:
	// buildLearnSample tolerates thin graphs (missing patterns, fewer
	// unselected nodes than requested), so the realised counts can fall
	// short of the learnBenchPositives/learnBenchNegatives targets.
	Positives int `json:"positives"`
	Negatives int `json:"negatives"`
}

type learnConvergenceRow struct {
	Graph     string  `json:"graph"`
	Labels    int     `json:"labels"`
	Halt      string  `json:"halt"`
	WallMs    float64 `json:"wall_ms"`
	Learned   string  `json:"learned"`
	PerRoundC float64 `json:"ms_per_label"`
}

type learnBenchSummary struct {
	Goal       string `json:"goal"`
	Graph      string `json:"graph"`
	LargeGraph string `json:"large_graph"`
	// Positives and Negatives are the realised sample sizes of the gated
	// 60x60 workload (see the per-row counts for the other graphs).
	Positives   int                   `json:"positives"`
	Negatives   int                   `json:"negatives"`
	Rows        []learnBenchRow       `json:"results"`
	Speedup10   float64               `json:"speedup_10x10"`
	Speedup60   float64               `json:"speedup_60x60"`
	Convergence []learnConvergenceRow `json:"convergence"`
}

// buildLearnSample derives a deterministic sample from the goal query:
// one positive per {tram,bus}⁴·cinema pattern, validated with exactly that
// word — the words share prefixes pairwise-differently, so the prefix tree
// is bushy (~39 states) and the merge fold attempts O(n²) candidates.
// Negatives are unselected grid nodes with outgoing edges, spread across
// the grid, whose free tram/bus walks make the product reachability of
// every candidate check do real work.
func buildLearnSample(g *graph.Graph, engine *rpq.Engine) (*learn.Sample, error) {
	var negatives []graph.NodeID
	for _, n := range g.Nodes() {
		if !engine.Selects(n) && g.OutDegree(n) > 0 {
			negatives = append(negatives, n)
		}
	}
	if len(negatives) == 0 {
		return nil, fmt.Errorf("learnbench: no unselected grid node to use as negative")
	}
	sample := learn.NewSample()
	added := 0
	for p := 0; p < 16 && added < learnBenchPositives; p++ {
		word := make([]string, 0, 5)
		for b := 0; b < 4; b++ {
			if p>>b&1 == 1 {
				word = append(word, "tram")
			} else {
				word = append(word, "bus")
			}
		}
		word = append(word, "cinema")
		we := rpq.New(g, regex.MustParse(strings.Join(word, ".")))
		for _, n := range we.Selected() {
			if !sample.Labeled(n) {
				sample.AddPositive(n, word)
				added++
				break
			}
		}
	}
	if added < learnBenchPositives/2 {
		return nil, fmt.Errorf("learnbench: only %d of %d positive patterns occur in the graph", added, learnBenchPositives)
	}
	for i := 0; i < learnBenchNegatives; i++ {
		sample.AddNegative(negatives[i*len(negatives)/learnBenchNegatives%len(negatives)])
	}
	return sample, nil
}

// medianLearn runs Learn repeatedly on the sample (Learn does not modify
// it) and returns the median and minimum wall time per call.
func medianLearn(g *graph.Graph, sample *learn.Sample, opts learn.Options, runs int) (median, minimum float64, err error) {
	times := make([]float64, 0, runs)
	for r := 0; r < runs; r++ {
		start := time.Now()
		if _, err := learn.Learn(g, sample, opts); err != nil {
			return 0, 0, err
		}
		times = append(times, float64(time.Since(start).Nanoseconds()))
	}
	sort.Float64s(times)
	return times[len(times)/2], times[0], nil
}

// runConvergence drives one simulated session to convergence and reports
// label effort and wall time.
func runConvergence(size int, seed int64) (learnConvergenceRow, error) {
	row := learnConvergenceRow{Graph: fmt.Sprintf("transport-%dx%d", size, size)}
	g := dataset.Transport(dataset.TransportOptions{Rows: size, Cols: size, Seed: seed, FacilityRate: 0.3})
	goal := regex.MustParse("(tram+bus)*.cinema")
	u := user.NewSimulated(g, goal)
	start := time.Now()
	tr, err := interactive.Run(g, u, interactive.Options{
		PathValidation:  true,
		MaxInteractions: g.NumNodes(),
	})
	if err != nil {
		return row, fmt.Errorf("learnbench: convergence on %s: %w", row.Graph, err)
	}
	row.WallMs = float64(time.Since(start).Nanoseconds()) / 1e6
	row.Labels = tr.Labels()
	row.Halt = string(tr.Halt)
	if tr.Final != nil {
		row.Learned = tr.Final.String()
	}
	if row.Labels > 0 {
		row.PerRoundC = row.WallMs / float64(row.Labels)
	}
	return row, nil
}

// runLearnBench runs the learner benchmarks and writes the JSON summary to
// outPath.
func runLearnBench(outPath string, seed int64) error {
	goal := regex.MustParse(learnBenchGoal)
	summary := learnBenchSummary{Goal: learnBenchGoal}
	opts := learn.Options{MaxPathLength: learnBenchMaxLen, Parallelism: 1}

	type workload struct {
		size   int
		name   string
		target *float64
	}
	for _, wl := range []workload{
		{10, "Learn10x10", &summary.Speedup10},
		{60, "Learn60x60", &summary.Speedup60},
	} {
		g := dataset.Transport(dataset.TransportOptions{Rows: wl.size, Cols: wl.size, Seed: seed, FacilityRate: 0.3})
		engine := rpq.New(g, goal)
		sample, err := buildLearnSample(g, engine)
		if err != nil {
			return err
		}
		desc := fmt.Sprintf("transport-%dx%d (%d nodes, %d edges)", wl.size, wl.size, g.NumNodes(), g.NumEdges())
		if wl.size == 10 {
			summary.Graph = desc
		} else {
			summary.LargeGraph = desc
			summary.Positives = len(sample.Positives)
			summary.Negatives = len(sample.Negatives)
		}
		perEngine := map[string]float64{}
		for _, eng := range []struct {
			key string
			ref bool
		}{{"dense", false}, {"reference", true}} {
			opts.Reference = eng.ref
			median, minimum, err := medianLearn(g, sample, opts, learnBenchRuns)
			if err != nil {
				return fmt.Errorf("learnbench: %s/%s: %w", wl.name, eng.key, err)
			}
			perEngine[eng.key] = median
			summary.Rows = append(summary.Rows, learnBenchRow{
				Name: wl.name, Engine: eng.key, Runs: learnBenchRuns, MedianNs: median, MinNs: minimum,
				Positives: len(sample.Positives), Negatives: len(sample.Negatives),
			})
			fmt.Printf("%-12s %-10s median %10.0f ns/op  min %10.0f ns/op  (%d+/%d-)\n",
				wl.name, eng.key, median, minimum, len(sample.Positives), len(sample.Negatives))
		}
		if d := perEngine["dense"]; d > 0 {
			*wl.target = perEngine["reference"] / d
		}
	}

	for _, size := range []int{10, 20} {
		row, err := runConvergence(size, seed)
		if err != nil {
			return err
		}
		summary.Convergence = append(summary.Convergence, row)
		fmt.Printf("converge %-14s %3d labels in %8.1f ms (%.2f ms/label, halt %s)\n",
			row.Graph, row.Labels, row.WallMs, row.PerRoundC, row.Halt)
	}

	fmt.Printf("Learn speedup dense vs reference: 10x10 %.1fx, 60x60 %.1fx\n", summary.Speedup10, summary.Speedup60)
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return fmt.Errorf("learnbench: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return fmt.Errorf("learnbench: %w", err)
	}
	fmt.Printf("wrote %s\n", outPath)
	appendBenchHistory(outPath, summary)
	return nil
}

// runLearnGate is the regression gate over a -learnbench summary: the
// dense engine must keep its advantage over the reference oracle on the
// 60x60 workload. Like -storegate, the check is a same-machine ratio
// produced in the same job, so it is robust to absolute runner speed.
func runLearnGate(path string, minSpeedup float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("learngate: %w", err)
	}
	var summary learnBenchSummary
	if err := json.Unmarshal(data, &summary); err != nil {
		return fmt.Errorf("learngate: %s: %w", path, err)
	}
	if len(summary.Rows) == 0 {
		return fmt.Errorf("learngate: %s has no benchmark rows", path)
	}
	fmt.Printf("learngate: 60x60 Learn speedup %.2fx (floor %.2fx)\n", summary.Speedup60, minSpeedup)
	printTrend(path, "speedup_60x60", "x", false, floatFieldFromSummary("speedup_60x60"))
	if summary.Speedup60 < minSpeedup {
		return fmt.Errorf("learngate: dense/reference 60x60 speedup %.2fx is below the %.2fx floor",
			summary.Speedup60, minSpeedup)
	}
	return nil
}
