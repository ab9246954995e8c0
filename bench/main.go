// Command bench is the end-to-end benchmark of gpsd: it boots the daemon
// as a subprocess, drives it through pkg/client from closed-loop drivers,
// checks what comes back, and reports the latency of the operation a user
// waits for — an evaluate call, or the turn from a label to the next
// question. With -trace 1 it reports per-layer metrics from an in-process
// replay instead. README.md says what each metric and workload is for;
// ../BENCHMARK.json names them and fixes their regression bounds.
//
// Run it through run.sh, which builds this program and gpsd:
//
//	bash bench/run.sh -seed 1                      # all five workloads
//	bash bench/run.sh -workload eval-warm -seed 2  # one of them
//	bash bench/run.sh -trace 1 -seed 1             # per-layer metrics
//	bash bench/run.sh -agree A.json B.json         # compare two result files
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// metric is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contract is the part of ../BENCHMARK.json the program reads: which
// metrics it must print, and the bounds -agree holds two runs to.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// why is the recorded reason a workload exists.
func (c contract) why(name string) string {
	for _, w := range c.Workloads {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}

// report is out/result.json (or, traced, out/trace.json).
type report struct {
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Nproc     int                `json:"nproc"`
	GoVersion string             `json:"go_version"`
	Commit    string             `json:"commit"`
	Workloads map[string]*result `json:"workloads"`
	Spans     map[string][]span  `json:"spans,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// commit is the revision the binary was built from, when the checkout is a
// git repository.
func commit() string {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
	}
	return rev + modified
}

func main() { os.Exit(run()) }

func run() int {
	seed := flag.Int64("seed", 1, "generates every input: graphs, queries, and so the sessions' answers")
	only := flag.String("workload", "", "run only this workload (default: all five)")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from an in-process replay with spans, written to out/trace.json")
	seconds := flag.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
	agree := flag.Bool("agree", false, "compare two result.json files (arguments) against the bounds of BENCHMARK.json")
	flag.Parse()

	var bm contract
	if err := readJSON("../BENCHMARK.json", &bm); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *agree {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -agree takes two result.json files")
			return 2
		}
		return agreeFiles(bm, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(bm.RunSeconds)
	}
	var todo []workload
	for _, w := range workloads {
		if *only == "" || *only == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *only)
		return 2
	}

	// SIGINT and SIGTERM cancel the context; every loop watches it, and the
	// deferred calls below reap the daemon and remove the scratch directory.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	runDir, err := newRunDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(runDir)
	cfg := config{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), drivers: runtime.NumCPU(), runDir: runDir}
	runtime.GOMAXPROCS(cfg.drivers)
	rep := report{Seed: *seed, Seconds: *seconds, Nproc: cfg.drivers, GoVersion: runtime.Version(), Commit: commit(), Workloads: map[string]*result{}}

	declared, outPath := bm.EndToEnd, "out/result.json"
	if *trace != 0 {
		declared, outPath = bm.PerLayer, "out/trace.json"
		rep.Spans = map[string][]span{}
	}
	status := 0
	for _, w := range todo {
		fmt.Printf("\n== %s: seed %d, %d closed-loop drivers on %d CPUs, warm-up %v, window %v\n   %s\n",
			w.name, cfg.seed, cfg.drivers, cfg.drivers, cfg.warmUp(), cfg.window, bm.why(w.name))
		var res *result
		if *trace != 0 {
			fmt.Println("traced run: spans wrap the bench's own in-process calls; the daemon is not instrumented, so tracing costs the end-to-end run nothing")
			tr := newTracer()
			res, err = traced(ctx, cfg, w, tr)
			rep.Spans[w.name] = tr.spans
		} else {
			res, err = measure(ctx, cfg, w)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		rep.Workloads[w.name] = res
		line, err := printResult(w, res, declared)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if !res.Correct || res.Failed > 0 {
			status = 1
		}
		if err := writeReport(outPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(line)
	}
	return status
}

func writeReport(path string, rep report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return f.Close()
}

// printResult prints a workload's phases, checks and metrics for a reader,
// and returns the one-line JSON object the driver parses: exactly the
// declared metrics, each with all the digits it was measured with.
func printResult(w workload, res *result, declared []metric) (string, error) {
	fmt.Printf("graph: transport %dx%d, %d nodes, %d edges; engine cache 1024 entries", w.rows, w.cols, res.Nodes, res.Edges)
	if w.durable {
		fmt.Print("; store: binary engine, -commit-interval 0 (group commit of what is queued, one fsync per batch)")
	}
	fmt.Println()
	if len(res.Boots) > 0 {
		fmt.Printf("setup: boots took %.4f s (exec gpsd -> graph ready, polled every 1 ms)\n", res.Boots)
	}
	for _, p := range phaseNames {
		if c := res.Phases[p]; c.Sent > 0 {
			fmt.Printf("%-8s requests sent %d, succeeded %d, failed %d\n", p+":", c.Sent, c.OK, c.Failed)
		}
	}
	fmt.Printf("checks: daemon engine-cache hit ratio %.4f", res.CacheRatio)
	if w.session {
		fmt.Printf("; %d sessions finished, each equal to its in-process reference run", res.Sessions)
	}
	if w.durable && len(res.Boots) > 0 {
		fmt.Printf("; %d sessions restored identically after SIGTERM and reboot", res.Restored)
	}
	fmt.Println()
	for _, v := range res.Violations {
		fmt.Println("VIOLATION:", v)
	}
	for _, e := range res.Errors {
		fmt.Println("FAILED:", e)
	}
	if res.Op != nil {
		fmt.Printf("operation latency (us): %v\n", *res.Op)
	}
	if res.FirstQ != nil {
		fmt.Printf("first question (ms, create sent -> first question event; diagnostic): %v\n", *res.FirstQ)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	fmt.Printf("%-32s %14s  %-6s %-7s %s\n", "metric", "value", "unit", "better", "bound")
	for _, m := range declared {
		v, ok := res.Metrics[m.Name]
		if !ok && m.Bound > 0 {
			return "", fmt.Errorf("metric %s was not measured", m.Name)
		}
		bound := "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", m.Bound*100)
		}
		fmt.Printf("%-32s %14.4f  %-6s %-7s %s\n", m.Name, v, m.Unit, m.Better, bound)
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(out)
	return string(line), err
}

// agreeFiles prints one row per (metric, workload) of two result files and
// fails when a row is missing or the two values disagree by more than the
// metric's bound, in either direction.
func agreeFiles(bm contract, pathA, pathB string) int {
	var a, b report
	if err := errors.Join(readJSON(pathA, &a), readJSON(pathB, &b)); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("A = %s (seed %d, commit %s)\nB = %s (seed %d, commit %s)\n", pathA, a.Seed, a.Commit, pathB, b.Seed, b.Commit)
	fmt.Printf("%-18s %-12s %14s %14s %8s  %-6s %s\n", "workload", "metric", "A", "B", "B/A", "bound", "")
	status := 0
	for _, w := range workloads {
		for _, m := range bm.EndToEnd {
			ra, rb := a.Workloads[w.name], b.Workloads[w.name]
			if ra == nil || rb == nil {
				fmt.Printf("%-18s %-12s MISSING: the workload is not in both files\n", w.name, m.Name)
				status = 1
				continue
			}
			va, okA := ra.Metrics[m.Name]
			vb, okB := rb.Metrics[m.Name]
			verdict := "agree"
			if !okA || !okB {
				verdict = "MISSING"
			} else if !agrees(m.Better, va, vb, m.Bound) {
				verdict = "DISAGREE"
			}
			if verdict != "agree" {
				status = 1
			}
			fmt.Printf("%-18s %-12s %14.4f %14.4f %8.3f  %-6s %s\n", w.name, m.Name, va, vb, vb/va, fmt.Sprintf("%.0f%%", m.Bound*100), verdict)
		}
	}
	return status
}
