package main

// Bench trend history: every -indexbench and -loadbench run appends its
// summary, timestamped, to a .jsonl file next to the .json output
// (BENCH_index.json -> BENCH_index.jsonl). The .json file stays a
// latest-run-only artifact for the gates; the .jsonl file accumulates one
// row per run, so a sequence of CI runs (or local runs on one machine)
// yields a comparable time series. The gates print the trend of their
// headline number against the previous recorded run, turning "passed the
// floor" into "passed the floor, and here is which way it is drifting".

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// benchHistoryRow is one line of a BENCH_*.jsonl history file.
type benchHistoryRow struct {
	TS      string          `json:"ts"`
	Summary json.RawMessage `json:"summary"`
}

// historyPath derives the .jsonl history path from a summary output path:
// BENCH_index.json -> BENCH_index.jsonl.
func historyPath(outPath string) string {
	return strings.TrimSuffix(outPath, filepath.Ext(outPath)) + ".jsonl"
}

// appendBenchHistory appends {"ts": ..., "summary": ...} to the history
// file of outPath. History is an operator aid: a failure to append is
// reported but never fails the bench run that produced the summary.
func appendBenchHistory(outPath string, summary any) {
	row := struct {
		TS      string `json:"ts"`
		Summary any    `json:"summary"`
	}{TS: time.Now().UTC().Format(time.RFC3339), Summary: summary}
	data, err := json.Marshal(row)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpsbench: bench history: %v\n", err)
		return
	}
	data = append(data, '\n')
	hp := historyPath(outPath)
	f, err := os.OpenFile(hp, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpsbench: bench history: %v\n", err)
		return
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		fmt.Fprintf(os.Stderr, "gpsbench: bench history %s: %v\n", hp, err)
		return
	}
	fmt.Printf("appended history row to %s\n", hp)
}

// readBenchHistory loads the history rows for outPath, oldest first.
// Malformed lines (a crashed writer, a manual edit) are skipped rather
// than poisoning the whole series.
func readBenchHistory(outPath string) []benchHistoryRow {
	f, err := os.Open(historyPath(outPath))
	if err != nil {
		return nil
	}
	defer f.Close()
	var rows []benchHistoryRow
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var row benchHistoryRow
		if err := json.Unmarshal([]byte(line), &row); err != nil || row.Summary == nil {
			continue
		}
		rows = append(rows, row)
	}
	return rows
}

// printTrend reports how the headline metric moved between the two most
// recent history rows of outPath. extract pulls the metric out of one
// summary; lowerIsBetter flips the improvement arrow for latency-style
// metrics. With fewer than two usable rows there is no trend yet, which
// is stated rather than silently omitted.
func printTrend(outPath, metric, unit string, lowerIsBetter bool, extract func(json.RawMessage) (float64, bool)) {
	rows := readBenchHistory(outPath)
	type point struct {
		ts  string
		val float64
	}
	var pts []point
	for _, row := range rows {
		if v, ok := extract(row.Summary); ok {
			pts = append(pts, point{ts: row.TS, val: v})
		}
	}
	hp := historyPath(outPath)
	if len(pts) < 2 {
		fmt.Printf("trend: %d run(s) in %s; need 2 for a %s delta\n", len(pts), hp, metric)
		return
	}
	prev, cur := pts[len(pts)-2], pts[len(pts)-1]
	deltaPct := 0.0
	if prev.val != 0 {
		deltaPct = (cur.val - prev.val) / prev.val * 100
	}
	direction := "flat"
	improved := cur.val > prev.val
	if lowerIsBetter {
		improved = cur.val < prev.val
	}
	if cur.val != prev.val {
		direction = "worse"
		if improved {
			direction = "better"
		}
	}
	fmt.Printf("trend: %s %.2f%s -> %.2f%s (%+.1f%%, %s) vs previous run %s (%d runs in %s)\n",
		metric, prev.val, unit, cur.val, unit, deltaPct, direction, prev.ts, len(pts), hp)
}

// floatFieldFromSummary extracts one top-level numeric field (e.g.
// "speedup_16_sessions") out of a summary row.
func floatFieldFromSummary(field string) func(json.RawMessage) (float64, bool) {
	return func(raw json.RawMessage) (float64, bool) {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			return 0, false
		}
		var v float64
		if err := json.Unmarshal(m[field], &v); err != nil {
			return 0, false
		}
		return v, true
	}
}
