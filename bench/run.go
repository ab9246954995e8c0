package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/rpq"
	"repro/internal/service"
	"repro/pkg/client"
)

// config is what one invocation fixes for every workload it runs.
type config struct {
	seed    int64
	window  time.Duration
	drivers int
	runDir  string // scratch for data dirs and daemon logs, removed at exit
}

// warmUp is 3 s of the 20 s window the issue specifies, scaled with it.
func (c config) warmUp() time.Duration { return c.window * 3 / 20 }

// result is one workload's outcome, as written to result.json. Metrics
// holds the gated end-to-end metrics (or, traced, the per-layer ones);
// everything else is diagnostic.
type result struct {
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
	Nodes      int                `json:"nodes"`
	Edges      int                `json:"edges"`
	Boots      []float64          `json:"setup_boots_s,omitempty"`
	Op         *summary           `json:"op_us,omitempty"`
	FirstQ     *summary           `json:"first_question_ms,omitempty"`
	Phases     map[string]counts  `json:"phases,omitempty"`
	CacheRatio float64            `json:"daemon_cache_hit_ratio"`
	Sessions   int                `json:"sessions_finished,omitempty"`
	Restored   int                `json:"sessions_restored,omitempty"`
	Violations []string           `json:"violations,omitempty"`
	Errors     []string           `json:"errors,omitempty"`
}

// boot starts a daemon, registers the workload's graph and waits until it
// serves at full speed. The returned duration is setup_s: exec of gpsd to
// graph ready, not counting go build.
func boot(ctx context.Context, cfg config, w workload, dataDir string, rt *countingTransport) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(ctx, cfg.runDir, dataDir, rt)
	if err != nil {
		return nil, 0, err
	}
	if err := d.loadGraph(ctx, w.spec(cfg.seed)); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("graph never became ready: %w\n%s", err, d.logTail())
	}
	return d, time.Since(start), nil
}

// dataDir makes a fresh data directory for a durable workload's boot.
func dataDir(cfg config, w workload) (string, error) {
	if !w.durable {
		return "", nil
	}
	return os.MkdirTemp(cfg.runDir, "data-")
}

// expectations evaluates, on the local graph, what the daemon must answer:
// the warm queries' node lists, or each goal's in-process session outcome.
func expectations(w workload, g *graph.Graph) (warmWant [][]graph.NodeID, refs []outcome, err error) {
	if w.warm {
		for _, q := range warmQueries {
			warmWant = append(warmWant, rpq.New(g, regex.MustParse(q)).Selected())
		}
	}
	if w.session {
		for _, goal := range sessionGoals {
			o := newOracle(g, goal)
			out, _, err := runReference(g, o, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("reference session for %s: %w", goal, err)
			}
			if out.Halt == "user-satisfied" && !rpq.New(g, regex.MustParse(out.Learned)).SameSelection(o.engine) {
				return nil, nil, fmt.Errorf("goal %s: session ended user-satisfied on %s, which selects a different node set", goal, out.Learned)
			}
			refs = append(refs, out)
		}
	}
	return warmWant, refs, nil
}

// driveWorkload runs the closed-loop drivers against a booted daemon.
func driveWorkload(ctx context.Context, cfg config, w workload, c *client.Client, g *graph.Graph, warm, window time.Duration, keep int, capture bool) (*recorder, error) {
	warmWant, refs, err := expectations(w, g)
	if err != nil {
		return nil, err
	}
	cq := newColdQueries(cfg.seed)
	return drive(cfg.drivers, warm, window, func(d int, r *recorder) {
		if w.session {
			sessionLoop(ctx, c, g, refs, cfg.seed, d, cfg.drivers, keep, capture && d == 0, r)
		} else {
			evalLoop(ctx, c, w, cq, warmWant, cfg.seed, d, cfg.drivers, r)
		}
	}), nil
}

// cacheRatio reads the daemon's own engine-cache counters and holds them to
// what the workload was built for: all hits warm, all misses cold.
func cacheRatio(ctx context.Context, w workload, c *client.Client, rec *recorder) float64 {
	gi, err := c.Graph(ctx, graphName)
	if err != nil {
		rec.violate("read cache counters: %v", err)
		return 0
	}
	ratio := float64(gi.Cache.Hits) / float64(max(gi.Cache.Hits+gi.Cache.Misses, 1))
	switch {
	case w.warm && ratio < 0.99:
		rec.violate("engine-cache hit ratio %.4f on the warm workload, want >= 0.99", ratio)
	case !w.warm && !w.session && ratio > 0.01:
		rec.violate("engine-cache hit ratio %.4f on a cold workload, want <= 0.01", ratio)
	}
	return ratio
}

// verifyCold re-evaluates the sampled cold responses on the local graph.
func verifyCold(g *graph.Graph, rec *recorder) {
	for _, s := range rec.cold {
		want := rpq.New(g, regex.MustParse(s.query)).Selected()
		if s.count != len(want) || !slices.Equal(s.nodes, want[:min(len(want), coldLimit)]) {
			rec.violate("%s: daemon selected %d nodes %v, local evaluation %d", s.query, s.count, s.nodes, len(want))
		}
	}
}

// verifyRestart stops the durable daemon, boots another on the same data
// directory and requires every session left in place to come back with the
// view the client last saw.
func verifyRestart(ctx context.Context, cfg config, d *daemon, dir string, rec *recorder) (restored int) {
	d.stop()
	d2, err := startDaemon(ctx, cfg.runDir, dir, nil)
	if err != nil {
		rec.violate("restart on the same data dir: %v", err)
		return 0
	}
	defer d2.stop()
	for _, want := range rec.kept {
		got, err := d2.c.Session(ctx, want.ID)
		if err != nil || !reflect.DeepEqual(got, want) {
			rec.violate("session %s after restart: %+v (%v), before: %+v", want.ID, got, err, want)
			continue
		}
		restored++
	}
	return restored
}

func (r *result) absorb(rec *recorder) {
	r.Phases = map[string]counts{}
	for p, c := range rec.counts {
		r.Phases[phaseNames[p]] = c
		r.Attempted += c.Sent
		r.Failed += c.Failed
	}
	r.Violations, r.Errors = rec.violations, rec.errs
	r.Correct = len(rec.violations) == 0
	r.Sessions = rec.sessions
}

// measure is the end-to-end run of one workload, tracing off.
func measure(ctx context.Context, cfg config, w workload) (*result, error) {
	g, err := service.BuildGraph(w.spec(cfg.seed))
	if err != nil {
		return nil, err
	}
	res := &result{Nodes: g.NumNodes(), Edges: g.NumEdges(), Metrics: map[string]float64{}}
	// Five boots, the median is setup_s; the last daemon serves the run.
	var d *daemon
	var dir string
	for b := 0; b < 5; b++ {
		if d != nil {
			d.stop()
		}
		if dir, err = dataDir(cfg, w); err != nil {
			return nil, err
		}
		var took time.Duration
		if d, took, err = boot(ctx, cfg, w, dir, nil); err != nil {
			return nil, err
		}
		defer d.stop()
		res.Boots = append(res.Boots, took.Seconds())
	}
	keep := 0
	if w.durable {
		keep = 2
	}
	rec, err := driveWorkload(ctx, cfg, w, d.c, g, cfg.warmUp(), cfg.window, keep, false)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	res.CacheRatio = cacheRatio(ctx, w, d.c, rec)
	verifyCold(g, rec)
	if w.durable {
		res.Restored = verifyRestart(ctx, cfg, d, dir, rec)
	}
	res.absorb(rec)
	if len(rec.ops) == 0 {
		return res, fmt.Errorf("no operation completed inside the window\n%s", d.logTail())
	}
	if !res.Correct || res.Failed > 0 {
		fmt.Fprintln(os.Stderr, d.logTail())
	}
	op := summarize(rec.ops)
	res.Op = &op
	if len(rec.firstQ) > 0 {
		fq := summarize(rec.firstQ)
		res.FirstQ = &fq
	}
	res.Metrics["setup_s"] = median(res.Boots)
	res.Metrics["op_p50_us"] = op.P50
	res.Metrics["ops_per_s"] = float64(op.N) / cfg.window.Seconds()
	return res, nil
}

// traced is the per-layer run of one workload: a short window over HTTP
// for what only the daemon can tell (its own compute time, response sizes,
// cache and store counters, the loopback round trip), then the in-process
// replay with spans. Nothing inside the daemon is instrumented, so the
// end-to-end run pays nothing for tracing.
func traced(ctx context.Context, cfg config, w workload, tr *tracer) (*result, error) {
	l := layers{}
	g, idx, err := traceSetup(tr, w, cfg.seed, l)
	if err != nil {
		return nil, err
	}
	res := &result{Nodes: g.NumNodes(), Edges: g.NumEdges(), Metrics: l}
	dir, err := dataDir(cfg, w)
	if err != nil {
		return nil, err
	}
	rt := &countingTransport{}
	d, _, err := boot(ctx, cfg, w, dir, rt)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	rtt := make([]float64, 200)
	for i := range rtt {
		start := time.Now()
		if err := d.c.Health(ctx); err != nil {
			return nil, err
		}
		rtt[i] = float64(time.Since(start)) / 1e3
	}
	l["client.rtt_us"] = median(rtt)
	before, err := d.c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	rt.bytes.Store(0)
	rt.responses.Store(0)
	rec, err := driveWorkload(ctx, cfg, w, d.c, g, cfg.window/20, cfg.window*7/20, 0, w.durable)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	l["service.response_bytes"] = float64(rt.bytes.Load()) / float64(max(rt.responses.Load(), 1))
	after, err := d.c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	res.CacheRatio = cacheRatio(ctx, w, d.c, rec)
	l["rpq.cache_hit_ratio"] = res.CacheRatio
	d.stop()
	res.absorb(rec)
	if len(rec.ops) == 0 {
		return res, fmt.Errorf("no operation completed inside the window\n%s", d.logTail())
	}
	op := summarize(rec.ops)
	res.Op = &op

	if w.session {
		turns, turnMs, err := traceSessions(tr, g, l)
		if err != nil {
			return nil, err
		}
		storeMs := 0.0
		if w.durable {
			if rec.transcript == nil {
				return nil, fmt.Errorf("no session finished in the traced window, nothing to replay into the store")
			}
			storeDir, err := os.MkdirTemp(cfg.runDir, "replay-")
			if err != nil {
				return nil, err
			}
			if err := traceStore(tr, storeDir, rec.transcript, l); err != nil {
				return nil, err
			}
			delta := func(family string) float64 { return scrape(after, family) - scrape(before, family) }
			labels := float64(rec.turns)
			appends := delta("gpsd_store_journal_appends_total")
			l["store.records_per_turn"] = appends / max(labels, 1)
			l["store.bytes_per_turn"] = delta("gpsd_store_journal_bytes_total") / max(labels, 1)
			l["store.fsyncs_per_record"] = delta("gpsd_store_fsyncs_total") / max(appends, 1)
			storeMs = l["store.append_us"] * l["store.records_per_turn"] / 1e3
		}
		l["service.turn_residual_ms"] = op.Mean/1e3 - turnMs - storeMs
		fmt.Printf("replayed %d turns in process: mean turn %.3f ms; over HTTP mean %.3f ms, p50 %.3f ms\n", int(turns), turnMs, op.Mean/1e3, op.P50/1e3)
		printSum(l, []string{"interactive.turn_self_ms", "learn.witnesses_ms", "learn.generalize_ms", "learn.negative_checks_ms"}, 1e3, storeMs*1e3, op)
	} else {
		n := traceEval(ctx, tr, w, cfg.seed, g, idx, cfg.window*7/20, l)
		compute := summarize(rec.compute)
		l["service.compute_us"] = compute.Mean
		l["service.residual_us"] = op.Mean - compute.Mean
		sum := []string{"regex.parse_us", "rpq.cache_get_us"}
		if !w.warm {
			sum = []string{"regex.parse_us", "automaton.compile_us", "rpq.sweep_indexed_us", "rpq.sweep_plain_us"}
		}
		fmt.Printf("replayed %d requests in process; over HTTP mean %.1f us, p50 %.1f us, of which the daemon reports %.1f us of compute\n", n, op.Mean, op.P50, compute.Mean)
		printSum(l, sum, 1, 0, op)
	}
	return res, nil
}

// printSum closes a traced workload: the layers an operation crosses, their
// mean self times summed, against the end-to-end median. scale converts the
// layers' unit to microseconds; extraUs is the store's share, which is a
// product of two metrics, not one.
func printSum(l layers, names []string, scale, extraUs float64, op summary) {
	total := extraUs
	for _, n := range names {
		total += l[n] * scale
	}
	fmt.Printf("sum of layer self-times %.1f us vs end-to-end p50 %.1f us: residual %.1f us, %.0f%% of p50 (HTTP, encode/decode, scheduling; not gated)\n",
		total, op.P50, op.P50-total, 100*(op.P50-total)/op.P50)
}

// newRunDir makes the scratch directory of this invocation.
func newRunDir() (string, error) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp("out", "run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
