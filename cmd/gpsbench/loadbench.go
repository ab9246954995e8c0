package main

// Multi-tenant load harness for gpsd: boot a real gpsd subprocess behind
// an API keyring, offer it traffic from several tenants over the typed
// client, and measure what the fair-share admission actually delivers —
// not what the scheduler's unit tests promise. Two phases, each against a
// fresh daemon:
//
//   - baseline: one tenant, polite load. Its p99 request latency is the
//     single-tenant reference.
//   - contended: four tenants with equal quotas, one offering roughly 10x
//     the load of the others. The greedy tenant must be the one eating
//     429s; the polite tenants' admission-error rate must stay under the
//     gate (1% by default) and their p99 latency within a small factor of
//     the baseline.
//
// The per-tenant latency numbers come from the daemon's own
// gpsd_tenant_http_request_duration_seconds histograms on /metrics, so
// the load run also proves the tenant-labelled scrape surface works. The
// summary feeds -loadgate (the CI fairness gate) and the BENCH_load.jsonl
// trend history.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/pkg/client"
)

type loadOptions struct {
	gpsdPath string
	addr     string
	duration time.Duration
	seed     int64
	out      string
	verbose  bool
}

// loadQuota and loadPool shape the contention: four tenants with three
// live sessions each would want twelve slots, the global pool has eight —
// admission must arbitrate, which is the point.
const (
	loadTenants = 4
	loadQuota   = 3
	loadPool    = 8
)

// loadTenantResult is one tenant's client-side view of the run.
type loadTenantResult struct {
	Attempts         int64 `json:"attempts"`
	Admitted         int64 `json:"admitted"`
	RejectedQuota    int64 `json:"rejected_quota"`
	RejectedOverload int64 `json:"rejected_overload"`
	OtherErrors      int64 `json:"other_errors"`
	Answers          int64 `json:"answers"`
}

func (r *loadTenantResult) rejections() int64 { return r.RejectedQuota + r.RejectedOverload }

// loadSummary is the JSON written by -loadbench-out and gated by
// -loadgate. The headline p99s are the label endpoint's — the request
// that carries the actual learning work — while the per-endpoint maps
// keep the full p50/p99 picture of both phases.
type loadSummary struct {
	Seed               int64                       `json:"seed"`
	Tenants            int                         `json:"tenants"`
	QuotaPerTenant     int                         `json:"quota_per_tenant"`
	GlobalPool         int                         `json:"global_max_sessions"`
	PhaseSeconds       float64                     `json:"phase_seconds"`
	BaselineP99Us      float64                     `json:"baseline_p99_us"`
	ContendedP99Us     float64                     `json:"contended_p99_us"`
	P99Ratio           float64                     `json:"p99_ratio"`
	PoliteAttempts     int64                       `json:"polite_attempts"`
	PoliteRejected     int64                       `json:"polite_rejected"`
	PoliteErrorRate    float64                     `json:"polite_error_rate"`
	GreedyAttempts     int64                       `json:"greedy_attempts"`
	GreedyAdmitted     int64                       `json:"greedy_admitted"`
	GreedyRejected     int64                       `json:"greedy_rejected"`
	PerTenant          map[string]loadTenantResult `json:"per_tenant"`
	BaselineEndpoints  map[string]loadLatency      `json:"baseline_endpoints"`
	ContendedEndpoints map[string]loadLatency      `json:"contended_endpoints"`
	Violations         []string                    `json:"violations"`
}

// loadLabelEndpoint is the endpoint the fairness gate measures: answering
// a pending question is the request that carries the learning work.
const loadLabelEndpoint = "POST /v1/sessions/{id}/label"

func loadTenantName(i int) string    { return fmt.Sprintf("t%d", i) }
func loadTenantKey(tn string) string { return "sk-load-" + tn }

// loadBaselineTenant is the phase-1 tenant: it owns the whole session
// pool, so the identical worker mix offered by one tenant yields the
// single-tenant latency reference the contended phase is compared to.
const loadBaselineTenant = "baseline"

// writeLoadKeyring materialises the keyring file both phases boot with:
// every contending tenant gets the same quota, queue depth and weight —
// whatever fairness emerges is the scheduler's doing, not the
// configuration's.
func writeLoadKeyring(dir string) (string, error) {
	cfg := service.KeyringConfig{
		Tenants: map[string]service.TenantLimits{
			loadBaselineTenant: {MaxSessions: loadPool, MaxQueued: loadQuota, Weight: 1},
		},
		Keys: map[string]string{
			loadTenantKey(loadBaselineTenant): loadBaselineTenant,
		},
	}
	for i := 0; i < loadTenants; i++ {
		cfg.Tenants[loadTenantName(i)] = service.TenantLimits{
			MaxSessions: loadQuota,
			MaxQueued:   loadQuota,
			Weight:      1,
		}
		cfg.Keys[loadTenantKey(loadTenantName(i))] = loadTenantName(i)
	}
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "keyring.json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadDaemon is one gpsd subprocess per phase.
type loadDaemon struct {
	cmd    *exec.Cmd
	exitCh chan error
}

func startLoadDaemon(opts loadOptions, keyring string, logf *os.File) (*loadDaemon, error) {
	args := []string{
		"-addr", opts.addr,
		"-max-sessions", strconv.Itoa(loadPool),
		"-api-keys", keyring,
		"-admit-wait", "2s",
		"-request-timeout", "10s",
		"-preload", "demo=figure1,grid=transport:8x8",
	}
	cmd := exec.Command(opts.gpsdPath, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	dieWithHarness(cmd)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start gpsd: %w", err)
	}
	d := &loadDaemon{cmd: cmd, exitCh: make(chan error, 1)}
	go func() { d.exitCh <- cmd.Wait() }()

	probe := client.New("http://" + opts.addr)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if err := probe.Health(context.Background()); err == nil {
			return d, nil
		}
		select {
		case <-d.exitCh:
			return nil, fmt.Errorf("gpsd exited before becoming healthy (see %s)", logf.Name())
		default:
		}
		time.Sleep(25 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("gpsd not healthy within 30s (see %s)", logf.Name())
}

func (d *loadDaemon) stop() {
	if d.cmd != nil && d.cmd.Process != nil {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
	}
	select {
	case <-d.exitCh:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exitCh
	}
}

// loadWorker drives one manual-session loop for its tenant: create,
// answer every question through the label endpoint, delete, think,
// repeat. The think time (0 for the greedy tenant) is the entire
// difference between polite and greedy load.
func loadWorker(ctx context.Context, c *client.Client, res *loadTenantResult, seed int64, think time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	for ctx.Err() == nil {
		atomic.AddInt64(&res.Attempts, 1)
		v, err := c.CreateSession(ctx, service.SessionConfig{
			Graph: "grid", Mode: "manual", MaxInteractions: 6,
		})
		switch code := client.CodeOf(err); {
		case err == nil:
			atomic.AddInt64(&res.Admitted, 1)
		case code == service.CodeQuotaExceeded:
			atomic.AddInt64(&res.RejectedQuota, 1)
		case code == service.CodeOverloaded:
			atomic.AddInt64(&res.RejectedOverload, 1)
		case ctx.Err() != nil:
			return
		default:
			atomic.AddInt64(&res.OtherErrors, 1)
		}
		if err != nil {
			// Back off a little before re-offering; the greedy tenant's
			// zero think time keeps its offered load high regardless.
			sleepCtx(ctx, think+5*time.Millisecond)
			continue
		}
		driveLoadSession(ctx, c, res, rng, v)
		sleepCtx(ctx, think)
	}
}

// driveLoadSession answers one admitted session to completion (or the
// phase end) and deletes it so the slot returns to the pool.
func driveLoadSession(ctx context.Context, c *client.Client, res *loadTenantResult, rng *rand.Rand, v service.SessionView) {
	sid := v.ID
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = c.DeleteSession(dctx, sid)
	}()
	for ctx.Err() == nil {
		if v.Status == service.StatusDone || v.Status == service.StatusFailed {
			return
		}
		if v.Pending != nil {
			ans := service.Answer{Seq: v.Pending.Seq}
			switch v.Pending.Kind {
			case "label":
				ans.Decision = "positive"
				if rng.Intn(3) == 0 {
					ans.Decision = "negative"
				}
			case "path":
				ans.Accept = true
			case "satisfied":
				sat := rng.Intn(8) == 0
				ans.Satisfied = &sat
			}
			nv, err := c.Answer(ctx, sid, ans)
			if err == nil {
				atomic.AddInt64(&res.Answers, 1)
				v = nv
				continue
			}
			if !client.IsCode(err, service.CodeConflict) {
				return
			}
		}
		nv, err := c.Session(ctx, sid)
		if err != nil {
			return
		}
		v = nv
	}
}

func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// loadPhaseResult is what one phase yields: the per-tenant client-side
// accounting, the per-endpoint latency views scraped from /metrics, and
// whether the tenant-labelled metric families showed up at all.
type loadPhaseResult struct {
	tenants       map[string]*loadTenantResult
	endpoints     map[string]loadLatency
	tenantMetrics bool
}

// loadGroup is one batch of identical workers for one tenant. The two
// phases offer the same group shapes — 6 polite workers with think time
// plus 20 saturating ones — differing only in how the groups map onto
// tenants, so the latency comparison is load-for-load.
type loadGroup struct {
	tenant  string
	workers int
	think   time.Duration
}

// runLoadPhase offers load from the given groups for the phase duration,
// then scrapes the daemon's /metrics for the per-endpoint latency
// histograms.
func runLoadPhase(opts loadOptions, groups []loadGroup) (loadPhaseResult, error) {
	out := loadPhaseResult{tenants: map[string]*loadTenantResult{}}
	ctx, cancel := context.WithTimeout(context.Background(), opts.duration)
	defer cancel()
	var wg sync.WaitGroup
	seed := opts.seed
	for _, g := range groups {
		res := out.tenants[g.tenant]
		if res == nil {
			res = &loadTenantResult{}
			out.tenants[g.tenant] = res
		}
		c := client.New("http://"+opts.addr, client.WithAPIKey(loadTenantKey(g.tenant)))
		for w := 0; w < g.workers; w++ {
			wg.Add(1)
			seed++
			go func(seed int64, think time.Duration) {
				defer wg.Done()
				loadWorker(ctx, c, res, seed, think)
			}(seed, g.think)
		}
	}
	wg.Wait()

	mctx, mcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer mcancel()
	body, err := client.New("http://" + opts.addr).Metrics(mctx)
	if err != nil {
		return out, fmt.Errorf("scrape /metrics: %w", err)
	}
	out.endpoints = parseEndpointLatencies(body)
	out.tenantMetrics = strings.Contains(body, "gpsd_tenant_http_request_duration_seconds_bucket{")
	if len(out.endpoints) == 0 {
		return out, fmt.Errorf("/metrics has no gpsd_http_request_duration_seconds buckets")
	}
	return out, nil
}

// loadLatency is one endpoint's latency view in the summary.
type loadLatency struct {
	Count float64 `json:"count"`
	P50Us float64 `json:"p50_us"`
	P99Us float64 `json:"p99_us"`
}

// parseEndpointLatencies extracts every endpoint's latency histogram out
// of a /metrics exposition and renders interpolated p50/p99 views.
// Quantiles interpolate linearly inside the covering bucket
// (histogram_quantile style) so the gate's ratio is not quantized to
// bucket-bound jumps.
func parseEndpointLatencies(body string) map[string]loadLatency {
	type hist struct {
		les  []float64
		cums []float64
		inf  float64
	}
	hists := map[string]*hist{}
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, "gpsd_http_request_duration_seconds_bucket{")
		if !ok {
			continue
		}
		endpoint, ok := labelValue(rest, "endpoint")
		if !ok {
			continue
		}
		leRaw, ok := labelValue(rest, "le")
		if !ok {
			continue
		}
		sp := strings.LastIndexByte(rest, ' ')
		if sp < 0 {
			continue
		}
		cum, err := strconv.ParseFloat(rest[sp+1:], 64)
		if err != nil {
			continue
		}
		h := hists[endpoint]
		if h == nil {
			h = &hist{}
			hists[endpoint] = h
		}
		if leRaw == "+Inf" {
			h.inf = cum
			continue
		}
		le, err := strconv.ParseFloat(leRaw, 64)
		if err != nil {
			continue
		}
		h.les = append(h.les, le)
		h.cums = append(h.cums, cum)
	}
	out := map[string]loadLatency{}
	for endpoint, h := range hists {
		if h.inf == 0 {
			continue
		}
		quantile := func(q float64) float64 {
			target := q * h.inf
			prevLe, prevCum := 0.0, 0.0
			for i, cum := range h.cums {
				if cum >= target {
					le := h.les[i]
					if cum > prevCum {
						le = prevLe + (le-prevLe)*(target-prevCum)/(cum-prevCum)
					}
					return le * 1e6
				}
				prevLe, prevCum = h.les[i], cum
			}
			if len(h.les) > 0 {
				return h.les[len(h.les)-1] * 1e6 // overflow: last finite bound
			}
			return 0
		}
		out[endpoint] = loadLatency{Count: h.inf, P50Us: quantile(0.50), P99Us: quantile(0.99)}
	}
	return out
}

// labelValue pulls one label's value out of a raw series line; the obs
// exposition never emits escaped quotes inside the labels parsed here.
func labelValue(rest, label string) (string, bool) {
	i := strings.Index(rest, label+`="`)
	if i < 0 {
		return "", false
	}
	start := i + len(label) + 2
	end := strings.Index(rest[start:], `"`)
	if end < 0 {
		return "", false
	}
	return rest[start : start+end], true
}

func runLoadBench(opts loadOptions) error {
	if opts.gpsdPath == "" {
		return fmt.Errorf("-loadbench needs -load-gpsd <path-to-gpsd-binary>")
	}
	if opts.duration <= 0 {
		opts.duration = 8 * time.Second
	}
	dir, err := os.MkdirTemp("", "gpsd-load-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	keyring, err := writeLoadKeyring(dir)
	if err != nil {
		return err
	}
	logf, err := os.Create(filepath.Join(dir, "gpsd.log"))
	if err != nil {
		return err
	}
	defer logf.Close()

	fmt.Printf("loadbench: %d tenants, quota %d each, pool %d, %.0fs per phase\n",
		loadTenants, loadQuota, loadPool, opts.duration.Seconds())

	politeThink := 20 * time.Millisecond

	// Phase 1 — baseline: the whole worker mix from a single tenant that
	// owns the whole pool, against a fresh daemon.
	d, err := startLoadDaemon(opts, keyring, logf)
	if err != nil {
		return fmt.Errorf("baseline boot: %w", err)
	}
	base, err := runLoadPhase(opts, []loadGroup{
		{tenant: loadBaselineTenant, workers: 2 * (loadTenants - 1), think: politeThink},
		{tenant: loadBaselineTenant, workers: 20, think: 0},
	})
	d.stop()
	if err != nil {
		return fmt.Errorf("baseline phase: %w", err)
	}
	baseP99 := base.endpoints[loadLabelEndpoint].P99Us
	fmt.Printf("loadbench: baseline label p99 = %.0fus (single tenant, whole pool)\n", baseP99)

	// Phase 2 — contended: the same worker mix split across tenants with
	// equal quotas: three polite tenants plus one offering ~10x.
	d, err = startLoadDaemon(opts, keyring, logf)
	if err != nil {
		return fmt.Errorf("contended boot: %w", err)
	}
	greedy := loadTenantName(loadTenants - 1)
	groups := []loadGroup{{tenant: greedy, workers: 20, think: 0}}
	for i := 0; i < loadTenants-1; i++ {
		groups = append(groups, loadGroup{tenant: loadTenantName(i), workers: 2, think: politeThink})
	}
	cont, err := runLoadPhase(opts, groups)
	d.stop()
	if err != nil {
		return fmt.Errorf("contended phase: %w", err)
	}
	contP99 := cont.endpoints[loadLabelEndpoint].P99Us

	sum := loadSummary{
		Seed:               opts.seed,
		Tenants:            loadTenants,
		QuotaPerTenant:     loadQuota,
		GlobalPool:         loadPool,
		PhaseSeconds:       opts.duration.Seconds(),
		BaselineP99Us:      baseP99,
		ContendedP99Us:     contP99,
		PerTenant:          map[string]loadTenantResult{},
		BaselineEndpoints:  base.endpoints,
		ContendedEndpoints: cont.endpoints,
		Violations:         []string{},
	}
	if baseP99 > 0 {
		sum.P99Ratio = contP99 / baseP99
	}
	if baseP99 == 0 || contP99 == 0 {
		sum.Violations = append(sum.Violations, "label endpoint latency histogram missing from /metrics")
	}
	if !base.tenantMetrics || !cont.tenantMetrics {
		sum.Violations = append(sum.Violations, "tenant-labelled latency families missing from /metrics")
	}
	for name, res := range cont.tenants {
		sum.PerTenant[name] = *res
		if name == greedy {
			sum.GreedyAttempts = res.Attempts
			sum.GreedyAdmitted = res.Admitted
			sum.GreedyRejected = res.rejections()
		} else {
			sum.PoliteAttempts += res.Attempts
			sum.PoliteRejected += res.rejections()
		}
		if res.OtherErrors > 0 {
			sum.Violations = append(sum.Violations,
				fmt.Sprintf("tenant %s saw %d unexpected errors", name, res.OtherErrors))
		}
		if res.Admitted == 0 {
			sum.Violations = append(sum.Violations,
				fmt.Sprintf("tenant %s was never admitted — starved outright", name))
		}
		if opts.verbose {
			fmt.Printf("loadbench: tenant %s: %+v\n", name, *res)
		}
	}
	if sum.PoliteAttempts > 0 {
		sum.PoliteErrorRate = float64(sum.PoliteRejected) / float64(sum.PoliteAttempts)
	}
	if sum.GreedyRejected == 0 {
		sum.Violations = append(sum.Violations,
			"greedy tenant was never rejected — admission is not pushing back")
	}

	fmt.Printf("loadbench: contended label p99 = %.0fus (%.2fx baseline), polite admission-error rate = %.3f%% (%d/%d), greedy admitted %d / rejected %d\n",
		contP99, sum.P99Ratio, sum.PoliteErrorRate*100, sum.PoliteRejected, sum.PoliteAttempts, sum.GreedyAdmitted, sum.GreedyRejected)

	if opts.out != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", opts.out)
		appendBenchHistory(opts.out, sum)
	}
	if len(sum.Violations) > 0 {
		for _, v := range sum.Violations {
			fmt.Fprintf(os.Stderr, "loadbench: VIOLATION: %s\n", v)
		}
		return fmt.Errorf("%d load violations", len(sum.Violations))
	}
	return nil
}

// runLoadGate is the CI fairness gate over a -loadbench summary: the
// polite tenants' admission-error rate must stay under maxRate and their
// contended p99 within maxRatio of the single-tenant baseline.
func runLoadGate(path string, maxRate, maxRatio float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("loadgate: %w", err)
	}
	var sum loadSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		return fmt.Errorf("loadgate: %s: %w", path, err)
	}
	var fails []string
	if len(sum.Violations) > 0 {
		fails = append(fails, fmt.Sprintf("summary carries %d violations: %v", len(sum.Violations), sum.Violations))
	}
	if sum.PoliteAttempts == 0 {
		fails = append(fails, "no polite admission attempts recorded")
	}
	if sum.PoliteErrorRate >= maxRate {
		fails = append(fails, fmt.Sprintf("polite admission-error rate %.3f%% >= %.3f%%",
			sum.PoliteErrorRate*100, maxRate*100))
	}
	if sum.P99Ratio > maxRatio {
		fails = append(fails, fmt.Sprintf("contended p99 is %.2fx the single-tenant baseline (max %.2fx)",
			sum.P99Ratio, maxRatio))
	}
	fmt.Printf("loadgate: polite error rate %.3f%% (max %.3f%%), p99 ratio %.2fx (max %.2fx), greedy rejected %d\n",
		sum.PoliteErrorRate*100, maxRate*100, sum.P99Ratio, maxRatio, sum.GreedyRejected)
	printTrend(path, "p99_ratio", "x", true, floatFieldFromSummary("p99_ratio"))
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "loadgate: FAIL: %s\n", f)
		}
		return fmt.Errorf("fairness gate failed (%d checks)", len(fails))
	}
	fmt.Println("loadgate: fairness gate passed")
	return nil
}
