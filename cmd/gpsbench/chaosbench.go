package main

// Chaos harness for gpsd: prove that the daemon can be killed anywhere —
// including inside every phase of a live compaction — and come back with
// nothing lost. The harness spawns a real gpsd subprocess on a throwaway
// data directory, drives dozens of concurrent learning sessions over plain
// HTTP, and meanwhile a controller SIGKILLs the daemon at randomized
// instants (or arms GPSD_FAULT_CRASH so the daemon executes its own crash
// inside a chosen compaction phase), restarts it and verifies the resume
// invariants:
//
//   - every created session still exists after recovery, none is "failed";
//   - labels never go backwards and a finished session's view never
//     changes again, across any number of crashes;
//   - a pending question re-published after resume is identical (same
//     seq, kind and node) to the one that was pending before the crash;
//   - a hard death leaks the LOCK file and the next boot breaks it; a
//     clean SIGTERM removes it;
//   - the store never reports a corrupt frame, and live compaction ran
//     and retired segments while all of this was going on.
//
// After the kill budget is spent every session is driven to completion,
// the final views must survive one more clean restart byte-identical, and
// the whole run is replayed against an in-process oracle server over a
// store in a temporary directory: same graphs, same sessions, same
// deterministic answer policy, zero crashes. Learned query, halt reason,
// status and label count must agree session by session — the
// crash-riddled daemon and the never-killed server are equivalent or the
// run fails.
//
// Every client decision is a pure function of (seed, session spec index,
// question content), so a question re-asked after a crash always receives
// the same answer the lost run would have given — which is exactly what
// makes the oracle comparison meaningful.

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/store"
	"repro/pkg/client"
)

// chaosPreloads are the graphs served by both the tortured daemon (via
// -preload) and the oracle server. figure1 is tiny; the transport grid
// gives manual sessions enough nodes to stay alive through many kills.
var chaosPreloads = []string{"demo=figure1", "grid=transport:8x8"}

// chaosFaultPhases are the GPSD_FAULT_CRASH points cycled by every third
// kill, parking a crash inside each phase of the live compaction swap.
var chaosFaultPhases = []string{
	"compact-scanned", "compact-written", "compact-linked",
	"compact-swap-mid", "compact-swapped", "compact-done",
}

type chaosOptions struct {
	gpsdPath  string
	addr      string
	kills     int
	sessions  int
	seed      int64
	out       string
	telemetry string
	verbose   bool
}

// chaosSummary is the JSON written by -chaosbench-out and printed at the
// end of a run.
type chaosSummary struct {
	Seed           int64    `json:"seed"`
	Kills          int      `json:"kills"`
	FaultKills     int      `json:"fault_kills"`
	Sessions       int      `json:"sessions"`
	AnswersPosted  int64    `json:"answers_posted"`
	CompactionRuns int64    `json:"compaction_runs"`
	SegmentsRetire int64    `json:"segments_retired"`
	TruncatedTails int64    `json:"truncated_journals"`
	Violations     []string `json:"violations"`
}

// chaosSpec is one session the harness creates and owns. The spec index —
// not the server-assigned session id — keys the deterministic answer
// policy, so the oracle run (which assigns its own ids) stays comparable.
type chaosSpec struct {
	idx   int
	graph string
	cfg   service.SessionConfig
}

// chaosSession tracks one live session across restarts. observe enforces
// the cross-crash invariants between *settled* views: a view with a
// published pending question or a terminal status. A resumed session
// rebuilds its state by re-driving the learning loop through the
// journaled answers, so mid-replay views legitimately show a partial
// label count — but a pending question is only published after every
// journaled answer has been replayed, which makes settled views
// comparable across any number of crashes.
type chaosSession struct {
	spec chaosSpec
	sid  string
	// relaxed drops the cross-crash monotonicity checks. The failover
	// harness sets it: replication is asynchronous, so a promotion can
	// lose the acked tail — labels regress, even a finished session can
	// re-open — and the deterministic answer policy re-drives the lost
	// suffix identically, which the final oracle comparison proves. The
	// single-node chaos run keeps the strict checks.
	relaxed bool

	mu         sync.Mutex
	seen       bool
	last       service.SessionView
	hasSettled bool
	settled    service.SessionView
}

// observe checks a freshly fetched view against the previous settled one
// and records it. Violations are collected, not fatal: the run continues
// so one bad resume surfaces every invariant it breaks.
func (cs *chaosSession) observe(v service.SessionView, rep *chaosReport) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.last, cs.seen = v, true
	if v.Status == service.StatusFailed {
		rep.violatef("session %s (spec %d) failed: %s", cs.sid, cs.spec.idx, v.Error)
	}
	if v.Pending == nil && v.Status != service.StatusDone {
		return // mid-run or mid-replay: not a comparison point
	}
	old, settled := cs.settled, cs.hasSettled
	cs.settled, cs.hasSettled = v, true
	if !settled || cs.relaxed {
		return
	}
	if old.Status == service.StatusDone {
		if !reflect.DeepEqual(old, v) {
			rep.violatef("finished session %s changed after a restart:\n  was %+v\n  now %+v", cs.sid, old, v)
		}
		return
	}
	if v.Labels < old.Labels {
		rep.violatef("session %s labels went backwards across settled views: %d -> %d", cs.sid, old.Labels, v.Labels)
	}
	if old.Pending != nil && v.Pending != nil {
		if v.Pending.Seq < old.Pending.Seq {
			rep.violatef("session %s pending question seq went backwards: %d -> %d", cs.sid, old.Pending.Seq, v.Pending.Seq)
		}
		if v.Pending.Seq == old.Pending.Seq &&
			(v.Pending.Kind != old.Pending.Kind || v.Pending.Node != old.Pending.Node) {
			rep.violatef("session %s question %d diverged after resume: was %s %q, now %s %q",
				cs.sid, old.Pending.Seq, old.Pending.Kind, old.Pending.Node, v.Pending.Kind, v.Pending.Node)
		}
	}
}

func (cs *chaosSession) view() (service.SessionView, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.last, cs.seen
}

// chaosReport collects invariant violations from every goroutine.
type chaosReport struct {
	mu         sync.Mutex
	violations []string
}

func (r *chaosReport) violatef(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *chaosReport) list() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.violations...)
}

// newChaosClient builds the typed API client the drivers share. Every
// driver tolerates transport errors (the server is being murdered on
// purpose) and retries; typed *client.APIError codes separate protocol
// answers from weather.
func newChaosClient(base string) *client.Client {
	return client.New(base, client.WithTimeout(5*time.Second))
}

// chaosHash mixes the run seed, the spec index and the question identity
// into the deterministic decision source.
func chaosHash(seed int64, specIdx int, parts ...string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d", seed, specIdx)
	for _, p := range parts {
		h.Write([]byte("|"))
		h.Write([]byte(p))
	}
	return h.Sum64()
}

// chaosAnswer is the deterministic answer policy: a pure function of the
// question, so a crash-replayed question gets the crash-lost answer.
func chaosAnswer(seed int64, specIdx int, q *service.Question) service.Answer {
	h := chaosHash(seed, specIdx, fmt.Sprint(q.Seq), q.Kind, string(q.Node), q.Learned)
	a := service.Answer{Seq: q.Seq}
	switch q.Kind {
	case "label":
		switch {
		case q.CanZoom && h%11 == 0:
			a.Decision = "zoom"
		case h%3 == 0:
			a.Decision = "negative"
		default:
			a.Decision = "positive"
		}
	case "path":
		a.Accept = true
	case "satisfied":
		sat := h%16 == 0
		a.Satisfied = &sat
	}
	return a
}

// chaosRun owns the daemon subprocess, the drivers and the counters.
type chaosRun struct {
	opts    chaosOptions
	client  *client.Client
	rep     *chaosReport
	specs   []*chaosSession
	dataDir string
	logf    *os.File
	tel     *telemetryRecorder
	epoch   int

	cmd    *exec.Cmd
	exitCh chan error

	answers atomic.Int64
	// cur holds the monotonic store counters of the running daemon; on
	// process death they are folded into the cumulative totals (counters
	// restart from zero with the process).
	cur, totals chaosStoreStats
}

type chaosStoreStats struct {
	CompactionRuns  int64 `json:"compaction_runs"`
	RetiredSegments int64 `json:"retired_segments"`
	CorruptFrames   int64 `json:"corrupt_frames"`
	Truncated       int64 `json:"truncated_journals"`
}

func runChaosBench(opts chaosOptions) error {
	if opts.gpsdPath == "" {
		return fmt.Errorf("-chaosbench needs -chaos-gpsd <path-to-gpsd-binary>")
	}
	if opts.sessions < 2 {
		opts.sessions = 2
	}
	dir, err := os.MkdirTemp("", "gpsd-chaos-*")
	if err != nil {
		return err
	}
	// Keep the data directory and daemon log around when the run fails —
	// they are the post-mortem.
	keep := false
	defer func() {
		if keep {
			fmt.Fprintf(os.Stderr, "chaosbench: kept %s for inspection\n", dir)
			return
		}
		os.RemoveAll(dir)
	}()
	logf, err := os.Create(filepath.Join(dir, "gpsd.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	c := &chaosRun{
		opts:    opts,
		client:  newChaosClient("http://" + opts.addr),
		rep:     &chaosReport{},
		dataDir: filepath.Join(dir, "data"),
		logf:    logf,
	}
	if c.tel, err = newTelemetryRecorder(opts.telemetry); err != nil {
		return err
	}
	defer c.tel.Close()
	fmt.Printf("chaosbench: seed=%d kills=%d sessions=%d data=%s\n", opts.seed, opts.kills, opts.sessions, c.dataDir)
	faultKills, err := c.run()
	if err != nil {
		c.kill(syscall.SIGKILL)
		keep = true
		return err
	}
	sum := chaosSummary{
		Seed:           opts.seed,
		Kills:          opts.kills,
		FaultKills:     faultKills,
		Sessions:       opts.sessions,
		AnswersPosted:  c.answers.Load(),
		CompactionRuns: c.totals.CompactionRuns,
		SegmentsRetire: c.totals.RetiredSegments,
		TruncatedTails: c.totals.Truncated,
		Violations:     c.rep.list(),
	}
	if sum.Violations == nil {
		sum.Violations = []string{}
	}
	fmt.Printf("chaosbench: %d kills (%d in-compaction faults), %d answers, %d compaction runs, %d segments retired, %d torn tails truncated\n",
		sum.Kills, sum.FaultKills, sum.AnswersPosted, sum.CompactionRuns, sum.SegmentsRetire, sum.TruncatedTails)
	if opts.out != "" {
		data, _ := json.MarshalIndent(sum, "", "  ")
		if err := os.WriteFile(opts.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(sum.Violations) > 0 {
		for _, v := range sum.Violations {
			fmt.Fprintf(os.Stderr, "chaosbench: VIOLATION: %s\n", v)
		}
		keep = true
		return fmt.Errorf("%d invariant violations", len(sum.Violations))
	}
	fmt.Println("chaosbench: zero invariant violations")
	return nil
}

// buildSpecs lays out the session mix: mostly manual sessions on the
// transport grid (long-lived, question-rich), a few manual on figure1 and
// a few simulated (they finish fast and feed the compactor summaries).
func buildSpecs(n int, seed int64) []*chaosSession {
	specs := make([]*chaosSession, 0, n)
	for i := 0; i < n; i++ {
		spec := chaosSpec{idx: i}
		switch {
		case i%4 == 3: // simulated: finishes on its own, durable summary fodder
			graph, goal := "demo", "(tram+bus)*.cinema"
			if i%8 == 3 {
				graph = "grid"
			}
			spec.graph = graph
			spec.cfg = service.SessionConfig{Graph: graph, Mode: "simulated", Goal: goal, Seed: seed + int64(i)}
		case i%4 == 2: // manual on the tiny graph: exhausts quickly
			spec.graph = "demo"
			spec.cfg = service.SessionConfig{Graph: "demo", Mode: "manual", MaxInteractions: 20}
		default: // manual on the grid: survives many kills
			spec.graph = "grid"
			spec.cfg = service.SessionConfig{Graph: "grid", Mode: "manual", MaxInteractions: 60}
		}
		specs = append(specs, &chaosSession{spec: spec})
	}
	return specs
}

func (c *chaosRun) run() (faultKills int, err error) {
	c.specs = buildSpecs(c.opts.sessions, c.opts.seed)
	rng := rand.New(rand.NewSource(c.opts.seed))

	// Boot, create every session once, then start the drivers; they run
	// through every crash, treating transport errors as weather.
	if err := c.start(""); err != nil {
		return 0, err
	}
	if err := c.createSessions(); err != nil {
		return 0, err
	}
	stopDrivers := make(chan struct{})
	var drivers sync.WaitGroup
	for _, cs := range c.specs {
		drivers.Add(1)
		go func(cs *chaosSession) {
			defer drivers.Done()
			c.drive(cs, stopDrivers)
		}(cs)
	}
	defer func() {
		close(stopDrivers)
		drivers.Wait()
	}()

	for kill := 0; kill < c.opts.kills; kill++ {
		fault := ""
		if kill%3 == 2 {
			fault = chaosFaultPhases[(kill/3)%len(chaosFaultPhases)]
			faultKills++
		}
		crashedEarly := false
		if kill > 0 {
			switch err := c.start(fault); {
			case err == nil:
				c.sweep()
			case fault != "" && err == errCrashedDuringBoot:
				// The armed phase fired while the daemon was still booting:
				// the kill already happened, skip straight to the next boot.
				crashedEarly = true
			default:
				return faultKills, fmt.Errorf("restart %d: %w", kill, err)
			}
		}
		if fault != "" && kill == 0 {
			// The first boot was clean; count this kill as a plain SIGKILL.
			fault = ""
			faultKills--
		}
		if crashedEarly {
			// Nothing left to kill this epoch.
		} else if fault != "" {
			// The daemon was started with GPSD_FAULT_CRASH=<phase>: it will
			// execute its own hard crash once live compaction reaches the
			// phase. Poll stats while waiting so the pre-crash compaction
			// counters are folded into the totals.
			deadline := time.Now().Add(8 * time.Second)
			for time.Now().Before(deadline) {
				if c.waitExit(300 * time.Millisecond) {
					break
				}
				c.readStats()
			}
			if !c.exited() {
				// The phase never fired (no compactable work); fall back.
				c.kill(syscall.SIGKILL)
				c.waitExit(5 * time.Second)
			}
		} else {
			time.Sleep(time.Duration(100+rng.Intn(700)) * time.Millisecond)
			c.readStats()
			c.kill(syscall.SIGKILL)
			if !c.waitExit(5 * time.Second) {
				return faultKills, fmt.Errorf("kill %d: gpsd survived SIGKILL", kill)
			}
		}
		c.finishEpoch()
		// A hard death must leak the LOCK file — the next boot proves the
		// stale lock is broken, not inherited.
		if _, err := os.Stat(filepath.Join(c.dataDir, "LOCK")); err != nil {
			c.rep.violatef("kill %d: LOCK file missing after a hard kill: %v", kill, err)
		}
		if c.opts.verbose {
			fmt.Printf("chaosbench: kill %d/%d done (fault=%q)\n", kill+1, c.opts.kills, fault)
		}
	}

	// Kill budget spent: recover once more and drive everything home.
	if err := c.start(""); err != nil {
		return faultKills, fmt.Errorf("final restart: %w", err)
	}
	c.sweep()
	if err := c.awaitAllDone(3 * time.Minute); err != nil {
		return faultKills, err
	}
	c.readStats()
	finals := make([]service.SessionView, len(c.specs))
	for i, cs := range c.specs {
		v, ok := cs.view()
		if !ok || v.Status != service.StatusDone {
			c.rep.violatef("session %s (spec %d) did not finish: %+v", cs.sid, i, v)
		}
		finals[i] = v
	}

	// Clean shutdown releases the LOCK; one more boot must present every
	// finished session byte-identical.
	c.kill(syscall.SIGTERM)
	if !c.waitExit(10 * time.Second) {
		return faultKills, fmt.Errorf("gpsd ignored SIGTERM")
	}
	c.finishEpoch()
	if _, err := os.Stat(filepath.Join(c.dataDir, "LOCK")); !os.IsNotExist(err) {
		c.rep.violatef("LOCK file survived a clean SIGTERM shutdown (err=%v)", err)
	}
	if err := c.start(""); err != nil {
		return faultKills, fmt.Errorf("verification restart: %w", err)
	}
	c.sweep()
	for i, cs := range c.specs {
		v, ok := cs.view()
		if ok && !reflect.DeepEqual(v, finals[i]) {
			c.rep.violatef("session %s changed across the final clean restart:\n  was %+v\n  now %+v", cs.sid, finals[i], v)
		}
	}
	c.readStats()
	c.kill(syscall.SIGTERM)
	c.waitExit(10 * time.Second)
	c.finishEpoch()
	if _, err := os.Stat(filepath.Join(c.dataDir, "LOCK")); !os.IsNotExist(err) {
		c.rep.violatef("LOCK file survived the final SIGTERM (err=%v)", err)
	}

	if c.totals.CompactionRuns < 1 {
		c.rep.violatef("live compaction never ran (compaction_runs=0 across all epochs)")
	}
	if c.totals.RetiredSegments < 1 {
		c.rep.violatef("live compaction never retired a segment")
	}

	// Oracle: the same specs, the same policy, a never-killed server, no
	// crashes. The tortured daemon must have learned exactly the same.
	oracle, err := c.runOracle()
	if err != nil {
		return faultKills, fmt.Errorf("oracle run: %w", err)
	}
	for i, want := range oracle {
		got := finals[i]
		if got.Learned != want.Learned || got.Halt != want.Halt || got.Labels != want.Labels || got.Status != want.Status {
			c.rep.violatef("spec %d diverged from the oracle:\n  daemon learned=%q halt=%q labels=%d status=%s\n  oracle learned=%q halt=%q labels=%d status=%s",
				i, got.Learned, got.Halt, got.Labels, got.Status, want.Learned, want.Halt, want.Labels, want.Status)
		}
	}
	return faultKills, nil
}

// errCrashedDuringBoot reports that a fault-armed daemon executed its
// crash before the harness ever saw it healthy: the compaction ticker can
// fire within milliseconds of the listener coming up, so an armed phase
// with plenty of compactable garbage may kill the process inside the boot
// window. That is a successful kill, not a failed boot.
var errCrashedDuringBoot = fmt.Errorf("gpsd crashed before becoming healthy")

// start boots a gpsd subprocess on the chaos data directory. fault, when
// non-empty, arms GPSD_FAULT_CRASH so the process crashes itself inside
// that live-compaction phase. Returns once /healthz answers — recovery
// runs before the listener, so a healthy daemon has already resumed every
// session.
func (c *chaosRun) start(fault string) error {
	args := []string{
		"-addr", c.opts.addr,
		"-data-dir", c.dataDir,
		"-commit-interval", "2ms",
		"-segment-size", "4096",
		"-compact-interval", "150ms",
		"-max-sessions", "512",
		"-request-timeout", "10s",
		"-preload", strings.Join(chaosPreloads, ","),
	}
	cmd := exec.Command(c.opts.gpsdPath, args...)
	cmd.Stdout = c.logf
	cmd.Stderr = c.logf
	cmd.Env = os.Environ()
	if fault != "" {
		cmd.Env = append(cmd.Env, "GPSD_FAULT_CRASH="+fault)
	}
	dieWithHarness(cmd)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start gpsd: %w", err)
	}
	c.cmd = cmd
	c.exitCh = make(chan error, 1)
	go func(ch chan error) { ch <- cmd.Wait() }(c.exitCh)

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.client.Health(context.Background()); err == nil {
			return nil
		}
		if c.exited() {
			if fault != "" {
				return errCrashedDuringBoot
			}
			return fmt.Errorf("gpsd exited before becoming healthy (see %s)", c.logf.Name())
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("gpsd not healthy within 30s (see %s)", c.logf.Name())
}

func (c *chaosRun) kill(sig syscall.Signal) {
	if c.cmd != nil && c.cmd.Process != nil {
		_ = c.cmd.Process.Signal(sig)
	}
}

// waitExit waits up to d for the current daemon to exit.
func (c *chaosRun) waitExit(d time.Duration) bool {
	if c.exitCh == nil {
		return true
	}
	select {
	case <-c.exitCh:
		c.exitCh = nil
		return true
	case <-time.After(d):
		return false
	}
}

func (c *chaosRun) exited() bool { return c.waitExit(0) }

// readStats folds the daemon's store counters into the current epoch and
// flags any corrupt frame on the spot: crashes tear tails (truncated, by
// design) but must never corrupt a sealed frame. The counters come from
// the Prometheus exposition at /metrics, so the chaos run also proves the
// scrape surface stays accurate across every crash.
func (c *chaosRun) readStats() {
	body, err := c.client.Metrics(context.Background())
	if err != nil {
		return
	}
	c.tel.record(c.epoch, "http://"+c.opts.addr, body)
	stats, ok := parseStoreMetrics(body)
	if !ok {
		c.rep.violatef("/metrics scrape is missing the gpsd_store_* counters")
		return
	}
	if stats.CorruptFrames > 0 && c.cur.CorruptFrames == 0 {
		c.rep.violatef("store reports %d corrupt frames (via /metrics)", stats.CorruptFrames)
	}
	c.cur = stats
}

// parseStoreMetrics pulls the store counters the chaos invariants need out
// of a raw /metrics exposition body.
func parseStoreMetrics(body string) (chaosStoreStats, bool) {
	var s chaosStoreStats
	found := false
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		var dst *int64
		switch {
		case strings.HasPrefix(line, "gpsd_store_compaction_runs_total"):
			dst = &s.CompactionRuns
		case strings.HasPrefix(line, "gpsd_store_retired_segments_total"):
			dst = &s.RetiredSegments
		case strings.HasPrefix(line, "gpsd_store_corrupt_frames_total"):
			dst = &s.CorruptFrames
		case strings.HasPrefix(line, "gpsd_store_truncated_journals_total"):
			dst = &s.Truncated
		default:
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		*dst = int64(v)
		found = true
	}
	return s, found
}

// finishEpoch folds the dead process's last observed counters into the
// cumulative totals (every boot restarts the in-memory counters at zero).
func (c *chaosRun) finishEpoch() {
	c.totals.CompactionRuns += c.cur.CompactionRuns
	c.totals.RetiredSegments += c.cur.RetiredSegments
	c.totals.Truncated += c.cur.Truncated
	c.cur = chaosStoreStats{}
	c.epoch++
}

func (c *chaosRun) createSessions() error {
	return createChaosSessions(c.client, c.specs, c.rep)
}

// createChaosSessions creates every spec's session once, retrying through
// transient weather, and records the assigned ids.
func createChaosSessions(cli *client.Client, specs []*chaosSession, rep *chaosReport) error {
	for _, cs := range specs {
		var lastErr error
		for attempt := 0; attempt < 20; attempt++ {
			v, err := cli.CreateSession(context.Background(), cs.spec.cfg)
			if err == nil {
				cs.sid = v.ID
				cs.observe(v, rep)
				lastErr = nil
				break
			}
			lastErr = fmt.Errorf("create session (spec %d): %w", cs.spec.idx, err)
			time.Sleep(50 * time.Millisecond)
		}
		if lastErr != nil {
			return lastErr
		}
	}
	return nil
}

// sweep refetches every session right after a recovery: each must exist
// (or the daemon lost a session) and each view must satisfy the
// cross-crash invariants against the last one the harness saw.
func (c *chaosRun) sweep() {
	sweepChaos(c.client, c.specs, c.rep)
}

// sweepChaos refetches every session right after a recovery or promotion:
// each must exist or the daemon lost a session.
func sweepChaos(cli *client.Client, specs []*chaosSession, rep *chaosReport) {
	for _, cs := range specs {
		if cs.sid == "" {
			continue
		}
		var v service.SessionView
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			v, err = cli.Session(context.Background(), cs.sid)
			if err == nil || client.CodeOf(err) != "" {
				break // a typed code is a protocol answer, not transport weather
			}
			time.Sleep(50 * time.Millisecond)
		}
		if client.IsCode(err, service.CodeSessionNotFound) {
			rep.violatef("session %s (spec %d) vanished after recovery", cs.sid, cs.spec.idx)
			continue
		}
		if err != nil {
			continue // the controller may already be killing again
		}
		cs.observe(v, rep)
	}
}

// drive answers one session's questions until it finishes or the chaos
// run stops.
func (c *chaosRun) drive(cs *chaosSession, stop <-chan struct{}) {
	driveChaos(c.client, cs, c.rep, &c.answers, c.opts.seed, stop)
}

// driveChaos answers one session's questions until it finishes or the run
// stops. Transport errors, conflicts (an answer racing a restart's
// replay), deadline hits and not-primary/fenced rejections (mid-failover
// weather) are expected and retried; any other typed API error is a
// violation. Shared between the single-node chaos harness and the
// failover harness.
func driveChaos(cli *client.Client, cs *chaosSession, rep *chaosReport, answers *atomic.Int64, seed int64, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		v, err := cli.Session(context.Background(), cs.sid)
		if err != nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		cs.observe(v, rep)
		if v.Status == service.StatusDone || v.Status == service.StatusFailed {
			if !cs.relaxed {
				return
			}
			// Relaxed (failover) mode: "done" is not final. The terminal
			// tail was acked by the primary but may not have reached the
			// follower before the next kill, in which case the promoted
			// successor re-opens the session at its last replicated
			// question — with this driver gone, nobody would ever drive it
			// home again. Keep watching at a gentle cadence and fall back
			// into the answer loop if the status regresses to running; the
			// deterministic policy regenerates the exact same tail.
			select {
			case <-stop:
				return
			case <-time.After(250 * time.Millisecond):
			}
			continue
		}
		if v.Pending != nil {
			ans := chaosAnswer(seed, cs.spec.idx, v.Pending)
			_, err := cli.Answer(context.Background(), cs.sid, ans)
			switch code := client.CodeOf(err); {
			case err == nil:
				answers.Add(1)
			case code == service.CodeConflict || code == service.CodeDeadlineExceeded:
				// Raced a restart replay or a request deadline; re-poll.
			case code == service.CodeNotPrimary || code == service.CodeFenced:
				// Mid-failover: the request landed on a follower or a deposed
				// primary. The client re-resolves on its own; re-poll.
			case code == "":
				// Transport error — indeterminate: the crash may or may not
				// have persisted the answer. The next poll sees whichever
				// question is pending and the policy regenerates the same
				// answer either way.
			default:
				rep.violatef("session %s: answer for question %d failed: %v", cs.sid, ans.Seq, err)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitAllDone polls until every session has finished (the drivers are
// doing the answering).
func (c *chaosRun) awaitAllDone(timeout time.Duration) error {
	return awaitChaosDone(c.specs, timeout)
}

func awaitChaosDone(specs []*chaosSession, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		done := 0
		for _, cs := range specs {
			if v, ok := cs.view(); ok && (v.Status == service.StatusDone || v.Status == service.StatusFailed) {
				done++
			}
		}
		if done == len(specs) {
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("sessions still running after %s", timeout)
}

func (c *chaosRun) runOracle() ([]service.SessionView, error) {
	return runChaosOracle(c.specs, c.opts.seed)
}

// runChaosOracle replays every spec against an in-process server over a
// store in a temporary directory — same graphs, same deterministic
// answers, no crashes — and returns the final views in spec order. Shared between the
// single-node chaos harness and the failover harness: both must converge
// to exactly this state.
func runChaosOracle(specs []*chaosSession, seed int64) ([]service.SessionView, error) {
	dir, err := os.MkdirTemp("", "gpsd-chaos-oracle-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	eng, err := store.OpenEngine(dir, store.EngineOptions{})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	srv := service.NewServer(service.Options{MaxSessions: 512, Store: eng})
	for _, p := range chaosPreloads {
		name, spec, err := service.ParsePreload(p)
		if err != nil {
			return nil, err
		}
		g, err := service.BuildGraph(spec)
		if err != nil {
			return nil, err
		}
		if _, err := srv.Registry().Register(name, g); err != nil {
			return nil, err
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	oc := newChaosClient(ts.URL)

	out := make([]service.SessionView, len(specs))
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for i, cs := range specs {
		v, err := oc.CreateSession(context.Background(), cs.spec.cfg)
		if err != nil {
			return nil, fmt.Errorf("oracle create spec %d: %w", i, err)
		}
		wg.Add(1)
		go func(i int, sid string, specIdx int) {
			defer wg.Done()
			out[i], errs[i] = driveOracle(oc, sid, specIdx, seed)
		}(i, v.ID, cs.spec.idx)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// driveOracle answers one oracle session to completion with the shared
// deterministic policy.
func driveOracle(oc *client.Client, sid string, specIdx int, seed int64) (service.SessionView, error) {
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		v, err := oc.Session(context.Background(), sid)
		if err != nil {
			return v, fmt.Errorf("oracle session %s: %w", sid, err)
		}
		if v.Status == service.StatusDone || v.Status == service.StatusFailed {
			return v, nil
		}
		if v.Pending != nil {
			ans := chaosAnswer(seed, specIdx, v.Pending)
			if _, err := oc.Answer(context.Background(), sid, ans); err != nil && !client.IsCode(err, service.CodeConflict) {
				return v, fmt.Errorf("oracle session %s: answer failed: %w", sid, err)
			}
			continue
		}
		time.Sleep(2 * time.Millisecond)
	}
	return service.SessionView{}, fmt.Errorf("oracle session %s did not finish", sid)
}
