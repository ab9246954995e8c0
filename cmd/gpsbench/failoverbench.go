package main

// Failover harness for gpsd: prove that a warm follower plus the typed
// client's endpoint failover survive the primary being SIGKILLed over and
// over — including kills parked inside live-compaction phases and inside
// the group-commit window — without losing a session.
//
// The harness runs a *pair* of real gpsd subprocesses: a primary and a
// follower streaming its WAL (-replicate-from). A shared failover client
// (client.WithEndpoints over both) drives the same deterministic session
// workload as the chaos harness. The controller then cycles failover
// epochs: wait until the follower is caught up, murder the primary,
// promote the follower (explicit POST /v1/admin/promote, with
// -auto-promote-after as the safety net), and verify:
//
//   - the promotion's fencing epoch strictly increases every cycle;
//   - every created session still exists on the new primary, none failed;
//   - a resurrected old primary, booted on its untouched data directory,
//     refuses writes with 503/"fenced" the moment it sees the successor
//     epoch, reports fenced:true, and stays fenced across its own restart
//     (the FENCED marker is durable);
//   - the follower's lag metrics (gpsd_repl_role, gpsd_repl_lag_frames)
//     are live before promotion and flip to the primary families
//     (gpsd_repl_role 1, gpsd_repl_epoch) after;
//   - the wiped old primary re-seeds as a follower of the new primary and
//     catches up, so roles keep swapping for the whole kill budget.
//
// In-compaction kills are arranged by arming GPSD_FAULT_CRASH on a
// *follower* boot: the fault hook only attaches when promotion opens the
// engine, so the daemon executes its own crash during its first live
// compaction as the new primary — a kill inside a compaction phase while
// a real follower replicates from it.
//
// Replication is asynchronous, so a kill may lose an acked tail; the
// sessions run in relaxed mode (no cross-crash monotonicity checks) and
// correctness is settled the same way the chaos harness settles it: after
// the kill budget every session is driven to completion and compared,
// field by field, against the never-killed in-process oracle replaying
// the same deterministic answer policy. Zero lost, zero diverged, or the
// run fails.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/pkg/client"
)

type failoverOptions struct {
	gpsdPath  string
	addrA     string
	addrB     string
	kills     int
	sessions  int
	seed      int64
	out       string
	telemetry string
	verbose   bool
}

// failoverSummary is the JSON written by -failover-out and printed at the
// end of a run.
type failoverSummary struct {
	Seed          int64    `json:"seed"`
	Kills         int      `json:"kills"`
	FaultKills    int      `json:"fault_kills"`
	Promotions    int      `json:"promotions"`
	FenceChecks   int      `json:"fence_checks"`
	Sessions      int      `json:"sessions"`
	AnswersPosted int64    `json:"answers_posted"`
	FinalEpoch    uint64   `json:"final_epoch"`
	Violations    []string `json:"violations"`
}

// foDaemon is one of the two gpsd subprocesses. The same daemon slot is
// rebooted in different roles as the run swaps primaries.
type foDaemon struct {
	name     string // "A" or "B", stable across role changes
	addr     string
	dataDir  string
	gpsdPath string
	logf     *os.File
	cli      *client.Client // single-endpoint, no failover: talks to this daemon only

	cmd    *exec.Cmd
	exitCh chan error
	// fault is the GPSD_FAULT_CRASH phase the current process was booted
	// with. On a follower it arms at promotion time (the fault hook rides
	// the engine the promotion opens), so the daemon self-crashes inside
	// that live-compaction phase during its reign as the new primary.
	fault string
}

func (d *foDaemon) url() string { return "http://" + d.addr }

// start boots the daemon with the shared chaos-grade store settings plus
// the role-specific extra flags, and waits for /healthz (both roles serve
// it). fault arms GPSD_FAULT_CRASH for the new process; an armed boot
// compacts on a slower cadence, so after its promotion the re-seeded
// standby has time to catch up before the fault executes the crash — the
// kill then lands inside a compaction pass *with a caught-up follower
// watching*, which is the scenario worth proving.
func (d *foDaemon) start(extra []string, fault string) error {
	compactIvl := "150ms"
	if fault != "" {
		compactIvl = "2s"
	}
	args := append([]string{
		"-addr", d.addr,
		"-data-dir", d.dataDir,
		"-commit-interval", "2ms",
		"-segment-size", "4096",
		"-compact-interval", compactIvl,
		"-max-sessions", "512",
		"-request-timeout", "10s",
	}, extra...)
	cmd := exec.Command(d.gpsdPath, args...)
	cmd.Stdout = d.logf
	cmd.Stderr = d.logf
	cmd.Env = os.Environ()
	if fault != "" {
		cmd.Env = append(cmd.Env, "GPSD_FAULT_CRASH="+fault)
	}
	dieWithHarness(cmd)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start gpsd %s: %w", d.name, err)
	}
	d.cmd = cmd
	d.fault = fault
	d.exitCh = make(chan error, 1)
	go func(ch chan error) { ch <- cmd.Wait() }(d.exitCh)

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if err := d.cli.Health(context.Background()); err == nil {
			return nil
		}
		if d.exited() {
			return fmt.Errorf("gpsd %s exited before becoming healthy (see %s)", d.name, d.logf.Name())
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("gpsd %s not healthy within 30s (see %s)", d.name, d.logf.Name())
}

func (d *foDaemon) startPrimary() error {
	return d.start([]string{"-preload", strings.Join(chaosPreloads, ",")}, "")
}

func (d *foDaemon) startFollower(primaryURL, fault string) error {
	return d.start([]string{"-replicate-from", primaryURL, "-auto-promote-after", "2s"}, fault)
}

func (d *foDaemon) kill(sig syscall.Signal) {
	if d.cmd != nil && d.cmd.Process != nil {
		_ = d.cmd.Process.Signal(sig)
	}
}

func (d *foDaemon) waitExit(t time.Duration) bool {
	if d.exitCh == nil {
		return true
	}
	select {
	case <-d.exitCh:
		d.exitCh = nil
		return true
	case <-time.After(t):
		return false
	}
}

func (d *foDaemon) exited() bool { return d.waitExit(0) }

// failoverRun owns the daemon pair, the drivers and the counters.
type failoverRun struct {
	opts  failoverOptions
	rep   *chaosReport
	specs []*chaosSession
	cli   *client.Client // failover client over both endpoints, shared by drivers
	tel   *telemetryRecorder

	answers     atomic.Int64
	epoch       int
	promotions  int
	fenceChecks int
	faultKills  int
	lastEpoch   uint64 // highest fencing epoch confirmed so far
}

func runFailoverBench(opts failoverOptions) error {
	if opts.gpsdPath == "" {
		return fmt.Errorf("-failover needs -chaos-gpsd <path-to-gpsd-binary>")
	}
	if opts.sessions < 2 {
		opts.sessions = 2
	}
	dir, err := os.MkdirTemp("", "gpsd-failover-*")
	if err != nil {
		return err
	}
	keep := false
	defer func() {
		if keep {
			fmt.Fprintf(os.Stderr, "failover: kept %s for inspection\n", dir)
			return
		}
		os.RemoveAll(dir)
	}()

	newDaemon := func(name, addr string) (*foDaemon, error) {
		logf, err := os.Create(filepath.Join(dir, "gpsd-"+name+".log"))
		if err != nil {
			return nil, err
		}
		return &foDaemon{
			name:     name,
			addr:     addr,
			dataDir:  filepath.Join(dir, "data-"+name),
			gpsdPath: opts.gpsdPath,
			logf:     logf,
			cli:      client.New("http://"+addr, client.WithTimeout(2*time.Second)),
		}, nil
	}
	a, err := newDaemon("A", opts.addrA)
	if err != nil {
		return err
	}
	defer a.logf.Close()
	b, err := newDaemon("B", opts.addrB)
	if err != nil {
		return err
	}
	defer b.logf.Close()

	r := &failoverRun{opts: opts, rep: &chaosReport{}}
	if r.tel, err = newTelemetryRecorder(opts.telemetry); err != nil {
		return err
	}
	defer r.tel.Close()
	fmt.Printf("failover: seed=%d kills=%d sessions=%d data=%s\n", opts.seed, opts.kills, opts.sessions, dir)

	err = r.run(a, b)
	a.kill(syscall.SIGKILL)
	b.kill(syscall.SIGKILL)
	a.waitExit(5 * time.Second)
	b.waitExit(5 * time.Second)
	if err != nil {
		keep = true
		// The run died before the summary: any violations recorded so far
		// are the best post-mortem there is — do not swallow them.
		for i, v := range r.rep.list() {
			if i == 20 {
				fmt.Fprintf(os.Stderr, "failover: ... %d more violations\n", len(r.rep.list())-i)
				break
			}
			fmt.Fprintf(os.Stderr, "failover: VIOLATION: %s\n", v)
		}
		return err
	}

	sum := failoverSummary{
		Seed:          opts.seed,
		Kills:         opts.kills,
		FaultKills:    r.faultKills,
		Promotions:    r.promotions,
		FenceChecks:   r.fenceChecks,
		Sessions:      opts.sessions,
		AnswersPosted: r.answers.Load(),
		FinalEpoch:    r.lastEpoch,
		Violations:    r.rep.list(),
	}
	if sum.Violations == nil {
		sum.Violations = []string{}
	}
	fmt.Printf("failover: %d kills (%d in-compaction faults), %d promotions, %d fence checks, %d answers, final epoch %d\n",
		sum.Kills, sum.FaultKills, sum.Promotions, sum.FenceChecks, sum.AnswersPosted, sum.FinalEpoch)
	if opts.out != "" {
		data, _ := json.MarshalIndent(sum, "", "  ")
		if err := os.WriteFile(opts.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(sum.Violations) > 0 {
		for _, v := range sum.Violations {
			fmt.Fprintf(os.Stderr, "failover: VIOLATION: %s\n", v)
		}
		keep = true
		return fmt.Errorf("%d invariant violations", len(sum.Violations))
	}
	fmt.Println("failover: zero invariant violations")
	return nil
}

// armFault decides whether the n-th follower boot carries an armed crash
// phase, cycling through the compaction phases. The fault only fires
// after that follower's *promotion* (the hook rides the engine the
// promotion opens), so boot n's crash serves kill n+1 — boots whose crash
// would land outside the kill budget stay unarmed, and so does the very
// first boot: its crash would hit a primary whose deposed peer is still
// being re-seeded, leaving nothing serving.
func armFault(n, kills int) string {
	if n%2 != 1 || n+1 >= kills {
		return ""
	}
	return chaosFaultPhases[(n/2)%len(chaosFaultPhases)]
}

func (r *failoverRun) run(a, b *foDaemon) error {
	r.specs = buildSpecs(r.opts.sessions, r.opts.seed)
	for _, cs := range r.specs {
		// Async replication may lose an acked tail at a kill; the final
		// oracle comparison is the correctness bar. See chaosSession.relaxed.
		cs.relaxed = true
	}
	rng := rand.New(rand.NewSource(r.opts.seed))

	if err := a.startPrimary(); err != nil {
		return err
	}
	followerStarts := 0
	if err := b.startFollower(a.url(), armFault(followerStarts, r.opts.kills)); err != nil {
		return err
	}
	followerStarts++

	r.cli = client.New(a.url(),
		client.WithEndpoints(a.url(), b.url()),
		client.WithTimeout(5*time.Second))
	if err := createChaosSessions(r.cli, r.specs, r.rep); err != nil {
		return err
	}
	stopDrivers := make(chan struct{})
	var drivers sync.WaitGroup
	for _, cs := range r.specs {
		drivers.Add(1)
		go func(cs *chaosSession) {
			defer drivers.Done()
			driveChaos(r.cli, cs, r.rep, &r.answers, r.opts.seed, stopDrivers)
		}(cs)
	}
	defer func() {
		close(stopDrivers)
		drivers.Wait()
	}()

	// The follower's lag metrics must be visible before any promotion.
	r.checkFollowerMetrics(b)

	primary, standby := a, b
	for kill := 0; kill < r.opts.kills; kill++ {
		// 1. Wait for the standby to be ready to take over: caught up, or
		// the primary already dead (an armed fault fired on its own
		// schedule), or the standby already auto-promoted.
		if err := r.waitStandbyReady(standby, primary, 60*time.Second); err != nil {
			return fmt.Errorf("kill %d: %w", kill, err)
		}
		r.scrape(primary)
		r.scrape(standby)

		// 2. Ensure the primary is dead. An armed daemon executes its own
		// crash inside the armed compaction phase; give it time, then fall
		// back to a plain SIGKILL mid-traffic (which, at a 2ms group-commit
		// window under 24 drivers, lands inside the commit path routinely).
		switch {
		case primary.exited():
			if primary.fault != "" {
				r.faultKills++
			}
		case primary.fault != "":
			deadline := time.Now().Add(8 * time.Second)
			fired := false
			for time.Now().Before(deadline) {
				if primary.waitExit(300 * time.Millisecond) {
					fired = true
					break
				}
			}
			if fired {
				r.faultKills++
			} else {
				primary.kill(syscall.SIGKILL)
			}
		default:
			time.Sleep(time.Duration(100+rng.Intn(400)) * time.Millisecond)
			primary.kill(syscall.SIGKILL)
		}
		if !primary.waitExit(5 * time.Second) {
			return fmt.Errorf("kill %d: gpsd %s survived SIGKILL", kill, primary.name)
		}

		// 3. Promote the standby and verify the fencing epoch advanced.
		st, err := r.promote(standby)
		if err != nil {
			return fmt.Errorf("kill %d: %w", kill, err)
		}
		if st.Epoch <= r.lastEpoch {
			r.rep.violatef("kill %d: promotion epoch did not advance: %d -> %d", kill, r.lastEpoch, st.Epoch)
		}
		r.lastEpoch = st.Epoch
		r.promotions++
		// Pin the new epoch into the shared failover client before the old
		// primary can come back: every request it then receives carries the
		// successor epoch and fences it on contact.
		if _, err := r.cli.ReplicationStatus(context.Background()); err != nil {
			r.rep.violatef("kill %d: failover client could not reach the new primary: %v", kill, err)
		}
		if kill == 0 {
			r.checkPromotedMetrics(standby)
		}
		// Sweep through the new primary's own client (fast-fail, no
		// failover retries): every session must have survived the takeover.
		sweepChaos(standby.cli, r.specs, r.rep)

		// 4. Periodically resurrect the deposed primary on its untouched
		// data directory and prove fencing keeps it harmless. The cadence
		// avoids epochs whose fresh primary carries an armed fault — the
		// fence check takes seconds, and the fault must not fire while the
		// deposed daemon still owns its un-wiped directory.
		if kill%4 == 2 {
			r.fenceCheck(primary, r.lastEpoch)
			r.fenceChecks++
		}

		// 5. Re-seed the old primary as a follower of the new one. Its
		// directory is wiped first: generation counters are per-directory,
		// and a divergent history must never resume by coincidence. Wait
		// for the initial sync before the next epoch, so an armed fault on
		// the current primary always crashes with a synced standby ready.
		if err := os.RemoveAll(primary.dataDir); err != nil {
			return fmt.Errorf("kill %d: wipe %s: %w", kill, primary.dataDir, err)
		}
		if err := primary.startFollower(standby.url(), armFault(followerStarts, r.opts.kills)); err != nil {
			return fmt.Errorf("kill %d: re-seed follower: %w", kill, err)
		}
		followerStarts++
		if err := r.waitStandbyReady(primary, standby, 60*time.Second); err != nil {
			return fmt.Errorf("kill %d: re-seeded follower: %w", kill, err)
		}

		primary, standby = standby, primary
		r.epoch++
		if r.opts.verbose {
			fmt.Printf("failover: kill %d/%d done (primary now %s, epoch %d)\n", kill+1, r.opts.kills, primary.name, r.lastEpoch)
		}
	}

	// Kill budget spent: drive every session home through the failover
	// client and compare against the oracle.
	sweepChaos(r.cli, r.specs, r.rep)
	if err := awaitChaosDone(r.specs, 3*time.Minute); err != nil {
		return err
	}
	r.scrape(primary)
	r.scrape(standby)
	finals := make([]service.SessionView, len(r.specs))
	for i, cs := range r.specs {
		v, ok := cs.view()
		if !ok || v.Status != service.StatusDone {
			r.rep.violatef("session %s (spec %d) did not finish: %+v", cs.sid, i, v)
		}
		finals[i] = v
	}
	oracle, err := runChaosOracle(r.specs, r.opts.seed)
	if err != nil {
		return fmt.Errorf("oracle run: %w", err)
	}
	for i, want := range oracle {
		got := finals[i]
		if got.Learned != want.Learned || got.Halt != want.Halt || got.Labels != want.Labels || got.Status != want.Status {
			r.rep.violatef("spec %d diverged from the oracle across %d failovers:\n  daemon learned=%q halt=%q labels=%d status=%s\n  oracle learned=%q halt=%q labels=%d status=%s",
				i, r.promotions, got.Learned, got.Halt, got.Labels, got.Status, want.Learned, want.Halt, want.Labels, want.Status)
		}
	}
	return nil
}

// waitStandbyReady blocks until the standby is caught up (connected, has
// applied frames, and is at — or within a heartbeat of — the primary's
// tail), or the situation has already moved on: the primary died by
// itself, or the standby auto-promoted. A dead primary only counts once
// the standby holds *some* replicated state — promoting a follower that
// never completed its initial sync would manufacture data loss the
// protocol did not cause.
func (r *failoverRun) waitStandbyReady(standby, primary *foDaemon, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, err := standby.cli.ReplicationStatus(context.Background())
		if err == nil {
			if st.Role == "primary" {
				return nil
			}
			// "Has really synced" cannot rely on frame counters alone: a
			// promoted primary restarts its cumulative counters at zero, so
			// an all-finished workload never raises them again. Applied
			// position and graph sync witness the transfer instead.
			if f := st.Follower; f != nil && (f.AppliedFrames > 0 || f.AppliedSeg > 0 || f.Graphs > 0) {
				if primary.exited() {
					return nil
				}
				if f.Connected && (f.LagFrames == 0 || f.LagSeconds < 1.0) {
					return nil
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	detail := func(d *foDaemon) string {
		st, err := d.cli.ReplicationStatus(context.Background())
		if err != nil {
			return fmt.Sprintf("%s: %v", d.name, err)
		}
		b, _ := json.Marshal(st)
		return fmt.Sprintf("%s: %s", d.name, b)
	}
	return fmt.Errorf("standby %s not caught up within %s\n  %s\n  %s",
		standby.name, timeout, detail(standby), detail(primary))
}

// promote drives the standby to the primary role: an explicit POST
// /v1/admin/promote, retried because it may race the follower's own
// auto-promotion (the handler is idempotent in both directions).
func (r *failoverRun) promote(standby *foDaemon) (service.ReplicationStatus, error) {
	deadline := time.Now().Add(20 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		st, err := standby.cli.Promote(context.Background())
		if err == nil && st.Role == "primary" {
			return st, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("role %q after promote", st.Role)
		}
		time.Sleep(100 * time.Millisecond)
	}
	return service.ReplicationStatus{}, fmt.Errorf("promote %s: %v", standby.name, lastErr)
}

// fenceCheck resurrects the deposed primary on its untouched data
// directory and proves the fencing protocol keeps it harmless: the first
// request carrying the successor epoch latches the fence, writes are
// refused with 503/"fenced", the status reports fenced, and the FENCED
// marker survives the daemon's own restart.
func (r *failoverRun) fenceCheck(old *foDaemon, successorEpoch uint64) {
	if err := old.start(nil, ""); err != nil {
		r.rep.violatef("fence check: resurrect %s: %v", old.name, err)
		return
	}
	if code, apiCode := r.pokeFenced(old, successorEpoch); code != http.StatusServiceUnavailable || apiCode != string(service.CodeFenced) {
		r.rep.violatef("fence check: deposed %s accepted a write carrying successor epoch %d (status=%d code=%q, want 503 %q)",
			old.name, successorEpoch, code, apiCode, service.CodeFenced)
	}
	if st, err := old.cli.ReplicationStatus(context.Background()); err != nil {
		r.rep.violatef("fence check: status on fenced %s: %v", old.name, err)
	} else if !st.Fenced {
		r.rep.violatef("fence check: %s does not report fenced after refusing a write", old.name)
	}
	// The fence must be durable: restart the deposed daemon and expect it
	// to refuse writes even without any epoch header.
	old.kill(syscall.SIGTERM)
	if !old.waitExit(10 * time.Second) {
		old.kill(syscall.SIGKILL)
		old.waitExit(5 * time.Second)
	}
	if err := old.start(nil, ""); err != nil {
		r.rep.violatef("fence check: restart fenced %s: %v", old.name, err)
		return
	}
	if code, apiCode := r.pokeFenced(old, 0); code != http.StatusServiceUnavailable || apiCode != string(service.CodeFenced) {
		r.rep.violatef("fence check: %s forgot its fence across a restart (status=%d code=%q, want 503 %q)",
			old.name, code, apiCode, service.CodeFenced)
	}
	if st, err := old.cli.ReplicationStatus(context.Background()); err == nil && !st.Fenced {
		r.rep.violatef("fence check: %s lost fenced status across a restart", old.name)
	}
	old.kill(syscall.SIGTERM)
	if !old.waitExit(10 * time.Second) {
		old.kill(syscall.SIGKILL)
		old.waitExit(5 * time.Second)
	}
}

// pokeFenced sends one mutating request (an admin compact) to the deposed
// daemon, optionally carrying the successor epoch, and returns the HTTP
// status and typed API error code. Raw HTTP on purpose: the typed client
// re-resolves away from fenced daemons, which is exactly the behavior
// this probe must bypass.
func (r *failoverRun) pokeFenced(old *foDaemon, epoch uint64) (int, string) {
	req, err := http.NewRequest(http.MethodPost, old.url()+"/v1/admin/compact", nil)
	if err != nil {
		return 0, ""
	}
	if epoch > 0 {
		req.Header.Set(service.EpochHeader, fmt.Sprint(epoch))
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, ""
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	_ = json.Unmarshal(body, &e)
	return resp.StatusCode, e.Error.Code
}

// scrape records one /metrics body per daemon into the telemetry
// artifact. Best effort: the daemon may be mid-murder.
func (r *failoverRun) scrape(d *foDaemon) string {
	body, err := d.cli.Metrics(context.Background())
	if err != nil {
		return ""
	}
	r.tel.record(r.epoch, d.url(), body)
	return body
}

// checkFollowerMetrics asserts the follower-side replication families are
// live on a (not yet promoted) follower: role 0 and a lag gauge.
func (r *failoverRun) checkFollowerMetrics(d *foDaemon) {
	body := r.scrape(d)
	if body == "" {
		r.rep.violatef("follower %s /metrics unreachable before promotion", d.name)
		return
	}
	if !metricPresent(body, "gpsd_repl_role", "0") {
		r.rep.violatef("follower %s /metrics missing gpsd_repl_role 0 before promotion", d.name)
	}
	if !metricPresent(body, "gpsd_repl_lag_frames", "") {
		r.rep.violatef("follower %s /metrics missing gpsd_repl_lag_frames before promotion", d.name)
	}
}

// checkPromotedMetrics asserts the role gauge flipped and the primary
// families appeared after a promotion, on the same registry.
func (r *failoverRun) checkPromotedMetrics(d *foDaemon) {
	body := r.scrape(d)
	if body == "" {
		r.rep.violatef("promoted %s /metrics unreachable after promotion", d.name)
		return
	}
	if !metricPresent(body, "gpsd_repl_role", "1") {
		r.rep.violatef("promoted %s /metrics missing gpsd_repl_role 1 after promotion", d.name)
	}
	if !metricPresent(body, "gpsd_repl_epoch", "") {
		r.rep.violatef("promoted %s /metrics missing gpsd_repl_epoch after promotion", d.name)
	}
}

// metricPresent reports whether the exposition body has a sample for the
// named family, optionally requiring an exact value.
func metricPresent(body, name, value string) bool {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue // a longer family sharing the prefix
		}
		if value == "" {
			return true
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 && strings.TrimSpace(line[i+1:]) == value {
			return true
		}
	}
	return false
}
