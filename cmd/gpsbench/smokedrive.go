package main

// Smoke-drive modes: the typed-client half of scripts/smoke_gpsd.sh. The
// shell script keeps what shell is good at — booting daemons, sending
// signals, checking LOCK files — and delegates every session-level check
// to these modes, which drive the v1 API through pkg/client and assert on
// typed error codes instead of grepping response prose:
//
//	gpsbench -smokedrive eval      # evaluate + graph load + error/pagination contract
//	gpsbench -smokedrive simulate  # simulated session to convergence (prints its id)
//	gpsbench -smokedrive checkdone # a finished session: view, hypothesis, SSE replay
//	gpsbench -smokedrive park      # manual session parked on its satisfied question
//	gpsbench -smokedrive snapshot  # settled view+hypothesis -> -smoke-out (for diffing)
//	gpsbench -smokedrive auth      # keyed vs unkeyed access against a keyring daemon
//
// Each mode exits non-zero with a one-line reason on any violated check,
// so the shell driver stays a thin `set -e` pipeline.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
	"repro/pkg/client"
)

// smokeOptions carries the -smoke-* flags into a drive mode.
type smokeOptions struct {
	base    string
	mode    string
	session string
	out     string
	key     string
	// expectUnauthorized flips the auth mode: the key must be rejected
	// (revoked-after-SIGHUP checks).
	expectUnauthorized bool
}

func runSmokeDrive(opts smokeOptions) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var copts []client.Option
	if opts.key != "" {
		copts = append(copts, client.WithAPIKey(opts.key))
	}
	c := client.New(opts.base, copts...)
	switch opts.mode {
	case "eval":
		return smokeEval(ctx, c)
	case "simulate":
		return smokeSimulate(ctx, c)
	case "checkdone":
		return smokeCheckDone(ctx, c, opts.session)
	case "park":
		return smokePark(ctx, c)
	case "snapshot":
		return smokeSnapshot(ctx, c, opts.session, opts.out)
	case "auth":
		return smokeAuth(ctx, opts)
	default:
		return fmt.Errorf("unknown -smokedrive mode %q", opts.mode)
	}
}

// smokeEval pins the evaluation path and the API contract around it: the
// paper's goal query on the preloaded Figure 1 graph, an inline graph
// load, typed error codes for every canonical failure, and a paginated
// graph walk that agrees with the unpaged listing.
func smokeEval(ctx context.Context, c *client.Client) error {
	res, err := c.Evaluate(ctx, "demo", client.EvaluateRequest{Query: "(tram+bus)*.cinema", Witnesses: true})
	if err != nil {
		return fmt.Errorf("evaluate: %w", err)
	}
	if res.Count != 4 || len(res.Witnesses) != 4 {
		return fmt.Errorf("evaluate: count=%d witnesses=%d, want 4/4", res.Count, len(res.Witnesses))
	}
	if _, err := c.LoadGraph(ctx, "tiny", service.LoadSpec{Format: "text", Data: "edge a tram b\nedge b cinema c\n"}); err != nil {
		return fmt.Errorf("load tiny graph: %w", err)
	}

	// The error contract: stable codes, not message prose.
	checks := []struct {
		want service.ErrorCode
		got  error
	}{
		{service.CodeSessionNotFound, second(c.Session(ctx, "no-such-session"))},
		{service.CodeGraphNotFound, second(c.Graph(ctx, "no-such-graph"))},
		{service.CodeInvalidRequest, second(c.Evaluate(ctx, "demo", client.EvaluateRequest{Query: "(((("}))},
		{service.CodeInvalidCursor, second(c.GraphsPage(ctx, 1, "not-a-cursor"))},
	}
	for _, chk := range checks {
		if !client.IsCode(chk.got, chk.want) {
			return fmt.Errorf("error contract: got %v, want code %q", chk.got, chk.want)
		}
		var ae *client.APIError
		if errorsAs(chk.got, &ae); ae == nil || ae.RequestID == "" {
			return fmt.Errorf("error contract: %v carries no request id", chk.got)
		}
	}

	// Paginated walk (limit 1) must visit exactly the unpaged listing.
	all, err := c.Graphs(ctx)
	if err != nil {
		return fmt.Errorf("list graphs: %w", err)
	}
	var walked []string
	cursor := ""
	for {
		p, err := c.GraphsPage(ctx, 1, cursor)
		if err != nil {
			return fmt.Errorf("paged graphs: %w", err)
		}
		for _, g := range p.Graphs {
			walked = append(walked, g.Name)
		}
		if p.NextCursor == "" {
			break
		}
		cursor = p.NextCursor
	}
	if len(walked) != len(all) {
		return fmt.Errorf("paged graph walk saw %v, unpaged saw %d graphs", walked, len(all))
	}
	fmt.Println("smokedrive: eval ok")
	return nil
}

// smokeSimulate drives one simulated session to convergence and prints
// its id (the shell driver re-checks it across restarts).
func smokeSimulate(ctx context.Context, c *client.Client) error {
	v, err := c.CreateSession(ctx, service.SessionConfig{Graph: "demo", Mode: "simulated", Goal: "(tram+bus)*.cinema"})
	if err != nil {
		return fmt.Errorf("create simulated session: %w", err)
	}
	for v.Status != service.StatusDone {
		if v.Status == service.StatusFailed {
			return fmt.Errorf("simulated session failed: %s", v.Error)
		}
		if err := sleepSmoke(ctx); err != nil {
			return err
		}
		if v, err = c.Session(ctx, v.ID); err != nil {
			return fmt.Errorf("poll session: %w", err)
		}
	}
	if v.Halt != "user-satisfied" {
		return fmt.Errorf("simulated session halt = %q, want user-satisfied", v.Halt)
	}
	fmt.Println(v.ID)
	return nil
}

// smokeCheckDone re-checks a finished session after a restart: status and
// halt survived, the hypothesis still selects the four neighbourhoods,
// and the SSE stream replays the whole journal down to the terminal done.
func smokeCheckDone(ctx context.Context, c *client.Client, sid string) error {
	if sid == "" {
		return fmt.Errorf("checkdone needs -smoke-session")
	}
	v, err := c.Session(ctx, sid)
	if err != nil {
		return fmt.Errorf("get session: %w", err)
	}
	if v.Status != service.StatusDone || v.Halt != "user-satisfied" {
		return fmt.Errorf("session %s = status %q halt %q, want done/user-satisfied", sid, v.Status, v.Halt)
	}
	hyp, err := c.Hypothesis(ctx, sid, "")
	if err != nil {
		return fmt.Errorf("hypothesis: %w", err)
	}
	if hyp.Learned == "" || hyp.Count != 4 {
		return fmt.Errorf("hypothesis = %+v, want a learned query selecting 4 nodes", hyp)
	}
	stream, err := c.Events(ctx, sid, 0)
	if err != nil {
		return fmt.Errorf("open events: %w", err)
	}
	defer stream.Close()
	first, last := "", ""
	for {
		ev, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("read events: %w", err)
		}
		if first == "" {
			first = ev.Type
		}
		last = ev.Type
	}
	if first != "create" || last != "done" {
		return fmt.Errorf("SSE replay ran %q..%q, want create..done", first, last)
	}
	fmt.Println("smokedrive: checkdone ok")
	return nil
}

// smokePark creates a manual session and walks it to its satisfied
// question: one positive label in, then parked. Prints the session id.
func smokePark(ctx context.Context, c *client.Client) error {
	v, err := c.CreateSession(ctx, service.SessionConfig{Graph: "demo", Mode: "manual"})
	if err != nil {
		return fmt.Errorf("create manual session: %w", err)
	}
	if err := waitQuestion(ctx, c, v.ID, "label"); err != nil {
		return err
	}
	v, err = c.Session(ctx, v.ID)
	if err != nil {
		return err
	}
	if _, err := c.Answer(ctx, v.ID, service.Answer{Seq: v.Pending.Seq, Decision: "positive"}); err != nil {
		return fmt.Errorf("answer label question: %w", err)
	}
	if err := waitQuestion(ctx, c, v.ID, "satisfied"); err != nil {
		return err
	}
	fmt.Println(v.ID)
	return nil
}

// smokeSnapshot waits for the session to settle on its satisfied question
// and writes {view, hypothesis} to out — the shell driver byte-diffs the
// snapshots taken before and after each kill.
func smokeSnapshot(ctx context.Context, c *client.Client, sid, out string) error {
	if sid == "" || out == "" {
		return fmt.Errorf("snapshot needs -smoke-session and -smoke-out")
	}
	if err := waitQuestion(ctx, c, sid, "satisfied"); err != nil {
		return err
	}
	v, err := c.Session(ctx, sid)
	if err != nil {
		return err
	}
	hyp, err := c.Hypothesis(ctx, sid, "")
	if err != nil {
		return fmt.Errorf("hypothesis: %w", err)
	}
	data, err := json.MarshalIndent(map[string]any{"view": v, "hypothesis": hyp}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("smokedrive: snapshot of %s -> %s\n", sid, out)
	return nil
}

// smokeAuth checks the keyring contract from outside: an unkeyed client
// is rejected with the unauthorized code (while /healthz stays exempt),
// and the provided key either works — creating a session that lands on
// its tenant — or, with -smoke-expect-unauthorized, is rejected too.
func smokeAuth(ctx context.Context, opts smokeOptions) error {
	bare := client.New(opts.base)
	if err := bare.Health(ctx); err != nil {
		return fmt.Errorf("healthz must stay auth-exempt: %w", err)
	}
	if _, err := bare.Graphs(ctx); !client.IsCode(err, service.CodeUnauthorized) {
		return fmt.Errorf("unkeyed request: got %v, want code unauthorized", err)
	}
	if opts.key == "" {
		return fmt.Errorf("auth mode needs -smoke-key")
	}
	keyed := client.New(opts.base, client.WithAPIKey(opts.key))
	v, err := keyed.CreateSession(ctx, service.SessionConfig{Graph: "demo", Mode: "simulated", Goal: "(tram+bus)*.cinema"})
	if opts.expectUnauthorized {
		if !client.IsCode(err, service.CodeUnauthorized) {
			return fmt.Errorf("revoked key: got %v, want code unauthorized", err)
		}
		fmt.Println("smokedrive: auth ok (key rejected as expected)")
		return nil
	}
	if err != nil {
		return fmt.Errorf("keyed create session: %w", err)
	}
	if v.Tenant == "" {
		return fmt.Errorf("keyed session carries no tenant: %+v", v)
	}
	body, err := keyed.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("scrape metrics: %w", err)
	}
	series := fmt.Sprintf("gpsd_tenant_admissions_total{tenant=%q}", v.Tenant)
	admitted := 0.0
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			admitted, _ = strconv.ParseFloat(rest, 64)
		}
	}
	if admitted < 1 {
		return fmt.Errorf("%s = %v, want >= 1", series, admitted)
	}
	fmt.Printf("smokedrive: auth ok (tenant %s)\n", v.Tenant)
	return nil
}

// waitQuestion polls until the session's pending question has the wanted
// kind.
func waitQuestion(ctx context.Context, c *client.Client, sid, kind string) error {
	for {
		v, err := c.Session(ctx, sid)
		if err != nil {
			return fmt.Errorf("poll session %s: %w", sid, err)
		}
		if v.Pending != nil && v.Pending.Kind == kind {
			return nil
		}
		if v.Status == service.StatusDone || v.Status == service.StatusFailed {
			return fmt.Errorf("session %s finished (%s) while waiting for a %q question", sid, v.Status, kind)
		}
		if err := sleepSmoke(ctx); err != nil {
			return fmt.Errorf("waiting for %q question on %s: %w", kind, sid, err)
		}
	}
}

func sleepSmoke(ctx context.Context) error {
	t := time.NewTimer(50 * time.Millisecond)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// second drops a call's value, keeping the error — lets the error-contract
// table stay expression-shaped.
func second[T any](_ T, err error) error { return err }

// errorsAs is errors.As without importing errors twice under its own name
// in this file's call sites.
func errorsAs(err error, target **client.APIError) {
	for err != nil {
		if ae, ok := err.(*client.APIError); ok {
			*target = ae
			return
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return
		}
		err = u.Unwrap()
	}
}
