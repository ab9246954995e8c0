package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/service"
	"repro/pkg/client"
)

var phaseNames = [3]string{"warm-up", "measure", "finish"}

// counts is one phase's line of requests sent / succeeded / failed. Every
// create, label, evaluate and delete is one request.
type counts struct{ Sent, OK, Failed int }

// evalSample is one recorded eval-cold response, verified after the window
// so that the check takes no CPU from it.
type evalSample struct {
	query string
	count int
	nodes []graph.NodeID
}

// recorder is one driver's private log; merge folds the drivers together.
type recorder struct {
	warmEnd, end time.Time

	ops        []float64 // µs: client wall-clock of each operation completed inside the window
	compute    []float64 // µs: the evaluate response's own duration_us, same operations
	firstQ     []float64 // ms: POST /v1/sessions sent -> first question event
	counts     [3]counts
	errs       []string // operations that failed
	violations []string // outputs that were wrong
	turns      int      // labels answered, in any phase
	sessions   int      // sessions seen through to their terminal event
	cold       []evalSample
	kept       []service.SessionView
	transcript []client.Event // every event of one finished session, for the store replay
}

// op books one operation and reports whether it is a window sample: it
// succeeded, started after the warm-up and completed before the end.
func (r *recorder) op(start, done time.Time, err error) bool {
	phase := 0
	if !start.Before(r.end) {
		phase = 2
	} else if !start.Before(r.warmEnd) {
		phase = 1
	}
	c := &r.counts[phase]
	c.Sent++
	if err != nil {
		c.Failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
		return false
	}
	c.OK++
	return phase == 1 && !done.After(r.end)
}

func (r *recorder) violate(format string, args ...any) {
	if len(r.violations) < 5 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

func merge(rs []*recorder) *recorder {
	out := &recorder{warmEnd: rs[0].warmEnd, end: rs[0].end}
	for _, r := range rs {
		out.ops = append(out.ops, r.ops...)
		out.compute = append(out.compute, r.compute...)
		out.firstQ = append(out.firstQ, r.firstQ...)
		for p := range out.counts {
			out.counts[p].Sent += r.counts[p].Sent
			out.counts[p].OK += r.counts[p].OK
			out.counts[p].Failed += r.counts[p].Failed
		}
		out.errs = append(out.errs, r.errs...)
		out.violations = append(out.violations, r.violations...)
		out.turns += r.turns
		out.sessions += r.sessions
		out.cold = append(out.cold, r.cold...)
		out.kept = append(out.kept, r.kept...)
		if out.transcript == nil {
			out.transcript = r.transcript
		}
	}
	return out
}

// drive runs one closed-loop driver goroutine per CPU — each sends its next
// request only when the previous one has been answered — through a warm-up
// and then the measured window, and returns their merged logs.
func drive(drivers int, warm, window time.Duration, body func(d int, r *recorder)) *recorder {
	start := time.Now()
	rs := make([]*recorder, drivers)
	var wg sync.WaitGroup
	for d := range rs {
		rs[d] = &recorder{warmEnd: start.Add(warm), end: start.Add(warm + window)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(d, rs[d])
		}()
	}
	wg.Wait()
	return merge(rs)
}

// evalLoop is one evaluate driver. Driver d of n takes requests d, d+n, ...
// of the workload's stream: a never-repeating walk of the cold query space,
// or the seven warm queries round-robin, every response checked against
// warmWant: what a plain rpq.New evaluation selects on the local graph.
func evalLoop(ctx context.Context, c *client.Client, w workload, cq coldQueries, warmWant [][]graph.NodeID, seed int64, d, n int, r *recorder) {
	rng := rand.New(rand.NewSource(seed<<8 + int64(d)))
	seen := 0
	for i := d; ctx.Err() == nil; i += n {
		var req client.EvaluateRequest
		if w.warm {
			req.Query = warmQueries[i%len(warmQueries)]
		} else {
			req.Query, req.Limit = cq.at(i), coldLimit
		}
		start := time.Now()
		if !start.Before(r.end) {
			return
		}
		res, err := c.Evaluate(ctx, graphName, req)
		done := time.Now()
		sample := r.op(start, done, err)
		if sample {
			r.ops = append(r.ops, float64(done.Sub(start))/1e3)
			r.compute = append(r.compute, float64(res.DurationUs))
		}
		switch {
		case err != nil:
		case w.warm:
			if want := warmWant[i%len(warmQueries)]; res.Count != len(want) || !slices.Equal(res.Nodes, want) {
				r.violate("%s: daemon selected %d nodes, local evaluation %d (or the lists differ)", req.Query, res.Count, len(want))
			}
		case sample:
			// Reservoir of 100 per driver.
			seen++
			s := evalSample{query: req.Query, count: res.Count, nodes: res.Nodes}
			if len(r.cold) < 100 {
				r.cold = append(r.cold, s)
			} else if k := rng.Intn(seen); k < 100 {
				r.cold[k] = s
			}
		}
	}
}

// sessionLoop is one session driver: create a session, follow its event
// stream, answer every question from the oracle, delete the session once
// it is terminal, repeat with the next goal. When the window ends it drops
// the session in flight and, on a durable daemon, runs keep more sessions
// to the end and leaves them in place for the restart check.
func sessionLoop(ctx context.Context, c *client.Client, g *graph.Graph, refs []outcome, seed int64, d, n, keep int, capture bool, r *recorder) {
	oracles := make([]*oracle, len(sessionGoals))
	for i, goal := range sessionGoals {
		oracles[i] = newOracle(g, goal)
	}
	for s := 0; ctx.Err() == nil; s++ {
		k := (int(seed%3+3) + d + s*n) % len(sessionGoals) // the seed picks where the cycle of goals starts
		finishing := !time.Now().Before(r.end)
		if finishing && keep == 0 {
			return
		}
		id, finished := runSession(ctx, c, oracles[k], refs[k], finishing, capture && r.transcript == nil, r)
		switch {
		case id == "":
		case finishing && finished:
			keep--
			v, err := c.Session(ctx, id)
			if err != nil {
				r.violate("session %s: read back before restart: %v", id, err)
			}
			r.kept = append(r.kept, v)
		default:
			start := time.Now()
			r.op(start, start, c.DeleteSession(ctx, id))
		}
	}
}

// runSession drives one session. It returns the session id ("" if the
// create failed) and whether it saw the terminal event; unless toEnd is
// set it gives up at the first question asked after the window closed.
func runSession(ctx context.Context, c *client.Client, o *oracle, want outcome, toEnd, capture bool, r *recorder) (id string, finished bool) {
	created := time.Now()
	v, err := c.CreateSession(ctx, sessionConfig())
	var es *client.EventStream
	if err == nil {
		es, err = c.Events(ctx, v.ID, 0)
	}
	r.op(created, time.Now(), err)
	if err != nil {
		return v.ID, false
	}
	defer es.Close()
	var events []client.Event
	sent := time.Time{} // when the label whose reply we are waiting for was sent
	for {
		ev, err := es.Next()
		if err != nil {
			r.op(time.Now(), time.Now(), fmt.Errorf("session %s: event stream: %w", v.ID, err))
			return v.ID, false
		}
		if capture {
			events = append(events, ev)
		}
		if ev.Type != "question" && !ev.Terminal() {
			continue
		}
		now := time.Now()
		if sent.IsZero() {
			r.firstQ = append(r.firstQ, float64(now.Sub(created))/1e6)
		} else if r.op(sent, now, nil) {
			r.ops = append(r.ops, float64(now.Sub(sent))/1e3)
		}
		if ev.Terminal() {
			var got outcome
			if err := json.Unmarshal(ev.Data, &got); err != nil || ev.Type == "failed" {
				r.violate("session %s ended with %s %s (%v)", v.ID, ev.Type, ev.Data, err)
			} else if got != want {
				r.violate("session %s for goal %s ended %+v, the in-process reference run %+v", v.ID, o.goal, got, want)
			}
			r.sessions++
			if capture {
				r.transcript = events
			}
			return v.ID, true
		}
		if !toEnd && !now.Before(r.end) {
			return v.ID, false
		}
		var q service.Question
		if err := json.Unmarshal(ev.Data, &q); err != nil {
			r.violate("session %s: undecodable question %s: %v", v.ID, ev.Data, err)
			return v.ID, false
		}
		a, err := o.answer(q)
		if err != nil {
			r.violate("session %s: %v", v.ID, err)
			return v.ID, false
		}
		sent = time.Now()
		if _, err := c.Answer(ctx, v.ID, a); err != nil {
			r.op(sent, time.Now(), err)
			return v.ID, false
		}
		r.turns++
	}
}

// countingTransport counts response bodies and their bytes. Only the traced
// run installs it.
type countingTransport struct {
	bytes, responses atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		t.responses.Add(1)
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
