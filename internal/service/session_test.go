package service

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/regex"
	"repro/internal/rpq"
)

// TestConcurrentSimulatedSessionsConverge is the acceptance check for the
// service: many simulated learning sessions share one graph (and its
// engine cache) and all run to user-satisfied convergence concurrently.
// Run with -race.
func TestConcurrentSimulatedSessionsConverge(t *testing.T) {
	_, ts := newTestServer(t)
	loadFigure1(t, ts, "demo")

	goals := []string{
		"(tram+bus)*.cinema",
		"bus",
		"restaurant",
		"bus.restaurant",
	}
	strategies := []string{"informative", "random", "hybrid", "disagreement"}
	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			goal := goals[i%len(goals)]
			var v SessionView
			code := do(t, http.MethodPost, ts.URL+"/v1/sessions", SessionConfig{
				Graph:    "demo",
				Mode:     "simulated",
				Goal:     goal,
				Strategy: strategies[i%len(strategies)],
				Seed:     int64(i),
			}, &v)
			if code != http.StatusCreated {
				errs <- fmt.Errorf("session %d: create returned %d", i, code)
				return
			}
			v = waitSession(t, ts, v.ID, func(v SessionView) bool {
				return v.Status == StatusDone || v.Status == StatusFailed
			})
			if v.Status != StatusDone || v.Halt != "user-satisfied" {
				errs <- fmt.Errorf("session %d (goal %s): status %s halt %q error %q", i, goal, v.Status, v.Halt, v.Error)
				return
			}
			// The learned query must return the goal's answer set.
			g := dataset.Figure1()
			learned := rpq.New(g, regex.MustParse(v.Learned))
			if !learned.SameSelection(rpq.New(g, regex.MustParse(goal))) {
				errs <- fmt.Errorf("session %d: learned %q does not match goal %q", i, v.Learned, goal)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentSessionsAndEvaluations churns the shared per-graph cache
// from three directions at once: simulated sessions, manual sessions being
// canceled mid-question, and ad-hoc evaluations over a deliberately tiny
// cache so evictions keep happening.
func TestConcurrentSessionsAndEvaluations(t *testing.T) {
	srv := NewServer(Options{EvalWorkers: 2, CacheCapacity: 2})
	ts := newHTTPServer(t, srv)
	loadFigure1(t, ts, "demo")

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var v SessionView
			do(t, http.MethodPost, ts.URL+"/v1/sessions", SessionConfig{
				Graph: "demo", Mode: "simulated", Goal: "(tram+bus)*.cinema",
			}, &v)
			waitSession(t, ts, v.ID, func(v SessionView) bool { return v.Status == StatusDone })
		}(i)
	}
	queries := []string{"bus", "tram", "restaurant", "cinema", "bus.restaurant"}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := queries[(w+i)%len(queries)]
				if code := do(t, http.MethodPost, ts.URL+"/v1/graphs/demo/evaluate",
					EvaluateRequest{Query: q}, nil); code != http.StatusOK {
					t.Errorf("evaluate %s returned %d", q, code)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			var v SessionView
			do(t, http.MethodPost, ts.URL+"/v1/sessions", SessionConfig{Graph: "demo", Mode: "manual"}, &v)
			waitSession(t, ts, v.ID, func(v SessionView) bool { return v.Pending != nil })
			do(t, http.MethodDelete, ts.URL+"/v1/sessions/"+v.ID, nil, nil)
		}
	}()
	wg.Wait()

	h, _ := srv.Registry().Get("demo")
	st := h.Cache().Stats()
	if st.Size > 2 {
		t.Fatalf("shared cache exceeded its capacity: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("expected evictions under churn, stats %+v", st)
	}
}

// TestFinishedSessionRetention pins the manager's bounded retention:
// finished sessions stay inspectable up to MaxSessions and are then
// evicted oldest-first, so a long-running daemon does not accumulate
// session state without bound.
func TestFinishedSessionRetention(t *testing.T) {
	srv := NewServer(Options{EvalWorkers: 1, MaxSessions: 2})
	h, err := srv.Registry().Register("demo", dataset.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		s, err := srv.Manager().Create(h, SessionConfig{
			Graph: "demo", Mode: "simulated", Goal: "(tram+bus)*.cinema",
		})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		<-s.Done() // sequential: each finishes before the next is created
		ids = append(ids, s.ID())
	}
	// Only the newest MaxSessions finished sessions are retained.
	for _, id := range ids[:3] {
		if _, ok := srv.Manager().Get(id); ok {
			t.Fatalf("session %s should have been evicted", id)
		}
	}
	for _, id := range ids[3:] {
		s, ok := srv.Manager().Get(id)
		if !ok {
			t.Fatalf("session %s should still be retained", id)
		}
		if v := s.View(); v.Status != StatusDone {
			t.Fatalf("retained session %s has status %s", id, v.Status)
		}
	}
}

// TestCanceledParkedSessionRecordsNothing pins the cancel semantics: a
// manual session torn down while parked on its first label question halts
// as canceled without recording a fabricated label or running the learner.
func TestCanceledParkedSessionRecordsNothing(t *testing.T) {
	srv := NewServer(Options{EvalWorkers: 1})
	h, err := srv.Registry().Register("demo", dataset.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	s, err := srv.Manager().Create(h, SessionConfig{Graph: "demo", Mode: "manual"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.View().Pending == nil {
		if time.Now().After(deadline) {
			t.Fatal("session never asked a question")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.Cancel()
	<-s.Done()
	v := s.View()
	if v.Status != StatusDone || v.Halt != "canceled" {
		t.Fatalf("canceled session ended %s/%q", v.Status, v.Halt)
	}
	if v.Labels != 0 || v.Learned != "" {
		t.Fatalf("canceled session recorded labels=%d learned=%q", v.Labels, v.Learned)
	}
}

// TestSessionLimit pins the MaxSessions backpressure.
func TestSessionLimit(t *testing.T) {
	srv := NewServer(Options{EvalWorkers: 1, MaxSessions: 2})
	ts := newHTTPServer(t, srv)
	loadFigure1(t, ts, "demo")

	ids := make([]string, 0, 2)
	for i := 0; i < 2; i++ {
		var v SessionView
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions",
			SessionConfig{Graph: "demo", Mode: "manual"}, &v); code != http.StatusCreated {
			t.Fatalf("session %d: create returned %d", i, code)
		}
		ids = append(ids, v.ID)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions",
		SessionConfig{Graph: "demo", Mode: "manual"}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("over-limit create must 429, got %d", code)
	}
	// Freeing a slot re-enables creation.
	do(t, http.MethodDelete, ts.URL+"/v1/sessions/"+ids[0], nil, nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions",
			SessionConfig{Graph: "demo", Mode: "manual"}, nil); code == http.StatusCreated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("create kept failing after a slot was freed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
