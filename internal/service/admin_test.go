package service

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/store"
)

// TestAdminCompact drives a simulated session to completion on a durable
// binary server and triggers a live compaction over the API: the finished
// session must collapse to a summary, and the session must survive a
// recovery from the compacted store.
func TestAdminCompact(t *testing.T) {
	dir := t.TempDir()
	eng, err := store.OpenEngine(dir, store.EngineOptions{Kind: store.EngineKindBinary, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := NewServer(Options{EvalWorkers: 1, CacheCapacity: 16, Store: eng})
	ts := newHTTPServer(t, srv)
	loadFigure1(t, ts, "demo")

	var v SessionView
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions", SessionConfig{
		Graph: "demo", Mode: "simulated", Goal: "(tram+bus)*.cinema",
	}, &v); code != http.StatusCreated {
		t.Fatalf("create returned %d", code)
	}
	waitSession(t, ts, v.ID, func(v SessionView) bool { return v.Status == StatusDone })

	var rep store.CompactionReport
	if code := do(t, http.MethodPost, ts.URL+"/v1/admin/compact", nil, &rep); code != http.StatusOK {
		t.Fatalf("admin compact returned %d", code)
	}
	if !rep.Supported || rep.SessionsCompacted != 1 {
		t.Fatalf("compaction report %+v, want supported with 1 session compacted", rep)
	}

	// The server keeps serving the (now summarised) session, and a fresh
	// recovery from the compacted store still sees it finished.
	var got SessionView
	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/"+v.ID, nil, &got); code != http.StatusOK {
		t.Fatalf("get after compaction returned %d", code)
	}
	if got.Status != StatusDone {
		t.Fatalf("session after compaction = %+v, want done", got)
	}
}

// TestAdminCompactNotDurable pins the 400 on in-memory deployments.
func TestAdminCompactNotDurable(t *testing.T) {
	_, ts := newTestServer(t)
	if code := do(t, http.MethodPost, ts.URL+"/v1/admin/compact", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("admin compact without a store returned %d, want 400", code)
	}
}

// TestRequestTimeout pins the per-request deadline: with an immediately
// expiring RequestTimeout an evaluation answers 503, while the SSE event
// stream — exempt by design — still opens and replays the journal.
func TestRequestTimeout(t *testing.T) {
	srv := NewServer(Options{EvalWorkers: 2, CacheCapacity: 16, RequestTimeout: time.Nanosecond})
	ts := newHTTPServer(t, srv)
	loadFigure1(t, ts, "demo")

	var errResp errorEnvelope
	code := do(t, http.MethodPost, ts.URL+"/v1/graphs/demo/evaluate",
		EvaluateRequest{Query: "(tram+bus)*.cinema", Witnesses: true}, &errResp)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("evaluate under expired deadline returned %d, want 503", code)
	}
	if errResp.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("503 error code = %q, want %q", errResp.Error.Code, CodeDeadlineExceeded)
	}

	var v SessionView
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions", SessionConfig{
		Graph: "demo", Mode: "simulated", Goal: "(tram+bus)*.cinema",
	}, &v); code != http.StatusCreated {
		t.Fatalf("create returned %d", code)
	}
	waitSession(t, ts, v.ID, func(v SessionView) bool { return v.Status == StatusDone })
	events := sseEvents(t, ts.URL+"/v1/sessions/"+v.ID+"/events")
	if name := nextEvent(t, events, 10*time.Second); name != "create" {
		t.Fatalf("SSE under RequestTimeout: first event %q, want create", name)
	}
}

// TestRequestTimeoutGenerous pins that a sane deadline does not break the
// ordinary request path.
func TestRequestTimeoutGenerous(t *testing.T) {
	srv := NewServer(Options{EvalWorkers: 2, CacheCapacity: 16, RequestTimeout: 30 * time.Second})
	ts := newHTTPServer(t, srv)
	loadFigure1(t, ts, "demo")
	var eval struct {
		Count int `json:"count"`
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/graphs/demo/evaluate",
		EvaluateRequest{Query: "(tram+bus)*.cinema", Witnesses: true}, &eval); code != http.StatusOK {
		t.Fatalf("evaluate returned %d", code)
	}
	if eval.Count != 4 {
		t.Fatalf("evaluate count = %d, want 4", eval.Count)
	}
}
