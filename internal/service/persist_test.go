package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// openEngine opens a store engine over dir, closed when the test ends.
func openEngine(t *testing.T, dir string) *store.Engine {
	t.Helper()
	eng, err := store.OpenEngine(dir, store.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// newDurableServer serves a new server over a store engine on dir.
func newDurableServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(Options{CacheCapacity: 16, Store: openEngine(t, dir)})
	return srv, newHTTPServer(t, srv)
}

// waitJournaled waits until the session's last journal record — durable
// before it enters the journal — has type typ: a question is published
// before its record is appended.
func waitJournaled(t *testing.T, srv *Server, id, typ string) {
	t.Helper()
	s, ok := srv.manager.Get(id)
	if !ok {
		t.Fatalf("session %s is gone", id)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		recs := s.Journal().Records()
		if len(recs) > 0 && recs[len(recs)-1].Type == typ {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s: last journal record is not %s", id, typ)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// sseEvents connects to a session's event stream and forwards each SSE
// event name over a channel until the stream closes.
func sseEvents(t *testing.T, url string) <-chan string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("sse connect: %v", err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("sse connect: status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	t.Cleanup(func() { resp.Body.Close() })
	events := make(chan string, 64)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				events <- name
			}
		}
	}()
	return events
}

// nextEvent waits for the next SSE event name, skipping any in prefix.
func nextEvent(t *testing.T, events <-chan string, timeout time.Duration) string {
	t.Helper()
	select {
	case name, ok := <-events:
		if !ok {
			return ""
		}
		return name
	case <-time.After(timeout):
		t.Fatal("no SSE event within the timeout")
		return ""
	}
}

func TestGraphPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srvA, tsA := newDurableServer(t, dir)
	loadFigure1(t, tsA, "demo")
	if code := do(t, http.MethodPut, tsA.URL+"/v1/graphs/tiny", LoadSpec{
		Format: "text", Data: "edge a tram b\nedge b cinema c\n",
	}, nil); code != http.StatusCreated {
		t.Fatalf("load tiny returned %d", code)
	}
	loadFigure1(t, tsA, "dropped")
	if code := do(t, http.MethodDelete, tsA.URL+"/v1/graphs/dropped", nil, nil); code != http.StatusOK {
		t.Fatal("delete failed")
	}
	wantDemo, _ := srvA.Registry().Get("demo")
	wantTiny, _ := srvA.Registry().Get("tiny")

	srvB, tsB := newDurableServer(t, dir)
	rep, err := srvB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Graphs != 2 {
		t.Fatalf("recovered %d graphs, want 2 (report %+v)", rep.Graphs, rep)
	}
	var list struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	do(t, http.MethodGet, tsB.URL+"/v1/graphs", nil, &list)
	if len(list.Graphs) != 2 || list.Graphs[0].Name != "demo" || list.Graphs[1].Name != "tiny" {
		t.Fatalf("recovered registry = %+v", list.Graphs)
	}
	gotDemo, _ := srvB.Registry().Get("demo")
	gotTiny, _ := srvB.Registry().Get("tiny")
	if gotDemo.Graph().Text() != wantDemo.Graph().Text() || gotTiny.Graph().Text() != wantTiny.Graph().Text() {
		t.Fatal("recovered graphs are not byte-identical to the registered ones")
	}
	// The recovered graph serves queries.
	var eval struct {
		Count int `json:"count"`
	}
	do(t, http.MethodPost, tsB.URL+"/v1/graphs/demo/evaluate",
		EvaluateRequest{Query: "(tram+bus)*.cinema"}, &eval)
	if eval.Count != 4 {
		t.Fatalf("recovered demo graph evaluates to %d nodes, want 4", eval.Count)
	}
}

func TestFinishedSessionRestoredAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newDurableServer(t, dir)
	loadFigure1(t, tsA, "demo")
	var v SessionView
	if code := do(t, http.MethodPost, tsA.URL+"/v1/sessions", SessionConfig{
		Graph: "demo", Mode: "simulated", Goal: "(tram+bus)*.cinema",
	}, &v); code != http.StatusCreated {
		t.Fatalf("create returned %d", code)
	}
	want := waitSession(t, tsA, v.ID, func(v SessionView) bool { return v.Status == StatusDone })

	srvB, tsB := newDurableServer(t, dir)
	rep, err := srvB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionsFinished != 1 || rep.SessionsResumed != 0 || len(rep.SessionsSkipped) != 0 {
		t.Fatalf("recovery report %+v, want one finished session", rep)
	}
	var got SessionView
	do(t, http.MethodGet, tsB.URL+"/v1/sessions/"+v.ID, nil, &got)
	if got != want {
		t.Fatalf("restored view\n  got  %+v\n  want %+v", got, want)
	}
	// The hypothesis endpoint works on the restored session and graph.
	var hyp struct {
		Learned string `json:"learned"`
		Count   int    `json:"count"`
	}
	do(t, http.MethodGet, tsB.URL+"/v1/sessions/"+v.ID+"/hypothesis", nil, &hyp)
	if hyp.Learned != want.Learned || hyp.Count != 4 {
		t.Fatalf("restored hypothesis = %+v, want learned %q count 4", hyp, want.Learned)
	}
	// The SSE stream replays the whole journal and terminates at done.
	events := sseEvents(t, tsB.URL+"/v1/sessions/"+v.ID+"/events")
	seen := map[string]bool{}
	for {
		name := nextEvent(t, events, 10*time.Second)
		if name == "" {
			break
		}
		seen[name] = true
	}
	for _, want := range []string{"create", "hypothesis", "done"} {
		if !seen[want] {
			t.Fatalf("SSE replay of a finished session lacks %q (saw %v)", want, seen)
		}
	}
}

// TestManualSessionCrashResume is the acceptance test of the durable
// layer: a manual session is driven to a hypothesis, the process "dies"
// (the first server is simply abandoned, exactly like a SIGKILL mid-park),
// and a second server recovering from the same data directory must present
// a byte-identical session — same status, labels, hypothesis and pending
// question — without appending a single byte to the wal. An SSE client on
// the recovered session then observes the next question being published,
// no polling involved, and the resumed session appends and finishes. Run
// with -race.
func TestManualSessionCrashResume(t *testing.T) {
	dir := t.TempDir()
	srvA, tsA := newDurableServer(t, dir)
	loadFigure1(t, tsA, "demo")
	var v SessionView
	if code := do(t, http.MethodPost, tsA.URL+"/v1/sessions", SessionConfig{
		Graph: "demo", Mode: "manual",
	}, &v); code != http.StatusCreated {
		t.Fatalf("create returned %d", code)
	}
	id := v.ID
	// Answer the first label question positively: the learner produces a
	// hypothesis and the loop parks on the satisfied question.
	waitSession(t, tsA, id, func(v SessionView) bool { return v.Pending != nil })
	if code := do(t, http.MethodPost, tsA.URL+"/v1/sessions/"+id+"/label",
		Answer{Decision: "positive"}, nil); code != http.StatusOK {
		t.Fatalf("label returned %d", code)
	}
	want := waitSession(t, tsA, id, func(v SessionView) bool {
		return v.Pending != nil && v.Pending.Kind == "satisfied"
	})
	if want.Learned == "" || want.Labels != 1 {
		t.Fatalf("pre-crash session has no hypothesis: %+v", want)
	}
	waitJournaled(t, srvA, id, recQuestion)
	seg := activeSegment(t, dir)
	wantJournal, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": server A is abandoned with the session parked. Recover.
	srvB, tsB := newDurableServer(t, dir)
	rep, err := srvB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionsResumed != 1 || len(rep.SessionsSkipped) != 0 {
		t.Fatalf("recovery report %+v, want one resumed session", rep)
	}
	got := waitSession(t, tsB, id, func(v SessionView) bool { return v.Pending != nil })

	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("resumed session diverged\n  got  %s\n  want %s", gotJSON, wantJSON)
	}
	// Replay must not have appended anything: the wal is byte-identical.
	gotJournal, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJournal) != string(wantJournal) {
		t.Fatalf("resume mutated the wal\n  got  %q\n  want %q", gotJournal, wantJournal)
	}

	// SSE: subscribe past the replayed history, then reject the hypothesis.
	// The next question must arrive on the stream without any polling.
	recs := durableRecords(t, dir, id)
	events := sseEvents(t, fmt.Sprintf("%s/v1/sessions/%s/events?after=%d", tsB.URL, id, recs[len(recs)-1].Seq))
	no := false
	if code := do(t, http.MethodPost, tsB.URL+"/v1/sessions/"+id+"/label",
		Answer{Satisfied: &no}, nil); code != http.StatusOK {
		t.Fatalf("satisfied answer returned %d", code)
	}
	name := nextEvent(t, events, 10*time.Second)
	if name == "answer" { // our own answer's journal record precedes it
		name = nextEvent(t, events, 10*time.Second)
	}
	if name != "question" {
		t.Fatalf("streamed event after answering = %q, want question", name)
	}

	// Drive the resumed session to completion over the stream: negative
	// label, then accept the refreshed hypothesis.
	waitSession(t, tsB, id, func(v SessionView) bool {
		return v.Pending != nil && v.Pending.Kind == "label"
	})
	do(t, http.MethodPost, tsB.URL+"/v1/sessions/"+id+"/label", Answer{Decision: "negative"}, nil)
	waitSession(t, tsB, id, func(v SessionView) bool {
		return v.Pending != nil && v.Pending.Kind == "satisfied"
	})
	yes := true
	do(t, http.MethodPost, tsB.URL+"/v1/sessions/"+id+"/label", Answer{Satisfied: &yes}, nil)
	final := waitSession(t, tsB, id, func(v SessionView) bool { return v.Status == StatusDone })
	if final.Halt != "user-satisfied" || final.Labels != 2 {
		t.Fatalf("resumed session finished %+v", final)
	}
	sawDone := false
	for {
		name := nextEvent(t, events, 10*time.Second)
		if name == "" {
			break
		}
		if name == "done" {
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatal("SSE stream did not deliver the done event")
	}
}

// TestResumeAfterTornQuestionRecord injects a torn wal tail at the service
// level: the frame of the parked question is cut mid-write, so recovery
// truncates it and the resumed loop re-asks (and re-journals) the
// same question deterministically, converging on the same state.
func TestResumeAfterTornQuestionRecord(t *testing.T) {
	dir := t.TempDir()
	srvA, tsA := newDurableServer(t, dir)
	loadFigure1(t, tsA, "demo")
	var v SessionView
	do(t, http.MethodPost, tsA.URL+"/v1/sessions", SessionConfig{Graph: "demo", Mode: "manual"}, &v)
	waitSession(t, tsA, v.ID, func(v SessionView) bool { return v.Pending != nil })
	do(t, http.MethodPost, tsA.URL+"/v1/sessions/"+v.ID+"/label", Answer{Decision: "positive"}, nil)
	want := waitSession(t, tsA, v.ID, func(v SessionView) bool {
		return v.Pending != nil && v.Pending.Kind == "satisfied"
	})
	waitJournaled(t, srvA, v.ID, recQuestion)

	// Tear the last frame (the parked satisfied question) mid-write.
	path := activeSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	srvB, tsB := newDurableServer(t, dir)
	if _, err := srvB.Recover(); err != nil {
		t.Fatal(err)
	}
	got := waitSession(t, tsB, v.ID, func(v SessionView) bool { return v.Pending != nil })
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("resume after torn tail diverged\n  got  %s\n  want %s", gotJSON, wantJSON)
	}
	// The re-asked question was re-journaled: the wal is whole again.
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(repaired) != string(data) {
		t.Fatalf("re-journaled question differs from the torn one\n  got  %q\n  want %q", repaired, data)
	}
}

// TestRemovedSessionStaysRemoved pins Remove's durability contract: an
// explicitly deleted session must not resurrect at the next recovery.
func TestRemovedSessionStaysRemoved(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newDurableServer(t, dir)
	loadFigure1(t, tsA, "demo")
	var v SessionView
	do(t, http.MethodPost, tsA.URL+"/v1/sessions", SessionConfig{Graph: "demo", Mode: "manual"}, &v)
	waitSession(t, tsA, v.ID, func(v SessionView) bool { return v.Pending != nil })
	do(t, http.MethodDelete, tsA.URL+"/v1/sessions/"+v.ID, nil, nil)

	srvB, _ := newDurableServer(t, dir)
	rep, err := srvB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionsResumed != 0 || rep.SessionsFinished != 0 {
		t.Fatalf("removed session came back: %+v", rep)
	}
}

// TestSSEStreamsInMemory pins that the event stream works identically
// without a store: in-memory journals feed the same endpoint.
func TestSSEStreamsInMemory(t *testing.T) {
	_, ts := newTestServer(t)
	loadFigure1(t, ts, "demo")
	var v SessionView
	do(t, http.MethodPost, ts.URL+"/v1/sessions", SessionConfig{Graph: "demo", Mode: "manual"}, &v)
	events := sseEvents(t, ts.URL+"/v1/sessions/"+v.ID+"/events")
	if name := nextEvent(t, events, 10*time.Second); name != "create" {
		t.Fatalf("first event = %q, want create", name)
	}
	if name := nextEvent(t, events, 10*time.Second); name != "question" {
		t.Fatalf("second event = %q, want question", name)
	}
	waitSession(t, ts, v.ID, func(v SessionView) bool { return v.Pending != nil })
	do(t, http.MethodPost, ts.URL+"/v1/sessions/"+v.ID+"/label", Answer{Decision: "negative"}, nil)
	if name := nextEvent(t, events, 10*time.Second); name != "answer" {
		t.Fatalf("event after answering = %q, want answer", name)
	}
}

// TestSSEEndsWhenSessionDeleted pins that deleting a mid-run session ends
// its event stream (the journal closes without a terminal record) instead
// of leaving the client on heartbeats forever.
func TestSSEEndsWhenSessionDeleted(t *testing.T) {
	_, ts := newTestServer(t)
	loadFigure1(t, ts, "demo")
	var v SessionView
	do(t, http.MethodPost, ts.URL+"/v1/sessions", SessionConfig{Graph: "demo", Mode: "manual"}, &v)
	waitSession(t, ts, v.ID, func(v SessionView) bool { return v.Pending != nil })
	events := sseEvents(t, ts.URL+"/v1/sessions/"+v.ID+"/events")
	for {
		if name := nextEvent(t, events, 10*time.Second); name == "question" {
			break
		}
	}
	do(t, http.MethodDelete, ts.URL+"/v1/sessions/"+v.ID, nil, nil)
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-events:
			if !ok {
				return // stream ended
			}
		case <-deadline:
			t.Fatal("SSE stream did not end after the session was deleted")
		}
	}
}

// TestResumeAnswerWithoutQuestionRecord pins the nastiest crash point: the
// answer's journal append can land (and fsync) before its question's, so a
// crash can leave [create, answer] with no question record. Resume must
// re-feed the answer AND re-journal the missing question, so that a second
// crash-and-recovery still pairs questions positionally and does not trip
// the divergence guard.
func TestResumeAnswerWithoutQuestionRecord(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newDurableServer(t, dir)
	loadFigure1(t, tsA, "demo")
	var v SessionView
	do(t, http.MethodPost, tsA.URL+"/v1/sessions", SessionConfig{Graph: "demo", Mode: "manual"}, &v)
	waitSession(t, tsA, v.ID, func(v SessionView) bool { return v.Pending != nil })
	do(t, http.MethodPost, tsA.URL+"/v1/sessions/"+v.ID+"/label", Answer{Decision: "positive"}, nil)
	waitSession(t, tsA, v.ID, func(v SessionView) bool {
		return v.Pending != nil && v.Pending.Kind == "satisfied"
	})

	// Write the journal in the inverted-crash shape: create, then the
	// answer at seq 2 with the question record lost.
	recs := durableRecords(t, dir, v.ID)
	var answer store.Record
	for _, rec := range recs {
		if rec.Type == recAnswer {
			answer = rec
			break
		}
	}
	answer.Seq = 2
	dir, _ = writeRecords(t, dir, v.ID, []store.Record{recs[0], answer})

	// First recovery: the answer replays and the lost question record is
	// re-journaled; the session parks where it did pre-crash.
	srvB, tsB := newDurableServer(t, dir)
	if _, err := srvB.Recover(); err != nil {
		t.Fatal(err)
	}
	got := waitSession(t, tsB, v.ID, func(v SessionView) bool {
		return v.Pending != nil && v.Pending.Kind == "satisfied"
	})
	if got.Labels != 1 || got.Learned == "" {
		t.Fatalf("first resume state %+v", got)
	}

	// Second crash: recovery must pair the re-journaled question correctly
	// (no divergence) and reach the same state again.
	srvC, tsC := newDurableServer(t, dir)
	rep, err := srvC.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionsResumed != 1 {
		t.Fatalf("second recovery report %+v", rep)
	}
	again := waitSession(t, tsC, v.ID, func(v SessionView) bool {
		return v.Status == StatusFailed || v.Pending != nil
	})
	gotJSON, _ := json.Marshal(got)
	againJSON, _ := json.Marshal(again)
	if string(againJSON) != string(gotJSON) {
		t.Fatalf("second resume diverged\n  got  %s\n  want %s", againJSON, gotJSON)
	}
}

// TestSSEEndsOnServerShutdown pins that NotifyShutdown drains open event
// streams, so a graceful http.Server.Shutdown is not pinned by SSE tailers.
func TestSSEEndsOnServerShutdown(t *testing.T) {
	srv, ts := newTestServer(t)
	loadFigure1(t, ts, "demo")
	var v SessionView
	do(t, http.MethodPost, ts.URL+"/v1/sessions", SessionConfig{Graph: "demo", Mode: "manual"}, &v)
	events := sseEvents(t, ts.URL+"/v1/sessions/"+v.ID+"/events")
	if name := nextEvent(t, events, 10*time.Second); name != "create" {
		t.Fatalf("first event = %q", name)
	}
	srv.NotifyShutdown()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-events:
			if !ok {
				return // stream drained
			}
		case <-deadline:
			t.Fatal("SSE stream did not end after NotifyShutdown")
		}
	}
}

// TestBinaryFinishedSessionSurvivesCompactedRestart finishes a session on
// the binary engine, compacts the wal at the next boot (as gpsd -compact
// does) and verifies the session still restores — with its result intact
// and its SSE stream replaying the compacted summary (create + done).
func TestBinaryFinishedSessionSurvivesCompactedRestart(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newDurableServer(t, dir)
	loadFigure1(t, tsA, "demo")
	var v SessionView
	if code := do(t, http.MethodPost, tsA.URL+"/v1/sessions", SessionConfig{
		Graph: "demo", Mode: "simulated", Goal: "(tram+bus)*.cinema",
	}, &v); code != http.StatusCreated {
		t.Fatalf("create returned %d", code)
	}
	want := waitSession(t, tsA, v.ID, func(v SessionView) bool { return v.Status == StatusDone })

	eng := openEngine(t, dir)
	rep, err := eng.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionsCompacted != 1 {
		t.Fatalf("compaction report %+v, want one compacted session", rep)
	}
	srvB := NewServer(Options{CacheCapacity: 16, Store: eng})
	tsB := newHTTPServer(t, srvB)
	if _, err := srvB.Recover(); err != nil {
		t.Fatal(err)
	}
	var got SessionView
	do(t, http.MethodGet, tsB.URL+"/v1/sessions/"+v.ID, nil, &got)
	if got.Status != StatusDone || got.Halt != want.Halt || got.Learned != want.Learned || got.Labels != want.Labels {
		t.Fatalf("compacted restore\n  got  %+v\n  want %+v", got, want)
	}
	events := sseEvents(t, tsB.URL+"/v1/sessions/"+v.ID+"/events")
	var names []string
	for {
		name := nextEvent(t, events, 10*time.Second)
		if name == "" {
			break
		}
		names = append(names, name)
	}
	if len(names) != 2 || names[0] != "create" || names[1] != "done" {
		t.Fatalf("compacted SSE replay = %v, want [create done]", names)
	}
}

// TestTerminalRecordPrecedesDoneStatus polls many short Figure 1 sessions
// until they report done and requires the terminal record to be in the
// journal by then: a client that saw a session finish must never find a
// journal a crash would resume. The poll reads View, the snapshot the
// session endpoint serves, in a tight loop so it lands inside any window
// between publishing the status and journaling the record.
func TestTerminalRecordPrecedesDoneStatus(t *testing.T) {
	srv, ts := newDurableServer(t, t.TempDir())
	loadFigure1(t, ts, "demo")
	for i := 0; i < 100; i++ {
		var v SessionView
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions", SessionConfig{
			Graph: "demo", Mode: "simulated", Goal: "(tram+bus)*.cinema",
		}, &v); code != http.StatusCreated {
			t.Fatalf("session %d: create returned %d", i, code)
		}
		s, ok := srv.manager.Get(v.ID)
		if !ok {
			t.Fatalf("session %s is gone", v.ID)
		}
		deadline := time.Now().Add(30 * time.Second)
		for v = s.View(); v.Status != StatusDone; v = s.View() {
			if v.Status == StatusFailed || time.Now().After(deadline) {
				t.Fatalf("session %s: status %s, error %q", v.ID, v.Status, v.Error)
			}
		}
		recs := s.Journal().Records()
		if len(recs) == 0 || recs[len(recs)-1].Type != recDone {
			t.Fatalf("session %s reported done before its terminal record was journaled (%d records)", v.ID, len(recs))
		}
	}
}
