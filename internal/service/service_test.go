package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/rpq"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(Options{EvalWorkers: 2, CacheCapacity: 64})
	return srv, newHTTPServer(t, srv)
}

func newHTTPServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// do issues a JSON request and decodes the JSON response into out (unless
// out is nil). It returns the status code.
func do(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	code, data := doRaw(t, method, url, body)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, data, err)
		}
	}
	return code
}

// doRaw issues a JSON request and returns the status code and the raw
// response body.
func doRaw(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var buf io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		buf = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, buf)
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, data
}

func loadFigure1(t *testing.T, ts *httptest.Server, name string) {
	t.Helper()
	code := do(t, http.MethodPut, ts.URL+"/v1/graphs/"+name,
		LoadSpec{Dataset: DatasetSpec{Kind: "figure1"}}, nil)
	if code != http.StatusCreated {
		t.Fatalf("load graph returned %d", code)
	}
}

func TestLoadGraphFormats(t *testing.T) {
	_, ts := newTestServer(t)

	var info GraphInfo
	code := do(t, http.MethodPut, ts.URL+"/v1/graphs/txt", LoadSpec{
		Format: "text",
		Data:   "edge a tram b\nedge b cinema c\n",
	}, &info)
	if code != http.StatusCreated || info.Nodes != 3 || info.Edges != 2 {
		t.Fatalf("text load: code %d, info %+v", code, info)
	}

	code = do(t, http.MethodPut, ts.URL+"/v1/graphs/csv", LoadSpec{
		Format: "csv",
		Data:   "a,tram,b\nb,cinema,c\n",
	}, &info)
	if code != http.StatusCreated || info.Edges != 2 {
		t.Fatalf("csv load: code %d, info %+v", code, info)
	}

	code = do(t, http.MethodPut, ts.URL+"/v1/graphs/bad", LoadSpec{Format: "nope"}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown format must 400, got %d", code)
	}

	var list struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	do(t, http.MethodGet, ts.URL+"/v1/graphs", nil, &list)
	if len(list.Graphs) != 2 {
		t.Fatalf("expected 2 graphs, got %+v", list.Graphs)
	}

	if code := do(t, http.MethodDelete, ts.URL+"/v1/graphs/csv", nil, nil); code != http.StatusOK {
		t.Fatalf("delete graph returned %d", code)
	}
	if code := do(t, http.MethodGet, ts.URL+"/v1/graphs/csv", nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted graph must 404, got %d", code)
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	loadFigure1(t, ts, "demo")

	var resp EvaluateResult
	code := do(t, http.MethodPost, ts.URL+"/v1/graphs/demo/evaluate",
		EvaluateRequest{Query: "(tram+bus)*.cinema", Witnesses: true}, &resp)
	if code != http.StatusOK {
		t.Fatalf("evaluate returned %d", code)
	}
	want := rpq.Evaluate(dataset.Figure1(), regex.MustParse("(tram+bus)*.cinema"))
	if fmt.Sprint(resp.Nodes) != fmt.Sprint(want) {
		t.Fatalf("evaluate nodes = %v, want %v", resp.Nodes, want)
	}
	if resp.Count != len(want) || len(resp.Witnesses) != len(want) {
		t.Fatalf("count %d, witnesses %d, want %d", resp.Count, len(resp.Witnesses), len(want))
	}

	// Limit truncates the list but keeps the total count.
	code = do(t, http.MethodPost, ts.URL+"/v1/graphs/demo/evaluate",
		EvaluateRequest{Query: "(tram+bus)*.cinema", Limit: 2}, &resp)
	if code != http.StatusOK || len(resp.Nodes) != 2 || resp.Count != len(want) {
		t.Fatalf("limited evaluate: code %d, nodes %v, count %d", code, resp.Nodes, resp.Count)
	}

	if code := do(t, http.MethodPost, ts.URL+"/v1/graphs/demo/evaluate",
		EvaluateRequest{Query: "(("}, nil); code != http.StatusBadRequest {
		t.Fatalf("malformed query must 400, got %d", code)
	}

	// On the wire every evaluate body is exactly encoding/json's encoding of
	// the EvaluateResult plus json.Encoder's newline, whether the handler
	// spliced in the engine's memoised node array (whole answer set, no
	// witnesses) or encoded the nodes per request. Node IDs that need
	// escaping check the memo against encoding/json's escaping rules.
	escapes := graph.New()
	for _, id := range []graph.NodeID{`q"uote`, `back\slash`, "<b>&amp;", "café", "line\u2028sep", "plain"} {
		escapes.MustAddEdge(id, "bus", "stop")
	}
	escapes.MustAddEdge("stop", "cinema", "screen")
	if _, err := srv.Registry().Register("escapes", escapes); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		graph string
		req   EvaluateRequest
	}{
		{"escapes", EvaluateRequest{Query: "bus.cinema"}},                  // limit 0: memo
		{"escapes", EvaluateRequest{Query: "bus.cinema", Limit: 6}},        // limit = count: memo
		{"escapes", EvaluateRequest{Query: "bus.cinema", Limit: 2}},        // limit < count: per request
		{"escapes", EvaluateRequest{Query: "tram"}},                        // empty selection
		{"escapes", EvaluateRequest{Query: "bus.cinema", Witnesses: true}}, // witnesses: per request
		{"demo", EvaluateRequest{Query: "(tram+bus)*.cinema"}},
		{"demo", EvaluateRequest{Query: "(tram+bus)*.cinema", Limit: 3, Witnesses: true}},
	} {
		code, body := doRaw(t, http.MethodPost, ts.URL+"/v1/graphs/"+c.graph+"/evaluate", c.req)
		var got EvaluateResult
		if err := json.Unmarshal(body, &got); code != http.StatusOK || err != nil {
			t.Fatalf("%s %+v: code %d, decode %v: %s", c.graph, c.req, code, err, body)
		}
		h, _ := srv.Registry().Get(c.graph)
		e := rpq.New(h.Graph(), regex.MustParse(c.req.Query))
		want := EvaluateResult{Query: e.QueryString(), Count: e.NumSelected(), DurationUs: got.DurationUs, Nodes: e.Selected()}
		if c.req.Limit > 0 && c.req.Limit < len(want.Nodes) {
			want.Nodes = want.Nodes[:c.req.Limit]
		}
		if c.req.Witnesses {
			want.Witnesses = map[graph.NodeID][]graph.Edge{}
			for _, n := range want.Nodes {
				want.Witnesses[n], _ = e.Witness(n)
			}
		}
		wantBody, _ := json.Marshal(want)
		if wantBody = append(wantBody, '\n'); !bytes.Equal(body, wantBody) {
			t.Errorf("%s %+v:\n got %s\nwant %s", c.graph, c.req, body, wantBody)
		}
	}
	if _, body := doRaw(t, http.MethodPost, ts.URL+"/v1/graphs/escapes/evaluate", EvaluateRequest{Query: "tram"}); !bytes.Contains(body, []byte(`"nodes":[]`)) {
		t.Errorf("an empty selection must encode as \"nodes\":[], got %s", body)
	}

	// Concurrent first hits on one engine race to build its memo; each
	// must get the whole body (the race detector checks the rest).
	h := srv.Handler()
	bodies := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs/escapes/evaluate", strings.NewReader(`{"query":"bus"}`)))
			bodies[i] = zeroDuration(rec.Body.Bytes())
		}()
	}
	wg.Wait()
	for _, b := range bodies[1:] {
		if !bytes.Equal(b, bodies[0]) || !bytes.Contains(b, []byte(`"count":6,`)) {
			t.Fatalf("concurrent first hits answered differently:\n%s\n%s", bodies[0], b)
		}
	}
}

// zeroDuration replaces the digits of an evaluate body's duration_us with
// 0, the one field that differs between two answers to one request.
func zeroDuration(body []byte) []byte {
	return regexp.MustCompile(`"duration_us":[0-9]+`).ReplaceAll(body, []byte(`"duration_us":0`))
}

// discardWriter is a ResponseWriter that keeps the header and status and
// counts the body bytes without storing them.
type discardWriter struct {
	header http.Header
	code   int
	n      int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// A warm /evaluate on the eval-warm benchmark graph (transport 60x60, seed
// 1) allocated 122 times per request through the handler when the body was
// indented JSON built from a map, re-encoded on every hit, and the query
// was parsed on every hit; the budget is half of that. The body length is
// pinned too, with duration_us zeroed: it was 49166 bytes indented, and
// byte counts do not depend on the machine.
const (
	warmEvaluateAllocBudget = 122 / 2
	warmEvaluateBodyBytes   = 31191
)

func TestWarmEvaluateBudget(t *testing.T) {
	srv := NewServer(Options{EvalWorkers: 2, CacheCapacity: 64})
	g, err := BuildGraph(LoadSpec{Format: "dataset", Dataset: DatasetSpec{Kind: "transport", Rows: 60, Cols: 60, Seed: 1, FacilityRate: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	// No index: its background build would allocate during the count.
	if _, err := srv.Registry().RegisterForWith(TenantInfo{Name: DefaultTenant}, "city", g, RegisterOptions{NoIndex: true}); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	query := []byte(`{"query":"(tram+bus)*.cinema"}`)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs/city/evaluate", bytes.NewReader(query)))
	if body := zeroDuration(rec.Body.Bytes()); rec.Code != http.StatusOK || len(body) != warmEvaluateBodyBytes {
		t.Fatalf("warm body: code %d, %d bytes, want %d", rec.Code, len(body), warmEvaluateBodyBytes)
	}

	body := bytes.NewReader(query)
	req := httptest.NewRequest(http.MethodPost, "/v1/graphs/city/evaluate", body)
	w := &discardWriter{header: http.Header{}}
	allocs := testing.AllocsPerRun(100, func() {
		body.Reset(query)
		clear(w.header)
		h.ServeHTTP(w, req)
	})
	if w.code != http.StatusOK {
		t.Fatalf("warm evaluate answered %d", w.code)
	}
	t.Logf("warm evaluate: %.0f allocations per request, budget %d", allocs, warmEvaluateAllocBudget)
	if allocs > warmEvaluateAllocBudget {
		t.Fatalf("warm evaluate allocates %.0f times per request, budget %d", allocs, warmEvaluateAllocBudget)
	}
}

func TestSnapshotGuardRejectsMutatedGraph(t *testing.T) {
	srv, ts := newTestServer(t)
	loadFigure1(t, ts, "demo")
	h, _ := srv.Registry().Get("demo")
	// Mutating a registered graph violates the service contract; the
	// snapshot guard must surface it instead of serving mixed revisions.
	h.Graph().MustAddEdge("N9", "bus", "N1")
	if code := do(t, http.MethodPost, ts.URL+"/v1/graphs/demo/evaluate",
		EvaluateRequest{Query: "bus"}, nil); code != http.StatusBadRequest {
		t.Fatalf("evaluate on a mutated snapshot must fail, got %d", code)
	}
}

// waitSession polls the session until it reaches a terminal or awaiting
// status and returns the view.
func waitSession(t *testing.T, ts *httptest.Server, id string, until func(SessionView) bool) SessionView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var v SessionView
		if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil, &v); code != http.StatusOK {
			t.Fatalf("get session %s returned %d", id, code)
		}
		if until(v) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("session %s did not reach the expected state in time", id)
	return SessionView{}
}

func TestSimulatedSessionConvergesOverHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	loadFigure1(t, ts, "demo")

	var v SessionView
	code := do(t, http.MethodPost, ts.URL+"/v1/sessions", SessionConfig{
		Graph: "demo",
		Mode:  "simulated",
		Goal:  "(tram+bus)*.cinema",
	}, &v)
	if code != http.StatusCreated {
		t.Fatalf("create session returned %d", code)
	}
	v = waitSession(t, ts, v.ID, func(v SessionView) bool { return v.Status == StatusDone })
	if v.Halt != "user-satisfied" {
		t.Fatalf("simulated session halted with %q, error %q", v.Halt, v.Error)
	}
	var hyp struct {
		Learned string         `json:"learned"`
		Nodes   []graph.NodeID `json:"nodes"`
	}
	do(t, http.MethodGet, ts.URL+"/v1/sessions/"+v.ID+"/hypothesis", nil, &hyp)
	want := rpq.Evaluate(dataset.Figure1(), regex.MustParse("(tram+bus)*.cinema"))
	if fmt.Sprint(hyp.Nodes) != fmt.Sprint(want) {
		t.Fatalf("hypothesis answer set %v, want %v", hyp.Nodes, want)
	}
}

// TestManualSessionDrivenOverHTTP drives the full manual state machine: a
// client-side oracle answers every label/satisfied question through the
// API until the session converges.
func TestManualSessionDrivenOverHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	loadFigure1(t, ts, "demo")

	g := dataset.Figure1()
	goal := regex.MustParse("(tram+bus)*.cinema")
	oracle := rpq.New(g, goal)

	var v SessionView
	code := do(t, http.MethodPost, ts.URL+"/v1/sessions", SessionConfig{
		Graph: "demo",
		Mode:  "manual",
	}, &v)
	if code != http.StatusCreated {
		t.Fatalf("create session returned %d", code)
	}
	id := v.ID
	for i := 0; i < 200; i++ {
		v = waitSession(t, ts, id, func(v SessionView) bool {
			return v.Pending != nil || v.Status == StatusDone || v.Status == StatusFailed
		})
		if v.Status == StatusDone {
			break
		}
		if v.Status == StatusFailed {
			t.Fatalf("session failed: %s", v.Error)
		}
		var a Answer
		switch v.Pending.Kind {
		case "label":
			a.Seq = v.Pending.Seq
			if oracle.Selects(v.Pending.Node) {
				a.Decision = "positive"
			} else {
				a.Decision = "negative"
			}
		case "path":
			a.Seq = v.Pending.Seq
			a.Accept = true
		case "satisfied":
			learned := regex.MustParse(v.Pending.Learned)
			sat := rpq.New(g, learned).SameSelection(oracle)
			a.Seq = v.Pending.Seq
			a.Satisfied = &sat
		default:
			t.Fatalf("unexpected question kind %q", v.Pending.Kind)
		}
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/label", a, nil); code != http.StatusOK {
			t.Fatalf("answer returned %d for %+v", code, a)
		}
	}
	if v.Status != StatusDone || v.Halt != "user-satisfied" {
		t.Fatalf("manual session ended %q/%q, want done/user-satisfied", v.Status, v.Halt)
	}
	if !rpq.New(g, regex.MustParse(v.Learned)).SameSelection(oracle) {
		t.Fatalf("learned query %q does not match the goal's answer set", v.Learned)
	}
}

func TestAnswerValidation(t *testing.T) {
	_, ts := newTestServer(t)
	loadFigure1(t, ts, "demo")

	var v SessionView
	do(t, http.MethodPost, ts.URL+"/v1/sessions", SessionConfig{Graph: "demo", Mode: "manual"}, &v)
	v = waitSession(t, ts, v.ID, func(v SessionView) bool { return v.Pending != nil })
	if v.Pending.Kind != "label" {
		t.Fatalf("first question should be a label, got %q", v.Pending.Kind)
	}
	// Wrong kind of answer for the pending question: a malformed request,
	// not a state conflict.
	sat := true
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/"+v.ID+"/label",
		Answer{Satisfied: &sat}, nil); code != http.StatusBadRequest {
		t.Fatalf("mismatched answer must 400, got %d", code)
	}
	// Stale sequence number.
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/"+v.ID+"/label",
		Answer{Seq: v.Pending.Seq + 7, Decision: "negative"}, nil); code != http.StatusConflict {
		t.Fatalf("stale answer must 409, got %d", code)
	}
	// Canceling a session parked on a question must unblock it.
	if code := do(t, http.MethodDelete, ts.URL+"/v1/sessions/"+v.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete session returned %d", code)
	}
	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/"+v.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted session must 404, got %d", code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	loadFigure1(t, ts, "demo")
	do(t, http.MethodPost, ts.URL+"/v1/graphs/demo/evaluate", EvaluateRequest{Query: "bus"}, nil)
	do(t, http.MethodPost, ts.URL+"/v1/graphs/demo/evaluate", EvaluateRequest{Query: "bus"}, nil)

	var stats struct {
		EvalWorkers int                   `json:"eval_workers"`
		Graphs      []GraphInfo           `json:"graphs"`
		Sessions    map[SessionStatus]int `json:"sessions"`
	}
	if code := do(t, http.MethodGet, ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats returned %d", code)
	}
	if stats.EvalWorkers != 2 || len(stats.Graphs) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if c := stats.Graphs[0].Cache; c.Hits < 1 || c.Misses < 1 {
		t.Fatalf("repeated evaluate must hit the shared cache, stats %+v", c)
	}
}

func TestStatsBackpressureAndLatency(t *testing.T) {
	srv, ts := newTestServer(t)
	loadFigure1(t, ts, "demo")
	do(t, http.MethodPost, ts.URL+"/v1/graphs/demo/evaluate", EvaluateRequest{Query: "bus"}, nil)

	// A manual session parks on its first label question: one live loop
	// occupying one slot while waiting for a client — queue depth 1.
	var sess SessionView
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions", SessionConfig{Graph: "demo"}, &sess); code != http.StatusCreated {
		t.Fatalf("create session returned %d", code)
	}
	waitSession(t, ts, sess.ID, func(v SessionView) bool {
		return v.Pending != nil && v.Pending.Kind == "label"
	})

	var stats struct {
		Backpressure BackpressureStats      `json:"backpressure"`
		HTTP         map[string]LatencyView `json:"http"`
	}
	if code := do(t, http.MethodGet, ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats returned %d", code)
	}
	bp := stats.Backpressure
	if bp.LiveSessions != 1 || bp.QueueDepth != 1 {
		t.Fatalf("backpressure = %+v, want 1 live / 1 queued", bp)
	}
	if bp.MaxSessions != srv.opts.MaxSessions || bp.MaxSessions <= 0 {
		t.Fatalf("backpressure capacity = %d, want %d", bp.MaxSessions, srv.opts.MaxSessions)
	}
	for _, pattern := range []string{"PUT /v1/graphs/{name}", "POST /v1/graphs/{name}/evaluate", "POST /v1/sessions"} {
		view, ok := stats.HTTP[pattern]
		if !ok {
			t.Fatalf("stats http section lacks %q: %v", pattern, stats.HTTP)
		}
		if view.Count < 1 || view.P50Us <= 0 || view.P99Us < view.P50Us || view.MaxUs <= 0 {
			t.Fatalf("%q latency view implausible: %+v", pattern, view)
		}
		total := int64(0)
		for _, b := range view.Buckets {
			total += b.Count
		}
		if total != view.Count {
			t.Fatalf("%q bucket counts sum to %d, want %d", pattern, total, view.Count)
		}
	}
	// Un-routed endpoints are registered with zero counts and must not
	// fabricate latencies.
	if view, ok := stats.HTTP["DELETE /v1/graphs/{name}"]; !ok || view.Count != 0 || len(view.Buckets) != 0 {
		t.Fatalf("idle endpoint view = %+v, ok=%v", view, ok)
	}

	// Answering the question drains the bridge; once the session finishes,
	// the queue depth and live count drop to zero and the finished session
	// is retained.
	do(t, http.MethodDelete, ts.URL+"/v1/sessions/"+sess.ID, nil, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		bp = srv.Manager().Backpressure()
		if bp.LiveSessions == 0 && bp.QueueDepth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backpressure did not drain: %+v", bp)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
