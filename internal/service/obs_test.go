package service

// Integration test of the /metrics exposition: a durable server is driven
// through real traffic (graph load, cached evaluations, one simulated
// learning session to convergence), then the scrape must present every
// telemetry surface — store counters, cache stats, backpressure gauges,
// request-latency histograms and the session-trace histograms.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/regex"
	"repro/internal/rpq"
	"repro/internal/store"
)

// scrapeMetrics fetches /metrics and returns the body after checking the
// exposition content type.
func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	return string(data)
}

// metricValue returns the value of the first sample line starting with
// prefix, failing the test if no such sample exists.
func metricValue(t *testing.T, body, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("no sample with prefix %q in scrape:\n%s", prefix, body)
	return 0
}

// driveManualSession runs one manual session on the "demo" graph to
// convergence, answering every question over HTTP with an rpq oracle for
// the paper's goal query.
func driveManualSession(t *testing.T, ts *httptest.Server) {
	t.Helper()
	g := dataset.Figure1()
	oracle := rpq.New(g, regex.MustParse("(tram+bus)*.cinema"))
	var v SessionView
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions", SessionConfig{
		Graph: "demo", Mode: "manual",
	}, &v); code != http.StatusCreated {
		t.Fatalf("create manual session returned %d", code)
	}
	id := v.ID
	for i := 0; i < 200; i++ {
		v = waitSession(t, ts, id, func(v SessionView) bool {
			return v.Pending != nil || v.Status == StatusDone || v.Status == StatusFailed
		})
		if v.Status == StatusDone {
			return
		}
		if v.Status == StatusFailed {
			t.Fatalf("manual session failed: %s", v.Error)
		}
		a := Answer{Seq: v.Pending.Seq}
		switch v.Pending.Kind {
		case "label":
			if oracle.Selects(v.Pending.Node) {
				a.Decision = "positive"
			} else {
				a.Decision = "negative"
			}
		case "path":
			a.Accept = true
		case "satisfied":
			sat := rpq.New(g, regex.MustParse(v.Pending.Learned)).SameSelection(oracle)
			a.Satisfied = &sat
		}
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/label", a, nil); code != http.StatusOK {
			t.Fatalf("answer returned %d for %+v", code, a)
		}
	}
	t.Fatalf("manual session did not converge")
}

func TestMetricsEndpointCoversAllSurfaces(t *testing.T) {
	eng, err := store.OpenEngine(t.TempDir(), store.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := NewServer(Options{CacheCapacity: 64, Store: eng})
	ts := newHTTPServer(t, srv)
	loadFigure1(t, ts, "demo")

	// Same query twice: one cache miss, one hit.
	do(t, http.MethodPost, ts.URL+"/v1/graphs/demo/evaluate", EvaluateRequest{Query: "bus"}, nil)
	do(t, http.MethodPost, ts.URL+"/v1/graphs/demo/evaluate", EvaluateRequest{Query: "bus"}, nil)

	var v SessionView
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions", SessionConfig{
		Graph: "demo", Mode: "simulated", Goal: "(tram+bus)*.cinema",
	}, &v); code != http.StatusCreated {
		t.Fatalf("create session returned %d", code)
	}
	waitSession(t, ts, v.ID, func(v SessionView) bool { return v.Status == StatusDone })

	// A manual session exercises the publish→answer path that feeds the
	// question-wait histogram (the simulated oracle answers in-process,
	// without publishing).
	driveManualSession(t, ts)

	body := scrapeMetrics(t, ts.URL)

	// Store engine counters, labelled with the engine name.
	if n := metricValue(t, body, `gpsd_store_journal_appends_total{engine="binary"}`); n < 1 {
		t.Fatalf("journal appends = %v after a journaled session, want >= 1", n)
	}
	if n := metricValue(t, body, `gpsd_store_corrupt_frames_total`); n != 0 {
		t.Fatalf("corrupt frames = %v on a healthy store, want 0", n)
	}

	// Cache stats, one child per graph.
	if hits := metricValue(t, body, `gpsd_cache_hits_total{graph="demo"}`); hits < 1 {
		t.Fatalf("cache hits = %v after a repeated evaluate, want >= 1", hits)
	}
	metricValue(t, body, `gpsd_cache_misses_total{graph="demo"}`)

	// Backpressure gauges.
	metricValue(t, body, `gpsd_sessions_live`)
	if n := metricValue(t, body, `gpsd_sessions_finished_retained`); n < 1 {
		t.Fatalf("finished retained = %v after a done session, want >= 1", n)
	}

	// Request-latency histogram: cumulative buckets ending at +Inf == _count.
	endpoint := `gpsd_http_request_duration_seconds_bucket{endpoint="POST /v1/graphs/{name}/evaluate",le="+Inf"}`
	inf := metricValue(t, body, endpoint)
	count := metricValue(t, body, `gpsd_http_request_duration_seconds_count{endpoint="POST /v1/graphs/{name}/evaluate"}`)
	if inf != count || count < 2 {
		t.Fatalf("+Inf bucket = %v, _count = %v, want equal and >= 2", inf, count)
	}
	if n := metricValue(t, body, `gpsd_http_requests_total{code="200",endpoint="POST /v1/graphs/{name}/evaluate"}`); n < 2 {
		t.Fatalf("request counter = %v, want >= 2", n)
	}

	// Session-trace histograms populated by the simulated session.
	if n := metricValue(t, body, `gpsd_session_learn_phase_seconds_count{phase="generalize"}`); n < 1 {
		t.Fatalf("learn-phase generalize count = %v, want >= 1", n)
	}
	if n := metricValue(t, body, `gpsd_session_question_wait_seconds_count{kind="satisfied"}`); n < 1 {
		t.Fatalf("question-wait satisfied count = %v, want >= 1", n)
	}

	// Every family block must be well-formed: TYPE before samples, one
	// block per family.
	typed := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if typed[parts[2]] {
				t.Fatalf("family %s has two TYPE lines", parts[2])
			}
			typed[parts[2]] = true
		}
	}
	for _, fam := range []string{"gpsd_uptime_seconds", "gpsd_graphs_registered", "gpsd_sessions_queue_depth", "gpsd_session_replay_seconds"} {
		if !typed[fam] {
			t.Fatalf("family %s missing from the scrape", fam)
		}
	}

	// POST to /metrics is rejected: the endpoint is scrape-only.
	resp, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /metrics returned %d, want 405 or 404", resp.StatusCode)
	}
}
