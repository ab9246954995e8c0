package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

func newTestServer(t *testing.T, opts service.Options) (*service.Server, *httptest.Server) {
	t.Helper()
	if opts.CacheCapacity == 0 {
		opts.CacheCapacity = 16
	}
	srv := service.NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// figure1 is the paper's running-example graph, loaded through the client
// itself so LoadGraph gets covered too.
func loadFigure1(t *testing.T, c *Client, name string) {
	t.Helper()
	if _, err := c.LoadGraph(context.Background(), name, service.LoadSpec{Dataset: service.DatasetSpec{Kind: "figure1"}}); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
}

// TestClientRoundTrip drives the whole typed surface — graphs, evaluate,
// session lifecycle, events, hypothesis, stats, metrics — against a real
// server.
func TestClientRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, service.Options{})
	c := New(ts.URL)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("Health: %v", err)
	}
	loadFigure1(t, c, "demo")

	gi, err := c.Graph(ctx, "demo")
	if err != nil || gi.Name != "demo" {
		t.Fatalf("Graph = %+v, %v", gi, err)
	}
	graphs, err := c.Graphs(ctx)
	if err != nil || len(graphs) != 1 {
		t.Fatalf("Graphs = %+v, %v", graphs, err)
	}

	eval, err := c.Evaluate(ctx, "demo", EvaluateRequest{Query: "(tram+bus)*.cinema", Witnesses: true})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if eval.Count != 4 || len(eval.Witnesses) != 4 {
		t.Fatalf("Evaluate = %+v, want count 4 with 4 witnesses", eval)
	}

	v, err := c.CreateSession(ctx, service.SessionConfig{Graph: "demo", Mode: "simulated", Goal: "(tram+bus)*.cinema"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for v.Status != service.StatusDone {
		if time.Now().After(deadline) {
			t.Fatalf("session stuck at %+v", v)
		}
		time.Sleep(5 * time.Millisecond)
		if v, err = c.Session(ctx, v.ID); err != nil {
			t.Fatalf("Session: %v", err)
		}
	}

	stream, err := c.Events(ctx, v.ID, 0)
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	defer stream.Close()
	var types []string
	for {
		ev, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		types = append(types, ev.Type)
	}
	if len(types) == 0 || types[0] != "create" || !(Event{Type: types[len(types)-1]}).Terminal() {
		t.Fatalf("event stream = %v, want create..done/failed", types)
	}

	hyp, err := c.Hypothesis(ctx, v.ID, "")
	if err != nil || hyp.Learned == "" {
		t.Fatalf("Hypothesis = %+v, %v", hyp, err)
	}

	sessions, err := c.Sessions(ctx, SessionFilter{State: string(service.StatusDone), Graph: "demo"})
	if err != nil || len(sessions) != 1 {
		t.Fatalf("Sessions = %+v, %v", sessions, err)
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if len(metrics) == 0 {
		t.Fatal("Metrics returned an empty exposition")
	}
	if err := c.DeleteSession(ctx, v.ID); err != nil {
		t.Fatalf("DeleteSession: %v", err)
	}
	if err := c.DeleteGraph(ctx, "demo"); err != nil {
		t.Fatalf("DeleteGraph: %v", err)
	}
}

// TestClientTypedErrors pins the envelope decoding: wire errors surface as
// *APIError with the stable code, the HTTP status and a request id.
func TestClientTypedErrors(t *testing.T) {
	_, ts := newTestServer(t, service.Options{})
	c := New(ts.URL)
	ctx := context.Background()

	_, err := c.Session(ctx, "nope")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("Session(nope) error = %v, want *APIError", err)
	}
	if ae.Status != 404 || ae.Code != service.CodeSessionNotFound || ae.RequestID == "" {
		t.Fatalf("APIError = %+v, want 404 session_not_found with a request id", ae)
	}
	if !IsCode(err, service.CodeSessionNotFound) || CodeOf(err) != service.CodeSessionNotFound {
		t.Fatalf("IsCode/CodeOf disagree on %v", err)
	}
	if !IsCode(fmt.Errorf("wrapped: %w", err), service.CodeSessionNotFound) {
		t.Fatal("IsCode does not unwrap")
	}
	if IsCode(nil, service.CodeSessionNotFound) || CodeOf(context.Canceled) != "" {
		t.Fatal("IsCode/CodeOf misfire on non-API errors")
	}

	if _, err := c.Graph(ctx, "missing"); !IsCode(err, service.CodeGraphNotFound) {
		t.Fatalf("Graph(missing) = %v, want graph_not_found", err)
	}
}

// TestClientAPIKey pins the auth path: against a keyring-armed server an
// unkeyed client gets 401 unauthorized, a keyed one works and its sessions
// land on its tenant.
func TestClientAPIKey(t *testing.T) {
	kr := service.NewKeyring(service.KeyringConfig{
		Tenants: map[string]service.TenantLimits{"acme": {MaxSessions: 4, MaxGraphs: 4}},
		Keys:    map[string]string{"sk-acme": "acme"},
	})
	_, ts := newTestServer(t, service.Options{Keyring: kr})
	ctx := context.Background()

	if err := New(ts.URL).Health(ctx); err != nil {
		t.Fatalf("Health must stay auth-exempt: %v", err)
	}
	if _, err := New(ts.URL).Graphs(ctx); !IsCode(err, service.CodeUnauthorized) {
		t.Fatalf("unkeyed Graphs = %v, want unauthorized", err)
	}
	if _, err := New(ts.URL, WithAPIKey("sk-wrong")).Graphs(ctx); !IsCode(err, service.CodeUnauthorized) {
		t.Fatalf("wrong-key Graphs = %v, want unauthorized", err)
	}

	c := New(ts.URL, WithAPIKey("sk-acme"))
	loadFigure1(t, c, "demo")
	v, err := c.CreateSession(ctx, service.SessionConfig{Graph: "demo", Mode: "simulated", Goal: "(tram+bus)*.cinema"})
	if err != nil {
		t.Fatalf("keyed CreateSession: %v", err)
	}
	if v.Tenant != "acme" {
		t.Fatalf("session tenant = %q, want acme", v.Tenant)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if want := `gpsd_tenant_admissions_total{tenant="acme"} 1`; !strings.Contains(metrics, "\n"+want+"\n") {
		t.Fatalf("scrape lacks %q:\n%s", want, metrics)
	}
}

// TestClientPagination pins the cursor walk: pages are disjoint, ordered
// and complete, and the final page carries no cursor.
func TestClientPagination(t *testing.T) {
	_, ts := newTestServer(t, service.Options{})
	c := New(ts.URL)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		loadFigure1(t, c, fmt.Sprintf("g%d", i))
	}
	var names []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 5 {
			t.Fatal("cursor walk did not terminate")
		}
		p, err := c.GraphsPage(ctx, 2, cursor)
		if err != nil {
			t.Fatalf("GraphsPage: %v", err)
		}
		for _, g := range p.Graphs {
			names = append(names, g.Name)
		}
		if p.NextCursor == "" {
			break
		}
		if len(p.Graphs) != 2 {
			t.Fatalf("non-final page has %d graphs, want 2", len(p.Graphs))
		}
		cursor = p.NextCursor
	}
	if len(names) != 5 {
		t.Fatalf("paged walk saw %v, want 5 distinct graphs", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatalf("paged walk out of order: %v", names)
		}
	}
}
