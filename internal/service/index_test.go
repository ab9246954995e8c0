package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/regex"
	"repro/internal/rpq"
)

// waitIndexReady polls the handle until its background index build lands.
func waitIndexReady(t *testing.T, h *GraphHandle) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if h.Index() != nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("graph %q: index not ready after 10s (state %s)", h.Name(), h.indexInfo().State)
}

// TestIndexBuiltOnRegister checks that registering a graph kicks off the
// background index build and that indexed evaluation through the handle's
// cache answers queries.
func TestIndexBuiltOnRegister(t *testing.T) {
	srv := NewServer(Options{CacheCapacity: 16})
	h, err := srv.Registry().Register("fig1", dataset.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	waitIndexReady(t, h)
	info := h.indexInfo()
	if info.State != "ready" || info.Stats == nil || info.Stats.Bytes <= 0 {
		t.Fatalf("indexInfo = %+v, want ready with stats", info)
	}
	e, err := h.Engine("(tram+bus)*.cinema")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Selected()) == 0 {
		t.Fatal("indexed evaluation selected nothing on figure1")
	}
}

// TestIndexOptOutAndDisable checks both opt-out paths: per-registration
// NoIndex and the service-wide DisableIndex option.
func TestIndexOptOutAndDisable(t *testing.T) {
	srv := NewServer(Options{CacheCapacity: 16})
	h, err := srv.Registry().RegisterForWith(TenantInfo{Name: DefaultTenant}, "noidx", dataset.Figure1(), RegisterOptions{NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.indexInfo().State; got != "disabled" {
		t.Fatalf("NoIndex graph state = %q, want disabled", got)
	}
	if h.Index() != nil {
		t.Fatal("NoIndex graph returned an index")
	}

	srvOff := NewServer(Options{CacheCapacity: 16, DisableIndex: true})
	h2, err := srvOff.Registry().Register("fig1", dataset.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	if got := h2.indexInfo().State; got != "disabled" {
		t.Fatalf("DisableIndex graph state = %q, want disabled", got)
	}
	// Evaluation must still work without an index.
	e, err := h2.Engine("(tram+bus)*.cinema")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Selected()) == 0 {
		t.Fatal("unindexed evaluation selected nothing on figure1")
	}
}

// TestIndexRebuiltOnReRegister checks that replacing a name re-registers a
// fresh handle whose index is rebuilt against the new graph — the old
// handle's index must not leak onto the new one.
func TestIndexRebuiltOnReRegister(t *testing.T) {
	srv := NewServer(Options{CacheCapacity: 16})
	reg := srv.Registry()
	h1, err := reg.Register("g", dataset.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	waitIndexReady(t, h1)

	g2 := dataset.Transport(dataset.TransportOptions{Rows: 6, Cols: 6, Seed: 1, FacilityRate: 0.4})
	h2, err := reg.Register("g", g2)
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h1 {
		t.Fatal("re-registration returned the old handle")
	}
	waitIndexReady(t, h2)
	if h2.Index() == h1.Index() {
		t.Fatal("new handle shares the old graph's index")
	}
	q := "(tram+bus)*.cinema"
	e, err := h2.Engine(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Selected(), rpq.New(g2, regex.MustParse(q)).Selected(); !slices.Equal(got, want) {
		t.Fatalf("indexed evaluation on the new graph selects %v, want %v", got, want)
	}
	// The replaced handle keeps its own graph and index.
	if h1.Index() == nil {
		t.Fatal("old handle's index was disturbed by re-registration")
	}
}

// TestIndexRebuiltAfterRecovery checks that crash recovery rebuilds every
// restored graph's index from the recovered snapshot instead of trusting
// (nonexistent) persisted index bytes.
func TestIndexRebuiltAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	srvA := NewServer(Options{CacheCapacity: 16, Store: openEngine(t, dir)})
	hA, err := srvA.Registry().Register("fig1", dataset.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	waitIndexReady(t, hA)

	// "Crash": open a fresh server over the same directory and recover.
	srvB := NewServer(Options{CacheCapacity: 16, Store: openEngine(t, dir)})
	rep, err := srvB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Graphs != 1 {
		t.Fatalf("recovered %d graphs, want 1", rep.Graphs)
	}
	hB, ok := srvB.Registry().Get("fig1")
	if !ok {
		t.Fatal("recovered graph not registered")
	}
	waitIndexReady(t, hB)
	if hB.Index() == hA.Index() {
		t.Fatal("recovery reused the pre-crash index object")
	}
	e, err := hB.Engine("(tram+bus)*.cinema")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Selected()) == 0 {
		t.Fatal("indexed evaluation selected nothing after recovery")
	}
}

// TestTruncatedEvaluateIndexAndNoIndex pins the truncated /evaluate answer
// on an indexed and a no_index graph: limit 16 sends the full count and
// exactly the first 16 nodes of the unlimited answer, a zero answer
// still encodes "nodes":[], and the unlimited body, cold and warm, splices
// in exactly encoding/json's encoding of the engine's Selected().
func TestTruncatedEvaluateIndexAndNoIndex(t *testing.T) {
	srv, ts := newTestServer(t)
	for _, noIndex := range []bool{false, true} {
		name := "indexed"
		if noIndex {
			name = "noindex"
		}
		g := dataset.Transport(dataset.TransportOptions{Rows: 30, Cols: 30, Seed: 1, FacilityRate: 0.3})
		h, err := srv.Registry().RegisterForWith(TenantInfo{Name: DefaultTenant}, name, g, RegisterOptions{NoIndex: noIndex})
		if err != nil {
			t.Fatal(err)
		}
		if !noIndex {
			waitIndexReady(t, h)
		}
		url := ts.URL + "/v1/graphs/" + name + "/evaluate"
		for _, query := range []string{"(tram+bus)*.cinema", "tram*.bus.(museum+park)"} {
			e := rpq.New(g, regex.MustParse(query))
			if e.NumSelected() <= 16 {
				t.Fatalf("%s: %s selects %d nodes, want a large answer", name, query, e.NumSelected())
			}
			var limited, full EvaluateResult
			if code := do(t, http.MethodPost, url, EvaluateRequest{Query: query, Limit: 16}, &limited); code != http.StatusOK {
				t.Fatalf("%s: limited %s answered %d", name, query, code)
			}
			wantNodes, _ := json.Marshal(e.Selected())
			for _, pass := range []string{"cold", "warm"} {
				code, body := doRaw(t, http.MethodPost, url, EvaluateRequest{Query: query})
				if code != http.StatusOK || !bytes.Contains(body, append(append([]byte(`"nodes":`), wantNodes...), '}')) {
					t.Fatalf("%s: %s unlimited body (%s) is not json.Marshal(Selected()): %s", name, query, pass, body)
				}
				if err := json.Unmarshal(body, &full); err != nil {
					t.Fatal(err)
				}
			}
			if limited.Count != full.Count || full.Count != e.NumSelected() || !slices.Equal(limited.Nodes, full.Nodes[:16]) {
				t.Fatalf("%s: %s limit 16 = count %d, %v; unlimited count %d, first 16 %v", name, query, limited.Count, limited.Nodes, full.Count, full.Nodes[:16])
			}
		}
		code, body := doRaw(t, http.MethodPost, url, EvaluateRequest{Query: "metro.cinema", Limit: 16})
		if code != http.StatusOK || !bytes.Contains(body, []byte(`"count":0,`)) || !bytes.Contains(body, []byte(`"nodes":[]`)) {
			t.Fatalf("%s: a zero answer must encode \"nodes\":[]: code %d, %s", name, code, body)
		}
	}
}
