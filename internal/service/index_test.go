package service

import (
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/store"
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
// background index build, that the ready index matches the graph version,
// and that indexed evaluation through the handle's cache answers queries.
func TestIndexBuiltOnRegister(t *testing.T) {
	srv := NewServer(Options{EvalWorkers: 1, CacheCapacity: 16})
	h, err := srv.Registry().Register("fig1", dataset.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	waitIndexReady(t, h)
	idx := h.Index()
	if idx.View().Version() != h.Version() {
		t.Fatalf("index version %d, handle version %d", idx.View().Version(), h.Version())
	}
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
	srv := NewServer(Options{EvalWorkers: 1, CacheCapacity: 16})
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

	srvOff := NewServer(Options{EvalWorkers: 1, CacheCapacity: 16, DisableIndex: true})
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
// fresh handle whose index is rebuilt against the new graph's version —
// the old handle's index must not leak onto the new snapshot.
func TestIndexRebuiltOnReRegister(t *testing.T) {
	srv := NewServer(Options{EvalWorkers: 1, CacheCapacity: 16})
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
	if got, want := h2.Index().View().Version(), g2.Version(); got != want {
		t.Fatalf("rebuilt index version %d, want %d", got, want)
	}
	// The replaced handle keeps its own snapshot and index.
	if h1.Index() == nil || h1.Index().View().Version() != h1.Version() {
		t.Fatal("old handle's index was disturbed by re-registration")
	}
}

// TestIndexRebuiltAfterRecovery checks that crash recovery rebuilds every
// restored graph's index from the recovered snapshot instead of trusting
// (nonexistent) persisted index bytes.
func TestIndexRebuiltAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srvA := NewServer(Options{EvalWorkers: 1, CacheCapacity: 16, Store: st})
	hA, err := srvA.Registry().Register("fig1", dataset.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	waitIndexReady(t, hA)

	// "Crash": open a fresh server over the same directory and recover.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srvB := NewServer(Options{EvalWorkers: 1, CacheCapacity: 16, Store: st2})
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
	if got, want := hB.Index().View().Version(), hB.Version(); got != want {
		t.Fatalf("recovered index version %d, want handle version %d", got, want)
	}
	e, err := hB.Engine("(tram+bus)*.cinema")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Selected()) == 0 {
		t.Fatal("indexed evaluation selected nothing after recovery")
	}
}
