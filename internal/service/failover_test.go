package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// newFollowerT starts a warm follower replicating from primaryURL into
// dir, serving over its own httptest server. The promoted engine (if
// promotion happens) is closed at cleanup.
func newFollowerT(t *testing.T, dir, primaryURL string) (*Follower, *httptest.Server) {
	t.Helper()
	var (
		mu  sync.Mutex
		eng *store.Engine
	)
	f, err := NewFollower(FollowerOptions{
		Dir:        dir,
		PrimaryURL: primaryURL,
		OpenEngine: func() (*store.Engine, error) {
			return store.OpenEngine(dir, store.EngineOptions{})
		},
		BuildServer: func(e *store.Engine) (*Server, error) {
			srv := NewServer(Options{CacheCapacity: 16, Store: e})
			if _, err := srv.Recover(); err != nil {
				return nil, err
			}
			mu.Lock()
			eng = e
			mu.Unlock()
			return srv, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		f.Close()
		mu.Lock()
		defer mu.Unlock()
		if eng != nil {
			eng.Close()
		}
	})
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	return f, ts
}

// waitFollowerCaughtUp polls the follower's replica until it is connected
// with zero frame lag.
func waitFollowerCaughtUp(t *testing.T, f *Follower) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := f.replica.Status()
		if st.Connected && st.AppliedFrames > 0 && st.LagFrames == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower never caught up: %+v", f.replica.Status())
}

// TestFollowerPromoteAdoptsReplicatedSessions replicates a live primary
// with an in-flight manual session into a standby, promotes the standby
// over HTTP, and drives the same session to completion on the promoted
// server — the end-to-end path a failover takes.
func TestFollowerPromoteAdoptsReplicatedSessions(t *testing.T) {
	primaryDir, followerDir := t.TempDir(), t.TempDir()
	_, tsA := newDurableServer(t, primaryDir)
	loadFigure1(t, tsA, "demo")

	var v SessionView
	if code := do(t, http.MethodPost, tsA.URL+"/v1/sessions",
		SessionConfig{Graph: "demo", Mode: "manual"}, &v); code != http.StatusCreated {
		t.Fatalf("create returned %d", code)
	}
	waitSession(t, tsA, v.ID, func(v SessionView) bool { return v.Pending != nil })
	if code := do(t, http.MethodPost, tsA.URL+"/v1/sessions/"+v.ID+"/label",
		Answer{Decision: "positive"}, nil); code != http.StatusOK {
		t.Fatalf("label returned %d", code)
	}

	f, tsB := newFollowerT(t, followerDir, tsA.URL)

	// The standby refuses real work with a typed not_primary pointing at
	// its feed source, and reports its role on the status endpoint. (No
	// wantEnvelope: the standby mux runs outside the instrument
	// middleware, so its envelopes carry no request id.)
	var env errorEnvelope
	if code := do(t, http.MethodPost, tsB.URL+"/v1/sessions",
		SessionConfig{Graph: "demo", Mode: "manual"}, &env); code != http.StatusServiceUnavailable {
		t.Fatalf("standby session create = %d, want 503", code)
	}
	if env.Error.Code != CodeNotPrimary {
		t.Fatalf("standby error code = %q, want %q", env.Error.Code, CodeNotPrimary)
	}
	var rst ReplicationStatus
	if code := do(t, http.MethodGet, tsB.URL+"/v1/replication/status", nil, &rst); code != http.StatusOK {
		t.Fatalf("replication status returned %d", code)
	}
	if rst.Role != "follower" || rst.PrimaryURL != tsA.URL {
		t.Fatalf("standby status = %+v", rst)
	}

	waitFollowerCaughtUp(t, f)

	if code := do(t, http.MethodPost, tsB.URL+"/v1/admin/promote", nil, &rst); code != http.StatusOK {
		t.Fatalf("promote returned %d", code)
	}
	if rst.Role != "primary" || rst.Epoch == 0 {
		t.Fatalf("promoted status = %+v", rst)
	}
	// Idempotent: a second promote confirms rather than re-promotes.
	if code := do(t, http.MethodPost, tsB.URL+"/v1/admin/promote", nil, &rst); code != http.StatusOK || rst.Role != "primary" {
		t.Fatalf("re-promote = %d %+v", code, rst)
	}

	// The replicated session carries its label history and keeps going on
	// the new primary.
	got := waitSession(t, tsB, v.ID, func(v SessionView) bool { return v.Pending != nil })
	if got.Labels != 1 {
		t.Fatalf("adopted session lost labels: %+v", got)
	}
	for got.Status == StatusRunning && got.Pending != nil && got.Pending.Kind != "satisfied" {
		if code := do(t, http.MethodPost, tsB.URL+"/v1/sessions/"+v.ID+"/label",
			Answer{Decision: "negative"}, nil); code != http.StatusOK {
			t.Fatalf("post-promotion label returned %d", code)
		}
		got = waitSession(t, tsB, v.ID, func(v SessionView) bool { return v.Pending != nil || v.Status != StatusRunning })
	}
}

// TestFenceLatchPersistsAcrossRestart pins the fencing contract: a
// request revealing a successor epoch latches the fence and is refused,
// the latch is persisted in the data directory, and a restarted daemon
// stays fenced — refusing writes while still serving reads.
func TestFenceLatchPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	eng, err := store.OpenEngine(dir, store.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{CacheCapacity: 16, Store: eng})
	ts := newHTTPServer(t, srv)
	loadFigure1(t, ts, "demo")

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/admin/compact", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(EpochHeader, "7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write with successor epoch = %d, want 503", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, "FENCED")); err != nil {
		t.Fatalf("fence latch was not persisted: %v", err)
	}
	// Reads stay available on a fenced daemon.
	if code := do(t, http.MethodGet, ts.URL+"/v1/graphs", nil, nil); code != http.StatusOK {
		t.Fatalf("fenced read returned %d", code)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directory: no epoch header anywhere, yet the
	// daemon boots fenced.
	eng2, err := store.OpenEngine(dir, store.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	srv2 := NewServer(Options{CacheCapacity: 16, Store: eng2})
	ts2 := newHTTPServer(t, srv2)
	var rst ReplicationStatus
	if code := do(t, http.MethodGet, ts2.URL+"/v1/replication/status", nil, &rst); code != http.StatusOK || !rst.Fenced {
		t.Fatalf("restarted daemon is not fenced: %d %+v", code, rst)
	}
	wantEnvelope(t, http.MethodPost, ts2.URL+"/v1/admin/compact", "", nil,
		http.StatusServiceUnavailable, CodeFenced)
	if code := do(t, http.MethodGet, ts2.URL+"/v1/graphs", nil, nil); code != http.StatusOK {
		t.Fatalf("fenced read after restart returned %d", code)
	}
}

// TestKeyringReloadRacesInflightRequests hammers authenticated endpoints
// while the keyring is hot-swapped concurrently — the SIGHUP reload path.
// Every response must be a clean 200 or 401; the swap must never tear a
// request into a 5xx or a panic, and the final configuration must win.
func TestKeyringReloadRacesInflightRequests(t *testing.T) {
	kr := NewKeyring(KeyringConfig{
		Tenants: map[string]TenantLimits{"acme": {MaxSessions: 8, MaxGraphs: 8}},
		Keys:    map[string]string{"sk-0": "acme"},
	})
	srv := NewServer(Options{CacheCapacity: 16, Keyring: kr})
	ts := newHTTPServer(t, srv)
	if code := doKey(t, http.MethodPut, ts.URL+"/v1/graphs/demo", "sk-0",
		LoadSpec{Dataset: DatasetSpec{Kind: "figure1"}}, nil); code != http.StatusCreated {
		t.Fatalf("seed graph load returned %d", code)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("sk-%d", w%2)
			for {
				select {
				case <-stop:
					return
				default:
				}
				req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/graphs", nil)
				if err != nil {
					continue
				}
				req.Header.Set("Authorization", "Bearer "+key)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnauthorized {
					select {
					case errs <- fmt.Sprintf("key %s got %d", key, resp.StatusCode):
					default:
					}
				}
			}
		}(w)
	}
	// The reloader: alternate between two disjoint key sets, as fast as
	// the in-flight requests allow.
	for i := 0; i < 200; i++ {
		kr.Set(KeyringConfig{
			Tenants: map[string]TenantLimits{"acme": {MaxSessions: 8, MaxGraphs: 8}},
			Keys:    map[string]string{fmt.Sprintf("sk-%d", i%2): "acme"},
		})
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatalf("reload tore a request: %s", msg)
	default:
	}

	// The last swap installed sk-1; the contract after the dust settles.
	if code := doKey(t, http.MethodGet, ts.URL+"/v1/graphs", "sk-1", nil, nil); code != http.StatusOK {
		t.Fatalf("final valid key returned %d", code)
	}
	wantEnvelope(t, http.MethodGet, ts.URL+"/v1/graphs", "sk-0", nil,
		http.StatusUnauthorized, CodeUnauthorized)
}
