package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// doKey is do() with an API key on the request.
func doKey(t *testing.T, method, url, key string, body any, out any) int {
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
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
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
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// wantEnvelope asserts that a request answers with the given status and
// stable error code (the code, not the message text, is the contract).
func wantEnvelope(t *testing.T, method, url, key string, body any, status int, code ErrorCode) {
	t.Helper()
	var env errorEnvelope
	if got := doKey(t, method, url, key, body, &env); got != status {
		t.Fatalf("%s %s = %d, want %d", method, url, got, status)
	}
	if env.Error.Code != code {
		t.Fatalf("%s %s error code = %q, want %q", method, url, env.Error.Code, code)
	}
	if env.Error.RequestID == "" {
		t.Fatalf("%s %s envelope carries no request id", method, url)
	}
}

// TestAPIKeyAuthAndHotReload pins the keyring contract: missing and
// unknown keys get 401 unauthorized (while /healthz stays exempt), a
// valid key resolves to its tenant, and a hot swap of the keyring — what
// gpsd's SIGHUP handler does — revokes old keys and mints new ones
// without a restart.
func TestAPIKeyAuthAndHotReload(t *testing.T) {
	kr := NewKeyring(KeyringConfig{
		Tenants: map[string]TenantLimits{"acme": {MaxSessions: 4, MaxGraphs: 4}},
		Keys:    map[string]string{"sk-old": "acme"},
	})
	srv := NewServer(Options{EvalWorkers: 1, CacheCapacity: 16, Keyring: kr})
	ts := newHTTPServer(t, srv)

	if code := do(t, http.MethodGet, ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz must stay auth-exempt, got %d", code)
	}
	wantEnvelope(t, http.MethodGet, ts.URL+"/v1/graphs", "", nil, http.StatusUnauthorized, CodeUnauthorized)
	wantEnvelope(t, http.MethodGet, ts.URL+"/v1/graphs", "sk-wrong", nil, http.StatusUnauthorized, CodeUnauthorized)

	if code := doKey(t, http.MethodPut, ts.URL+"/v1/graphs/demo", "sk-old",
		LoadSpec{Dataset: DatasetSpec{Kind: "figure1"}}, nil); code != http.StatusCreated {
		t.Fatalf("keyed graph load returned %d", code)
	}
	var v SessionView
	if code := doKey(t, http.MethodPost, ts.URL+"/v1/sessions", "sk-old",
		SessionConfig{Graph: "demo", Mode: "manual"}, &v); code != http.StatusCreated {
		t.Fatalf("keyed session create returned %d", code)
	}
	if v.Tenant != "acme" {
		t.Fatalf("session tenant = %q, want acme", v.Tenant)
	}

	// Hot reload: sk-old is revoked, sk-new minted, limits unchanged.
	kr.Set(KeyringConfig{
		Tenants: map[string]TenantLimits{"acme": {MaxSessions: 4, MaxGraphs: 4}},
		Keys:    map[string]string{"sk-new": "acme"},
	})
	wantEnvelope(t, http.MethodGet, ts.URL+"/v1/graphs", "sk-old", nil, http.StatusUnauthorized, CodeUnauthorized)
	if code := doKey(t, http.MethodGet, ts.URL+"/v1/sessions/"+v.ID, "sk-new", nil, nil); code != http.StatusOK {
		t.Fatalf("new key after reload returned %d", code)
	}
}

// TestTenantQuotaOffByOne pins both quota boundaries exactly: a tenant at
// its cap minus one still admits, the request past the cap is rejected
// with 429 quota_exceeded (and a Retry-After), and freeing capacity
// re-opens admission.
func TestTenantQuotaOffByOne(t *testing.T) {
	kr := NewKeyring(KeyringConfig{
		Tenants: map[string]TenantLimits{"acme": {MaxSessions: 2, MaxGraphs: 2}},
		Keys:    map[string]string{"sk-acme": "acme"},
	})
	srv := NewServer(Options{EvalWorkers: 1, CacheCapacity: 16, Keyring: kr})
	ts := newHTTPServer(t, srv)

	// Graphs: 2 of 2 register, the third answers quota_exceeded.
	for _, name := range []string{"g1", "g2"} {
		if code := doKey(t, http.MethodPut, ts.URL+"/v1/graphs/"+name, "sk-acme",
			LoadSpec{Dataset: DatasetSpec{Kind: "figure1"}}, nil); code != http.StatusCreated {
			t.Fatalf("graph %s at-limit load returned %d, want 201", name, code)
		}
	}
	wantEnvelope(t, http.MethodPut, ts.URL+"/v1/graphs/g3", "sk-acme",
		LoadSpec{Dataset: DatasetSpec{Kind: "figure1"}}, http.StatusTooManyRequests, CodeQuotaExceeded)
	// Dropping one graph frees the slot.
	if code := doKey(t, http.MethodDelete, ts.URL+"/v1/graphs/g2", "sk-acme", nil, nil); code != http.StatusOK {
		t.Fatal("delete g2 failed")
	}
	if code := doKey(t, http.MethodPut, ts.URL+"/v1/graphs/g3", "sk-acme",
		LoadSpec{Dataset: DatasetSpec{Kind: "figure1"}}, nil); code != http.StatusCreated {
		t.Fatalf("graph load after freeing quota returned %d, want 201", code)
	}

	// Sessions: 2 of 2 admit (manual sessions park and stay live), the
	// third answers quota_exceeded with a Retry-After hint.
	ids := make([]string, 0, 2)
	for i := 0; i < 2; i++ {
		var v SessionView
		if code := doKey(t, http.MethodPost, ts.URL+"/v1/sessions", "sk-acme",
			SessionConfig{Graph: "g1", Mode: "manual"}, &v); code != http.StatusCreated {
			t.Fatalf("at-limit session create %d returned %d, want 201", i, code)
		}
		ids = append(ids, v.ID)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions",
		bytes.NewReader([]byte(`{"graph":"g1","mode":"manual"}`)))
	req.Header.Set("Authorization", "Bearer sk-acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota create returned %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("over-quota rejection carries no Retry-After")
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != CodeQuotaExceeded {
		t.Fatalf("over-quota envelope = %+v (%v), want code quota_exceeded", env, err)
	}

	// Deleting a live session returns its slot; the live counter drops as
	// soon as the learning goroutine exits, so poll briefly.
	if code := doKey(t, http.MethodDelete, ts.URL+"/v1/sessions/"+ids[0], "sk-acme", nil, nil); code != http.StatusOK {
		t.Fatal("delete session failed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		// No decode target: while the slot is still held the reply is a 429
		// error envelope, so only the status code is meaningful.
		code := doKey(t, http.MethodPost, ts.URL+"/v1/sessions", "sk-acme",
			SessionConfig{Graph: "g1", Mode: "manual"}, nil)
		if code == http.StatusCreated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("create after freeing a session slot still returns %d", code)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTenantAccountingSurvivesRestart pins that quotas still bind after a
// crash: graph ownership comes back from the owners sidecar and resumed
// sessions are adopted into their tenant's live count, so the restarted
// server rejects exactly where the crashed one would have.
func TestTenantAccountingSurvivesRestart(t *testing.T) {
	cfg := KeyringConfig{
		Tenants: map[string]TenantLimits{"acme": {MaxSessions: 2, MaxGraphs: 1}},
		Keys:    map[string]string{"sk-acme": "acme"},
	}
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srvA := NewServer(Options{EvalWorkers: 1, CacheCapacity: 16, Store: st, Keyring: NewKeyring(cfg)})
	tsA := newHTTPServer(t, srvA)

	if code := doKey(t, http.MethodPut, tsA.URL+"/v1/graphs/demo", "sk-acme",
		LoadSpec{Dataset: DatasetSpec{Kind: "figure1"}}, nil); code != http.StatusCreated {
		t.Fatalf("graph load returned %d", code)
	}
	var v SessionView
	if code := doKey(t, http.MethodPost, tsA.URL+"/v1/sessions", "sk-acme",
		SessionConfig{Graph: "demo", Mode: "manual"}, &v); code != http.StatusCreated {
		t.Fatalf("session create returned %d", code)
	}
	// Park the manual session on its first question so the resume has a
	// deterministic state to come back to.
	waitForQuestion(t, tsA, "sk-acme", v.ID, "label")

	// "Crash": abandon server A mid-park and recover from the wal.
	stB, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srvB := NewServer(Options{EvalWorkers: 1, CacheCapacity: 16, Store: stB, Keyring: NewKeyring(cfg)})
	tsB := newHTTPServer(t, srvB)
	rep, err := srvB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionsResumed != 1 {
		t.Fatalf("recovery resumed %d sessions, want 1 (report %+v)", rep.SessionsResumed, rep)
	}

	// The resumed session still belongs to its tenant.
	var after SessionView
	if code := doKey(t, http.MethodGet, tsB.URL+"/v1/sessions/"+v.ID, "sk-acme", nil, &after); code != http.StatusOK {
		t.Fatalf("recovered session returned %d", code)
	}
	if after.Tenant != "acme" {
		t.Fatalf("recovered session tenant = %q, want acme", after.Tenant)
	}

	// Graph quota: the recovered graph still counts against MaxGraphs 1.
	wantEnvelope(t, http.MethodPut, tsB.URL+"/v1/graphs/extra", "sk-acme",
		LoadSpec{Dataset: DatasetSpec{Kind: "figure1"}}, http.StatusTooManyRequests, CodeQuotaExceeded)

	// Session quota: the adopted live session occupies 1 of 2 slots — one
	// more admits, the next is rejected on quota.
	if code := doKey(t, http.MethodPost, tsB.URL+"/v1/sessions", "sk-acme",
		SessionConfig{Graph: "demo", Mode: "manual"}, nil); code != http.StatusCreated {
		t.Fatalf("post-recovery create returned %d, want 201", code)
	}
	wantEnvelope(t, http.MethodPost, tsB.URL+"/v1/sessions", "sk-acme",
		SessionConfig{Graph: "demo", Mode: "manual"}, http.StatusTooManyRequests, CodeQuotaExceeded)
}

// waitForQuestion polls a session until its pending question has the
// wanted kind.
func waitForQuestion(t *testing.T, ts *httptest.Server, key, id, kind string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var v SessionView
		doKey(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, key, nil, &v)
		if v.Pending != nil && v.Pending.Kind == kind {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s never asked a %q question (view %+v)", id, kind, v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFairShareAdversarialRace hammers admission from a greedy tenant
// while polite tenants trickle requests, all concurrently (the test is in
// CI's -race set): every polite create must eventually be admitted — the
// greedy tenant only queues against itself — every rejection must carry a
// known admission code, and the greedy tenant must actually have been
// pushed back.
func TestFairShareAdversarialRace(t *testing.T) {
	kr := NewKeyring(KeyringConfig{
		Tenants: map[string]TenantLimits{
			"greedy": {MaxSessions: 2, MaxQueued: 2},
			"p1":     {MaxSessions: 2, MaxQueued: 2},
			"p2":     {MaxSessions: 2, MaxQueued: 2},
		},
		Keys: map[string]string{"sk-greedy": "greedy", "sk-p1": "p1", "sk-p2": "p2"},
	})
	srv := NewServer(Options{
		EvalWorkers:   2,
		CacheCapacity: 64,
		MaxSessions:   4,
		AdmitWait:     50 * time.Millisecond,
		Keyring:       kr,
	})
	ts := newHTTPServer(t, srv)
	if code := doKey(t, http.MethodPut, ts.URL+"/v1/graphs/demo", "sk-greedy",
		LoadSpec{Dataset: DatasetSpec{Kind: "figure1"}}, nil); code != http.StatusCreated {
		t.Fatalf("graph load returned %d", code)
	}

	// create issues one session create and classifies the outcome. The
	// greedy flood opens manual sessions — they park on their first
	// question and hold their slots forever, so the flood pins its own cap
	// and every further create must be pushed back; polite tenants run
	// simulated sessions, which converge and recycle their slots.
	var greedyRejected, politeAdmitted atomic.Int64
	create := func(key, body string) (admitted bool) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions", bytes.NewReader([]byte(body)))
		req.Header.Set("Authorization", "Bearer "+key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("create: %v", err)
			return false
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		switch resp.StatusCode {
		case http.StatusCreated:
			return true
		case http.StatusTooManyRequests:
			var env errorEnvelope
			if err := json.Unmarshal(data, &env); err != nil ||
				(env.Error.Code != CodeQuotaExceeded && env.Error.Code != CodeOverloaded) {
				t.Errorf("429 envelope = %s, want quota_exceeded or overloaded", data)
			}
			return false
		default:
			t.Errorf("create returned %d: %s", resp.StatusCode, data)
			return false
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// The greedy tenant floods from 6 goroutines until the polite side is
	// done.
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !create("sk-greedy", `{"graph":"demo","mode":"manual"}`) {
					greedyRejected.Add(1)
				}
			}
		}()
	}
	// Each polite tenant must land 10 admissions; under fair-share the
	// flood cannot starve them, so every attempt retried within the
	// deadline must eventually get through.
	politeErr := make(chan error, 2)
	for _, key := range []string{"sk-p1", "sk-p2"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			deadline := time.Now().Add(30 * time.Second)
			for n := 0; n < 10; {
				if time.Now().After(deadline) {
					politeErr <- fmt.Errorf("polite tenant %s starved: %d of 10 admissions", key, n)
					return
				}
				if create(key, `{"graph":"demo","mode":"simulated","goal":"(tram+bus)*.cinema"}`) {
					n++
					politeAdmitted.Add(1)
				} else {
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(key)
	}

	done := make(chan struct{})
	go func() {
		// Wait for the two polite goroutines (greedy flooders are stopped
		// right after).
		for politeAdmitted.Load() < 20 && len(politeErr) == 0 {
			time.Sleep(10 * time.Millisecond)
		}
		close(stop)
		close(done)
	}()
	<-done
	wg.Wait()
	select {
	case err := <-politeErr:
		t.Fatal(err)
	default:
	}
	if politeAdmitted.Load() != 20 {
		t.Fatalf("polite tenants admitted %d of 20", politeAdmitted.Load())
	}
	if greedyRejected.Load() == 0 {
		t.Fatal("the greedy flood was never pushed back")
	}
}
