package store

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/dataset"
)

// feedServer wraps an engine's replication feed in the same HTTP shape
// the service exposes, for follower tests without a full gpsd.
func feedServer(t *testing.T, e *Engine) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var pos FeedPos
		pos.Gen, _ = strconv.ParseUint(r.URL.Query().Get("gen"), 10, 64)
		pos.Seg, _ = strconv.ParseUint(r.URL.Query().Get("seg"), 10, 64)
		pos.Off, _ = strconv.ParseInt(r.URL.Query().Get("off"), 10, 64)
		w.WriteHeader(http.StatusOK)
		fl, _ := w.(http.Flusher)
		flush := func() {}
		if fl != nil {
			flush = fl.Flush
		}
		_ = e.ServeFeed(r.Context(), w, flush, pos)
	}))
	// Registered before any replica cleanup, so (LIFO) replicas stop
	// before Close waits on their feed connections.
	t.Cleanup(srv.Close)
	return srv
}

// waitReplicaCaughtUp polls until the replica has applied everything the
// primary has published (and is connected), or fails the test.
func waitReplicaCaughtUp(t *testing.T, r *Replica, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := r.Status()
		want := e.ReplState()
		if st.Connected && st.AppliedFrames >= want.Frames && st.AppliedBytes >= want.Bytes {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("replica never caught up: %+v vs primary %+v", r.Status(), e.ReplState())
}

// openReplicaT opens a follower applier against a feed server and starts
// it.
func openReplicaT(t *testing.T, dir string, srv *httptest.Server) *Replica {
	t.Helper()
	r, err := OpenReplica(dir, srv.URL, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go r.Run()
	t.Cleanup(r.Stop) // idempotent; unblocks the feed server's Close
	return r
}

// primaryRecs closes the live primary and reopens its directory to
// recover the expected session state (RecoverSessions only runs on a
// freshly opened engine).
func primaryRecs(t *testing.T, e *Engine, dir string) map[string][]Record {
	t.Helper()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openBinaryT(t, dir, EngineOptions{})
	defer e2.Close()
	return recsOf(t, e2)
}

// replicaRecs promotes the replica directory — exactly what failover
// does — and recovers its sessions and graphs for comparison.
func replicaRecs(t *testing.T, dir string) (map[string][]Record, map[string]string) {
	t.Helper()
	e := openBinaryT(t, dir, EngineOptions{})
	defer e.Close()
	recs := recsOf(t, e)
	graphs := make(map[string]string)
	recovered, err := e.RecoverGraphs()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range recovered {
		graphs[g.Name] = g.Graph.Text()
	}
	return recs, graphs
}

// TestReplicaCatchUp streams a live primary — graphs, sealed segments,
// then tailed group commits — to a follower and requires the promoted
// follower directory to recover the identical session and graph state.
func TestReplicaCatchUp(t *testing.T) {
	primary := t.TempDir()
	follower := t.TempDir()
	e := openBinaryT(t, primary, EngineOptions{SegmentSize: 512, CommitInterval: time.Millisecond})
	defer e.Close()

	if err := e.SaveGraph("demo", dataset.Figure1()); err != nil {
		t.Fatal(err)
	}
	// Pre-existing traffic: sealed segments the feed ships wholesale.
	for i := 0; i < 4; i++ {
		jr, err := e.CreateJournal(fmt.Sprintf("pre-%04d", i))
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, jr, 6)
		if i%2 == 0 {
			if err := jr.AppendTerminal("done", testPayload{S: "x"}); err != nil {
				t.Fatal(err)
			}
		}
	}

	srv := feedServer(t, e)
	r := openReplicaT(t, follower, srv)

	// Live traffic while the follower tails, including a graph update and
	// a deletion.
	if err := e.SaveGraph("grid", dataset.Random(dataset.RandomOptions{Nodes: 20, Seed: 3})); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveGraph("gone", dataset.Figure1()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		jr, err := e.CreateJournal(fmt.Sprintf("live-%04d", i))
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, jr, 5)
	}
	if err := e.DeleteGraph("gone"); err != nil {
		t.Fatal(err)
	}

	waitReplicaCaughtUp(t, r, e)
	// Graph deletion propagates by polling; give it its own wait.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if r.Status().Graphs == 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	st := r.Status()
	if st.Resyncs != 0 {
		t.Fatalf("clean catch-up resynced %d times", st.Resyncs)
	}
	if st.SealsVerified == 0 {
		t.Fatal("no sealed segments were verified against footers")
	}
	r.Stop()

	wantRecs := primaryRecs(t, e, primary)
	gotRecs, gotGraphs := replicaRecs(t, follower)
	if !reflect.DeepEqual(gotRecs, wantRecs) {
		t.Fatalf("replicated sessions diverge:\ngot  %+v\nwant %+v", gotRecs, wantRecs)
	}
	if len(gotGraphs) != 2 || gotGraphs["demo"] == "" || gotGraphs["grid"] == "" {
		t.Fatalf("replicated graphs = %v, want demo and grid", gotGraphs)
	}
	if gotGraphs["demo"] != dataset.Figure1().Text() {
		t.Fatal("graph demo does not round-trip through the feed")
	}
}

// TestReplicaResumeAcrossRestart stops a follower mid-stream, appends
// more primary traffic, and reopens the follower: it must resume from
// its durable (segment, offset) position without a re-sync.
func TestReplicaResumeAcrossRestart(t *testing.T) {
	primary := t.TempDir()
	follower := t.TempDir()
	e := openBinaryT(t, primary, EngineOptions{SegmentSize: 512, CommitInterval: time.Millisecond})
	defer e.Close()
	srv := feedServer(t, e)

	jr, err := e.CreateJournal("sess")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, jr, 10)

	r := openReplicaT(t, follower, srv)
	waitReplicaCaughtUp(t, r, e)
	r.Stop()

	appendN(t, jr, 10)
	jr2, err := e.CreateJournal("late")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, jr2, 3)

	r2, err := OpenReplica(follower, srv.URL, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go r2.Run()
	t.Cleanup(r2.Stop)
	waitReplicaCaughtUp(t, r2, e)
	st := r2.Status()
	if st.Resyncs != 0 {
		t.Fatalf("resume after restart re-synced %d times, want a cheap offset resume", st.Resyncs)
	}
	r2.Stop()

	wantRecs := primaryRecs(t, e, primary)
	gotRecs, _ := replicaRecs(t, follower)
	if !reflect.DeepEqual(gotRecs, wantRecs) {
		t.Fatalf("resumed sessions diverge:\ngot  %+v\nwant %+v", gotRecs, wantRecs)
	}
}

// TestReplicaResyncAcrossCompaction runs live compaction on the primary
// while a follower holds a resume position inside the retired history.
// The generation bump must force a clean re-sync — retired segments are
// re-fetched, nothing wedges — and the follower converges again.
func TestReplicaResyncAcrossCompaction(t *testing.T) {
	primary := t.TempDir()
	follower := t.TempDir()
	e := openBinaryT(t, primary, EngineOptions{SegmentSize: 256, CommitInterval: time.Millisecond})
	defer e.Close()
	srv := feedServer(t, e)

	// Enough finished sessions that compaction rewrites real history.
	for i := 0; i < 6; i++ {
		jr, err := e.CreateJournal(fmt.Sprintf("old-%04d", i))
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, jr, 8)
		if err := jr.AppendTerminal("done", testPayload{S: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	survivor, err := e.CreateJournal("survivor")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, survivor, 4)

	r := openReplicaT(t, follower, srv)
	waitReplicaCaughtUp(t, r, e)
	r.Stop() // follower offline across the compaction, like a real deploy

	if _, err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	appendN(t, survivor, 4)

	r2, err := OpenReplica(follower, srv.URL, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go r2.Run()
	t.Cleanup(r2.Stop)
	waitReplicaCaughtUp(t, r2, e)
	st := r2.Status()
	if st.Resyncs == 0 {
		t.Fatal("follower resumed across a compaction without re-syncing retired segments")
	}
	r2.Stop()

	wantRecs := primaryRecs(t, e, primary)
	gotRecs, _ := replicaRecs(t, follower)
	if !reflect.DeepEqual(gotRecs, wantRecs) {
		t.Fatalf("post-compaction sessions diverge:\ngot  %+v\nwant %+v", gotRecs, wantRecs)
	}
}

// TestReplicaSyncsIdlePostCompactionPrimary connects a fresh follower to
// a primary that compacted and then went idle. Compaction rewrites the
// segments the published position pointed into; if the swap does not
// re-point it at the compacted tail, every feed tails the (shorter)
// active segment toward a stale offset, fails, and the follower
// reconnect-loops forever — no append ever arrives to republish.
func TestReplicaSyncsIdlePostCompactionPrimary(t *testing.T) {
	primary := t.TempDir()
	follower := t.TempDir()
	// One big segment: compaction renumbers its output from 1, so the
	// rewritten (smaller) segment 1 collides with the stale published
	// position's index — the shape that wedges the feed.
	e := openBinaryT(t, primary, EngineOptions{SegmentSize: 1 << 20, CommitInterval: time.Millisecond})
	defer e.Close()
	srv := feedServer(t, e)

	for i := 0; i < 4; i++ {
		jr, err := e.CreateJournal(fmt.Sprintf("old-%04d", i))
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, jr, 8)
		if err := jr.AppendTerminal("done", testPayload{S: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	survivor, err := e.CreateJournal("survivor")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, survivor, 4)

	if _, err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	// No appends after the compaction: the primary is idle, so the
	// follower can only sync if the swap republished a real position.

	r := openReplicaT(t, follower, srv)
	waitReplicaCaughtUp(t, r, e)
	if st := r.Status(); st.Connects > 5 {
		t.Fatalf("follower needed %d connects to sync an idle primary (reconnect loop)", st.Connects)
	}
	r.Stop()

	wantRecs := primaryRecs(t, e, primary)
	gotRecs, _ := replicaRecs(t, follower)
	if !reflect.DeepEqual(gotRecs, wantRecs) {
		t.Fatalf("post-compaction sessions diverge:\ngot  %+v\nwant %+v", gotRecs, wantRecs)
	}
}

// TestReplicaResyncWhileConnected compacts under a connected follower:
// the feed closes on the generation change and the reconnect re-syncs.
func TestReplicaResyncWhileConnected(t *testing.T) {
	primary := t.TempDir()
	follower := t.TempDir()
	e := openBinaryT(t, primary, EngineOptions{SegmentSize: 256, CommitInterval: time.Millisecond})
	defer e.Close()
	srv := feedServer(t, e)

	for i := 0; i < 5; i++ {
		jr, err := e.CreateJournal(fmt.Sprintf("old-%04d", i))
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, jr, 6)
		if err := jr.AppendTerminal("done", testPayload{S: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	r := openReplicaT(t, follower, srv)
	waitReplicaCaughtUp(t, r, e)

	if _, err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	jr, err := e.CreateJournal("after")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, jr, 5)

	waitReplicaCaughtUp(t, r, e)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && r.Status().Resyncs == 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if r.Status().Resyncs == 0 {
		t.Fatal("connected follower never re-synced after the generation bump")
	}
	r.Stop()

	wantRecs := primaryRecs(t, e, primary)
	gotRecs, _ := replicaRecs(t, follower)
	if !reflect.DeepEqual(gotRecs, wantRecs) {
		t.Fatalf("sessions diverge after live compaction:\ngot  %+v\nwant %+v", gotRecs, wantRecs)
	}
}

// TestEngineEpochFencing pins the epoch lifecycle: it starts at 1, only
// rises, persists across reopen, and lands in segment epoch frames that
// recovery skips without disturbing session replay.
func TestEngineEpochFencing(t *testing.T) {
	dir := t.TempDir()
	e := openBinaryT(t, dir, EngineOptions{})
	if got := e.Epoch(); got != 1 {
		t.Fatalf("fresh engine epoch = %d, want 1", got)
	}
	jr, err := e.CreateJournal("sess")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, jr, 3)
	if err := e.SetEpoch(5); err != nil {
		t.Fatal(err)
	}
	if err := e.SetEpoch(4); err == nil {
		t.Fatal("lowering the epoch must fail")
	}
	if err := e.SetEpoch(5); err != nil {
		t.Fatalf("idempotent SetEpoch: %v", err)
	}
	appendN(t, jr, 3)
	e.Close()

	e2 := openBinaryT(t, dir, EngineOptions{})
	defer e2.Close()
	if got := e2.Epoch(); got != 5 {
		t.Fatalf("epoch after reopen = %d, want 5", got)
	}
	recs := recsOf(t, e2)
	if len(recs["sess"]) != 6 {
		t.Fatalf("session kept %d records across epoch frames, want 6", len(recs["sess"]))
	}
}

// TestReplicaTracksPrimaryEpoch checks that a follower persists the
// highest primary epoch it has seen, so promotion fences above it even
// after a follower restart.
func TestReplicaTracksPrimaryEpoch(t *testing.T) {
	primary := t.TempDir()
	follower := t.TempDir()
	e := openBinaryT(t, primary, EngineOptions{CommitInterval: time.Millisecond})
	defer e.Close()
	if err := e.SetEpoch(9); err != nil {
		t.Fatal(err)
	}
	jr, err := e.CreateJournal("sess")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, jr, 2)
	srv := feedServer(t, e)

	r := openReplicaT(t, follower, srv)
	waitReplicaCaughtUp(t, r, e)
	if got := r.Status().PrimaryEpoch; got != 9 {
		t.Fatalf("follower saw primary epoch %d, want 9", got)
	}
	r.Stop()

	// The promoted engine must open at the primary's epoch and fence
	// above it with one bump.
	pe := openBinaryT(t, follower, EngineOptions{})
	defer pe.Close()
	if got := pe.Epoch(); got != 9 {
		t.Fatalf("promoted engine epoch = %d, want 9", got)
	}
	if err := pe.SetEpoch(pe.Epoch() + 1); err != nil {
		t.Fatal(err)
	}
	if got := pe.Epoch(); got != 10 {
		t.Fatalf("fencing epoch = %d, want 10", got)
	}
}

// TestServeFeedRejectsBogusResume hands the feed an off-the-end resume
// position: it must degrade to a full re-sync, never an error or a
// stream of bytes the follower cannot anchor.
func TestServeFeedRejectsBogusResume(t *testing.T) {
	primary := t.TempDir()
	e := openBinaryT(t, primary, EngineOptions{CommitInterval: time.Millisecond})
	defer e.Close()
	jr, err := e.CreateJournal("sess")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, jr, 5)
	st := e.ReplState()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- e.ServeFeed(ctx, pw, nil, FeedPos{Gen: st.Gen, Seg: st.Seg, Off: st.Off + 9999})
		pw.Close()
	}()
	payload, err := readFeedFrame(bufio.NewReader(pr))
	if err != nil {
		t.Fatal(err)
	}
	if payload[0] != feedMsgHello || payload[2]&1 == 0 {
		t.Fatalf("hello = %v, want re-sync flag set", payload[:3])
	}
	// Unblock any write the feed is parked on before waiting it out.
	pr.Close()
	cancel()
	if err := <-done; err == nil {
		t.Log("feed closed cleanly")
	}
}
