package store

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
)

func openBinaryT(t *testing.T, dir string, opts EngineOptions) *Engine {
	t.Helper()
	e, err := OpenEngine(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func recsOf(t *testing.T, e *Engine) map[string][]Record {
	t.Helper()
	recovered, err := e.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]Record, len(recovered))
	for _, rs := range recovered {
		out[rs.ID] = rs.Journal.Records()
	}
	return out
}

func TestBinaryJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := openBinaryT(t, dir, EngineOptions{})
	jr, err := e.CreateJournal("s0001")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, jr, 3)
	if _, err := e.CreateJournal("s0001"); err == nil {
		t.Fatal("duplicate journal id must fail")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jr.Append("event", nil); err == nil {
		t.Fatal("append after engine close must fail")
	}

	e2 := openBinaryT(t, dir, EngineOptions{})
	recovered, err := e2.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].ID != "s0001" {
		t.Fatalf("recovered %+v, want one session s0001", recovered)
	}
	recs := recovered[0].Journal.Records()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		var p testPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			t.Fatal(err)
		}
		if rec.Seq != uint64(i+1) || rec.Type != "event" || p.N != i+1 {
			t.Fatalf("record %d = %+v payload %+v", i, rec, p)
		}
	}
	// The recovered journal keeps appending with continuous sequence
	// numbers, and a third recovery sees the full log.
	if err := recovered[0].Journal.Append("event", testPayload{N: 4}); err != nil {
		t.Fatal(err)
	}
	e2.Close()
	e3 := openBinaryT(t, dir, EngineOptions{})
	recs = recsOf(t, e3)["s0001"]
	if len(recs) != 4 || recs[3].Seq != 4 {
		t.Fatalf("after resume-append recovery found %+v", recs)
	}
	if m := e3.Metrics(); m.TruncatedJournals != 0 || m.CorruptFrames != 0 {
		t.Fatalf("clean wal must recover clean: %+v", m)
	}
}

func TestBinaryGroupCommitBatches(t *testing.T) {
	dir := t.TempDir()
	e := openBinaryT(t, dir, EngineOptions{})
	const sessions, appends = 8, 25
	journals := make([]*Journal, sessions)
	for i := range journals {
		jr, err := e.CreateJournal(fmt.Sprintf("s%04d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		journals[i] = jr
	}
	var wg sync.WaitGroup
	for _, jr := range journals {
		wg.Add(1)
		go func(jr *Journal) {
			defer wg.Done()
			for n := 1; n <= appends; n++ {
				if err := jr.Append("event", testPayload{N: n}); err != nil {
					t.Error(err)
					return
				}
			}
		}(jr)
	}
	wg.Wait()
	m := e.Metrics()
	if m.JournalAppends != sessions*appends {
		t.Fatalf("JournalAppends = %d, want %d", m.JournalAppends, sessions*appends)
	}
	if m.Fsyncs >= m.JournalAppends {
		t.Fatalf("group commit did not batch: %d fsyncs for %d appends", m.Fsyncs, m.JournalAppends)
	}
	if m.GroupCommits == 0 || m.MeanBatch <= 1 {
		t.Fatalf("batch metrics not populated: %+v", m)
	}
	e.Close()

	e2 := openBinaryT(t, dir, EngineOptions{})
	recs := recsOf(t, e2)
	if len(recs) != sessions {
		t.Fatalf("recovered %d sessions, want %d", len(recs), sessions)
	}
	for sid, rs := range recs {
		if len(rs) != appends {
			t.Fatalf("session %s recovered %d records, want %d", sid, len(rs), appends)
		}
		for i, rec := range rs {
			if rec.Seq != uint64(i+1) {
				t.Fatalf("session %s record %d has seq %d", sid, i, rec.Seq)
			}
		}
	}
}

func TestBinarySegmentRotation(t *testing.T) {
	dir := t.TempDir()
	e := openBinaryT(t, dir, EngineOptions{SegmentSize: 256})
	jr, err := e.CreateJournal("s0001")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, jr, 40)
	if m := e.Metrics(); m.SegmentsCreated < 3 {
		t.Fatalf("expected several segments at 256-byte roll-over, got %d", m.SegmentsCreated)
	}
	e.Close()
	e2 := openBinaryT(t, dir, EngineOptions{SegmentSize: 256})
	if recs := recsOf(t, e2)["s0001"]; len(recs) != 40 {
		t.Fatalf("multi-segment recovery found %d records, want 40", len(recs))
	}
}

// lastSegment returns the path of the highest-numbered segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal", "seg-*.seg"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments found: %v", err)
	}
	return matches[len(matches)-1]
}

// TestBinaryTornTail injects the crash modes the segmented log must
// survive at its tail: a partial frame header, a frame length overrunning
// the file, and a CRC failure on the final frame. All truncate to the
// longest valid prefix, and appends resume cleanly after recovery.
func TestBinaryTornTail(t *testing.T) {
	cases := []struct {
		name string
		tear func(t *testing.T, path string)
	}{
		{"partial-header", func(t *testing.T, path string) {
			f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			f.Write([]byte{0x03, 0x00})
			f.Close()
		}},
		{"length-overrun", func(t *testing.T, path string) {
			f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			// Declares a 200-byte payload with only garbage behind it.
			f.Write([]byte{200, 0, 0, 0, 1, 2, 3, 4, 9, 9})
			f.Close()
		}},
		{"crc-flip-last-frame", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e := openBinaryT(t, dir, EngineOptions{})
			jr, err := e.CreateJournal("s0001")
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, jr, 3)
			e.Close()
			tc.tear(t, lastSegment(t, dir))

			e2 := openBinaryT(t, dir, EngineOptions{})
			recovered, err := e2.RecoverSessions()
			if err != nil {
				t.Fatal(err)
			}
			recs := recovered[0].Journal.Records()
			want := 3
			if tc.name == "crc-flip-last-frame" {
				want = 2 // the flipped final frame is gone
			}
			if len(recs) != want {
				t.Fatalf("recovered %d records, want %d", len(recs), want)
			}
			if got := e2.Metrics().TruncatedJournals; got != 1 {
				t.Fatalf("TruncatedJournals = %d, want 1", got)
			}
			// Appends resume at the next sequence number; the following
			// recovery is clean.
			if err := recovered[0].Journal.Append("event", testPayload{N: 99}); err != nil {
				t.Fatal(err)
			}
			e2.Close()
			e3 := openBinaryT(t, dir, EngineOptions{})
			recs = recsOf(t, e3)["s0001"]
			if len(recs) != want+1 || recs[len(recs)-1].Seq != uint64(want+1) {
				t.Fatalf("post-truncation append not recovered: %+v", recs)
			}
			if m := e3.Metrics(); m.TruncatedJournals != 0 {
				t.Fatalf("second recovery must be clean, metrics %+v", m)
			}
		})
	}
}

// TestBinaryMidLogCorruption flips a CRC in a *sealed* segment (not the
// tail): only the hit frame's session is truncated at its gap, the other
// session and all later records of it re-converge after resume.
func TestBinaryMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every frame its own segment, so frame 2 sits in a
	// sealed segment once more appends follow.
	e := openBinaryT(t, dir, EngineOptions{SegmentSize: 1})
	ja, err := e.CreateJournal("aaaa")
	if err != nil {
		t.Fatal(err)
	}
	jb, err := e.CreateJournal("bbbb")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := ja.Append("event", testPayload{N: i}); err != nil {
			t.Fatal(err)
		}
		if err := jb.Append("event", testPayload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()

	// Flip a payload byte of session aaaa's second record (segment 3:
	// appends interleave a1 b1 a2 b2 ...). The flip lands in the data
	// frame at the segment's start — the seal appends an index footer
	// after it, which must keep checking out.
	matches, err := filepath.Glob(filepath.Join(dir, "wal", "seg-*.seg"))
	if err != nil || len(matches) < 8 {
		t.Fatalf("expected one frame per segment, got %v", matches)
	}
	data, err := os.ReadFile(matches[2])
	if err != nil {
		t.Fatal(err)
	}
	// Every segment opens with an epoch frame; the data frame follows it.
	dataOff := len(encodeFrame(encodeEpochPayload(1)))
	data[dataOff+frameHeaderSize+1] ^= 0x01
	if err := os.WriteFile(matches[2], data, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := openBinaryT(t, dir, EngineOptions{SegmentSize: 1})
	recs := recsOf(t, e2)
	if got := len(recs["aaaa"]); got != 1 {
		t.Fatalf("hit session kept %d records, want 1 (prefix before the flipped frame)", got)
	}
	if got := len(recs["bbbb"]); got != 4 {
		t.Fatalf("clean session kept %d records, want all 4", got)
	}
	m := e2.Metrics()
	if m.CorruptFrames != 1 || m.TruncatedJournals != 1 {
		t.Fatalf("metrics = %+v, want 1 corrupt frame and 1 truncated journal", m)
	}
}

func TestBinaryTombstone(t *testing.T) {
	dir := t.TempDir()
	e := openBinaryT(t, dir, EngineOptions{})
	jr, err := e.CreateJournal("gone")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, jr, 2)
	keep, err := e.CreateJournal("kept")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, keep, 1)
	if err := jr.Remove(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e2 := openBinaryT(t, dir, EngineOptions{})
	recs := recsOf(t, e2)
	if _, ok := recs["gone"]; ok {
		t.Fatal("removed session recovered")
	}
	if len(recs["kept"]) != 1 {
		t.Fatalf("kept session = %+v", recs["kept"])
	}
	// The id of a removed session can never be reused.
	e2.Close()
	e3 := openBinaryT(t, dir, EngineOptions{})
	if _, err := e3.CreateJournal("gone"); err == nil {
		t.Fatal("tombstoned id must not be reusable")
	}
}

func TestBinaryGraphSnapshots(t *testing.T) {
	dir := t.TempDir()
	e := openBinaryT(t, dir, EngineOptions{})
	g1 := dataset.Figure1()
	g2 := dataset.Random(dataset.RandomOptions{Nodes: 30, Seed: 7})
	if err := e.SaveGraph("demo", g1); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveGraph("rand", g2); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveGraph("gone", g1); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteGraph("gone"); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteGraph("never-existed"); err != nil {
		t.Fatal(err)
	}
	recovered, err := e.RecoverGraphs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 || recovered[0].Name != "demo" || recovered[1].Name != "rand" {
		t.Fatalf("recovered %+v", recovered)
	}
	if recovered[0].Graph.Text() != g1.Text() || recovered[1].Graph.Text() != g2.Text() {
		t.Fatal("binary snapshot does not round-trip")
	}

	// Corruption: flip one payload byte — the CRC check must reject it.
	path := snapshotFile(filepath.Join(dir, "graphs"), "demo")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e2 := openBinaryT(t, dir, EngineOptions{})
	recovered, err = e2.RecoverGraphs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].Name != "rand" {
		t.Fatalf("corrupt snapshot not skipped: %+v", recovered)
	}
	if m := e2.Metrics(); m.CorruptSnapshots != 1 {
		t.Fatalf("CorruptSnapshots = %d, want 1", m.CorruptSnapshots)
	}
}

func TestBinaryCompaction(t *testing.T) {
	dir := t.TempDir()
	e := openBinaryT(t, dir, EngineOptions{SegmentSize: 128})
	finished, err := e.CreateJournal("finished")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, finished, 5)
	if err := finished.AppendTerminal("done", testPayload{N: 99, S: "final"}); err != nil {
		t.Fatal(err)
	}
	live, err := e.CreateJournal("live")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, live, 3)
	removed, err := e.CreateJournal("removed")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, removed, 4)
	if err := removed.Remove(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e2 := openBinaryT(t, dir, EngineOptions{SegmentSize: 128})
	rep, err := e2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionsCompacted != 1 || rep.SessionsDropped != 1 {
		t.Fatalf("compaction report %+v", rep)
	}
	if rep.SegmentsRetired == 0 || rep.BytesAfter >= rep.BytesBefore {
		t.Fatalf("compaction did not shrink the wal: %+v", rep)
	}
	recs := recsOf(t, e2)
	if _, ok := recs["removed"]; ok {
		t.Fatal("tombstoned session survived compaction")
	}
	if got := recs["live"]; len(got) != 3 {
		t.Fatalf("live session = %+v, want its full 3 records", got)
	}
	fin := recs["finished"]
	if len(fin) != 2 || fin[0].Seq != 1 || fin[1].Seq != 2 {
		t.Fatalf("finished session = %+v, want [create-like, terminal] renumbered", fin)
	}
	var p testPayload
	if err := json.Unmarshal(fin[1].Data, &p); err != nil || fin[1].Type != "done" || p.S != "final" {
		t.Fatalf("terminal record lost its payload: %+v (%v)", fin[1], err)
	}
	// The summary survives a second compaction unchanged (idempotent).
	e2.Close()
	e3 := openBinaryT(t, dir, EngineOptions{SegmentSize: 128})
	if _, err := e3.Compact(); err != nil {
		t.Fatal(err)
	}
	if again := recsOf(t, e3)["finished"]; !reflect.DeepEqual(again, fin) {
		t.Fatalf("second compaction changed the summary: %+v vs %+v", again, fin)
	}
}

// TestBinaryCompactLiveAfterJournals: once journals are out, Compact
// switches to the live protocol instead of refusing — it seals the active
// segment, rewrites the sealed ones and keeps every acked record, with
// the journals still appendable afterwards.
func TestBinaryCompactLiveAfterJournals(t *testing.T) {
	dir := t.TempDir()
	e := openBinaryT(t, dir, EngineOptions{SegmentSize: 128})
	jr, err := e.CreateJournal("s0001")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, jr, 5)
	done, err := e.CreateJournal("s0002")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, done, 3)
	if err := done.AppendTerminal("done", testPayload{S: "final"}); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionsCompacted != 1 || rep.SegmentsRetired == 0 {
		t.Fatalf("live compaction report %+v", rep)
	}
	// The journal handed out before the compaction keeps working.
	if err := jr.Append("event", testPayload{N: 6}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e2 := openBinaryT(t, dir, EngineOptions{})
	recs := recsOf(t, e2)
	if got := recs["s0001"]; len(got) != 6 {
		t.Fatalf("live session = %d records, want 6", len(got))
	}
	if got := recs["s0002"]; len(got) != 2 {
		t.Fatalf("finished session = %+v, want its 2-record summary", got)
	}
}

// TestBinaryCompactionCrashRepair reconstructs every directory state an
// interrupted compaction can leave behind and verifies open() repairs each
// into a consistent, recoverable wal.
func TestBinaryCompactionCrashRepair(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		e := openBinaryT(t, dir, EngineOptions{})
		jr, err := e.CreateJournal("s0001")
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, jr, 3)
		e.Close()
		return dir
	}
	verify := func(t *testing.T, dir string) {
		e := openBinaryT(t, dir, EngineOptions{})
		recs := recsOf(t, e)["s0001"]
		if len(recs) != 3 {
			t.Fatalf("repair lost records: %+v", recs)
		}
		for _, leftover := range []string{"wal.compact", "wal.old"} {
			if _, err := os.Stat(filepath.Join(dir, leftover)); !os.IsNotExist(err) {
				t.Fatalf("%s left behind after repair", leftover)
			}
		}
	}

	t.Run("crash-before-swap", func(t *testing.T) {
		// wal intact, wal.compact possibly half-written → drop compact.
		dir := build(t)
		if err := os.MkdirAll(filepath.Join(dir, "wal.compact"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal.compact", "seg-00000001.seg"), []byte("half"), 0o644); err != nil {
			t.Fatal(err)
		}
		verify(t, dir)
	})
	t.Run("crash-mid-swap", func(t *testing.T) {
		// wal renamed away, wal.compact complete → promote compact.
		dir := build(t)
		if err := os.Rename(filepath.Join(dir, "wal"), filepath.Join(dir, "wal.old")); err != nil {
			t.Fatal(err)
		}
		// The "compacted" wal here is a byte-copy of the original (the
		// repair rule only depends on directory presence).
		if err := os.CopyFS(filepath.Join(dir, "wal.compact"), os.DirFS(filepath.Join(dir, "wal.old"))); err != nil {
			t.Fatal(err)
		}
		verify(t, dir)
	})
	t.Run("crash-before-cleanup", func(t *testing.T) {
		// Swap done, wal.old not yet removed → drop old.
		dir := build(t)
		if err := os.CopyFS(filepath.Join(dir, "wal.old"), os.DirFS(filepath.Join(dir, "wal"))); err != nil {
			t.Fatal(err)
		}
		verify(t, dir)
	})
	t.Run("rollback-only-old", func(t *testing.T) {
		// Neither wal nor wal.compact: restore wal.old.
		dir := build(t)
		if err := os.Rename(filepath.Join(dir, "wal"), filepath.Join(dir, "wal.old")); err != nil {
			t.Fatal(err)
		}
		verify(t, dir)
	})
}

// TestBinaryRecoversAckedHistory drives random session traffic —
// interleaved appends, terminal records, removals, a graph snapshot — over
// random segment sizes, records every acknowledged write, and requires a
// fresh engine to recover exactly that history: every acked record of
// every session not removed, in order, and nothing else.
func TestBinaryRecoversAckedHistory(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			e := openBinaryT(t, dir, EngineOptions{SegmentSize: int64(64 << rng.Intn(6))})

			journals := make(map[string]*Journal)
			acked := make(map[string][]Record) // removed sessions are deleted
			terminated := make(map[string]bool)
			var ids []string
			ack := func(id, typ string, p testPayload, terminal bool) {
				add := journals[id].Append
				if terminal {
					add = journals[id].AppendTerminal
				}
				if err := add(typ, p); err != nil {
					t.Fatal(err)
				}
				data, _ := json.Marshal(p)
				acked[id] = append(acked[id], Record{Seq: uint64(len(acked[id])) + 1, Type: typ, Data: data})
			}
			types := []string{"create", "question", "answer", "hypothesis"}
			for op := 0; op < 120; op++ {
				switch k := rng.Intn(10); {
				case k == 0 || len(ids) == 0: // create a session
					id := fmt.Sprintf("s%04d", len(journals)+1)
					jr, err := e.CreateJournal(id)
					if err != nil {
						t.Fatal(err)
					}
					journals[id] = jr
					ids = append(ids, id)
					// The service always writes the create record
					// immediately (an empty journal is never left behind).
					ack(id, "create", testPayload{N: op, S: "create"}, false)
				case k == 1: // remove a random session
					id := ids[rng.Intn(len(ids))]
					if err := journals[id].Remove(); err != nil {
						t.Fatal(err)
					}
					delete(acked, id)
					terminated[id] = true
				case k == 2: // finish a random session
					id := ids[rng.Intn(len(ids))]
					if terminated[id] {
						continue
					}
					ack(id, "done", testPayload{N: op, S: "done"}, true)
					terminated[id] = true
				default: // append to a random live session
					id := ids[rng.Intn(len(ids))]
					if terminated[id] {
						continue
					}
					typ := types[rng.Intn(len(types))]
					ack(id, typ, testPayload{N: op, S: typ}, false)
				}
			}
			g := dataset.Random(dataset.RandomOptions{Nodes: 20 + rng.Intn(30), Seed: seed})
			if err := e.SaveGraph("g", g); err != nil {
				t.Fatal(err)
			}
			e.Close()

			e2 := openBinaryT(t, dir, EngineOptions{})
			if got := recsOf(t, e2); !reflect.DeepEqual(got, acked) {
				t.Fatalf("recovered sessions differ from the acked history\n got  %+v\n want %+v", got, acked)
			}
			rg, err := e2.RecoverGraphs()
			if err != nil {
				t.Fatal(err)
			}
			if len(rg) != 1 || rg[0].Name != "g" || rg[0].Graph.Text() != g.Text() {
				t.Fatal("recovered graph differs from the saved one")
			}
		})
	}
}

// TestOpenRefusesTextJournals pins the upgrade guard: a data directory
// holding journals of the retired JSONL text engine is refused with an
// error that names one, and is left byte-identical.
func TestOpenRefusesTextJournals(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"sessions/x.jsonl": `{"seq":1,"type":"create"}` + "\n",
		"graphs/g.graph":   "not a snapshot",
	}
	for name, data := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := treeOf(t, dir)
	e, err := OpenEngine(dir, EngineOptions{})
	if err == nil {
		e.Close()
		t.Fatal("a directory holding text-engine journals must be refused")
	}
	if !strings.Contains(err.Error(), "x.jsonl") {
		t.Fatalf("error %q does not name the journal", err)
	}
	if after := treeOf(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused open changed the directory\n got  %v\n want %v", after, before)
	}
}

// treeOf maps every path under dir (directories end in "/") to its bytes.
func treeOf(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			out[rel+"/"] = ""
			return nil
		}
		data, err := os.ReadFile(path)
		out[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBinaryReusesTailSegment pins that restarts append to the existing
// tail segment instead of opening a fresh one each boot.
func TestBinaryReusesTailSegment(t *testing.T) {
	dir := t.TempDir()
	e := openBinaryT(t, dir, EngineOptions{})
	jr, err := e.CreateJournal("s0001")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, jr, 2)
	e.Close()
	for restart := 0; restart < 3; restart++ {
		e2 := openBinaryT(t, dir, EngineOptions{})
		recovered, err := e2.RecoverSessions()
		if err != nil {
			t.Fatal(err)
		}
		if err := recovered[0].Journal.Append("event", nil); err != nil {
			t.Fatal(err)
		}
		e2.Close()
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "seg-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("3 restarts left %d segments, want 1 (reuse the tail)", len(segs))
	}
	e3 := openBinaryT(t, dir, EngineOptions{})
	if recs := recsOf(t, e3)["s0001"]; len(recs) != 5 {
		t.Fatalf("recovered %d records across restarts, want 5", len(recs))
	}
}
