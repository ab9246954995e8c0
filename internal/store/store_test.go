package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

type testPayload struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

func appendN(t *testing.T, jr *Journal, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if err := jr.Append("event", testPayload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jr, err := st.CreateJournal("s0001")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, jr, 3)
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jr.Append("event", nil); err == nil {
		t.Fatal("append after close must fail")
	}
	// Creating the same id again must not clobber the journal.
	if _, err := st.CreateJournal("s0001"); err == nil {
		t.Fatal("duplicate journal id must fail")
	}

	recovered, err := st.RecoverSessions()
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
	// numbers, and a second recovery sees the full log.
	if err := recovered[0].Journal.Append("event", testPayload{N: 4}); err != nil {
		t.Fatal(err)
	}
	recovered[0].Journal.Close()
	again, err := st.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	recs = again[0].Journal.Records()
	if len(recs) != 4 || recs[3].Seq != 4 {
		t.Fatalf("after resume-append recovery found %d records (last %+v)", len(recs), recs[len(recs)-1])
	}
	if st.Metrics().TruncatedJournals != 0 {
		t.Fatalf("clean journals must not count as truncated: %+v", st.Metrics())
	}
}

// TestJournalTornTail injects the crash modes a write-ahead journal must
// survive: a partial final line, trailing garbage, and a record whose JSON
// is valid but whose sequence number does not line up.
func TestJournalTornTail(t *testing.T) {
	cases := []struct {
		name string
		tail string // appended raw to a healthy 3-record journal
		want int    // surviving records
	}{
		{"partial-line", `{"seq":4,"type":"event","da`, 3},
		{"garbage", "\x00\x01\x02 not json\n", 3},
		{"unterminated-valid-json", `{"seq":4,"type":"event"}`, 3},
		{"sequence-gap", `{"seq":9,"type":"event"}` + "\n" + `{"seq":10,"type":"event"}` + "\n", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			jr, err := st.CreateJournal("s0001")
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, jr, 3)
			jr.Close()

			path := st.journalFile("s0001")
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tc.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			recovered, err := st.RecoverSessions()
			if err != nil {
				t.Fatal(err)
			}
			recs := recovered[0].Journal.Records()
			if len(recs) != tc.want {
				t.Fatalf("recovered %d records, want %d", len(recs), tc.want)
			}
			if got := st.Metrics().TruncatedJournals; got != 1 {
				t.Fatalf("TruncatedJournals = %d, want 1", got)
			}
			// The torn tail is gone from disk: appends resume at the next
			// sequence number and a fresh recovery is clean.
			if err := recovered[0].Journal.Append("event", testPayload{N: 4}); err != nil {
				t.Fatal(err)
			}
			recovered[0].Journal.Close()
			st2, err := Open(st.Dir())
			if err != nil {
				t.Fatal(err)
			}
			again, err := st2.RecoverSessions()
			if err != nil {
				t.Fatal(err)
			}
			recs = again[0].Journal.Records()
			if len(recs) != tc.want+1 || recs[len(recs)-1].Seq != uint64(tc.want+1) {
				t.Fatalf("post-truncation append not recovered: %+v", recs)
			}
			if st2.Metrics().TruncatedJournals != 0 {
				t.Fatalf("second recovery must be clean, metrics %+v", st2.Metrics())
			}
		})
	}
}

// TestRecoverForeignFilename pins that recovery reads journals from their
// actual on-disk paths: a file whose name is not a PathEscape fixed point
// (e.g. containing '%') must still be recovered, not error out.
func TestRecoverForeignFilename(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jr, err := st.CreateJournal("s0001")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, jr, 2)
	jr.Close()
	line := `{"seq":1,"type":"event"}` + "\n"
	if err := os.WriteFile(filepath.Join(st.sessionsDir(), "s%301.jsonl"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	recovered, err := st.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %d journals, want 2 (incl. the foreign filename)", len(recovered))
	}
	for _, rs := range recovered {
		if len(rs.Journal.Records()) == 0 {
			t.Fatalf("journal %s recovered empty", rs.ID)
		}
	}
}

func TestJournalRemove(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jr, err := st.CreateJournal("s0001")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, jr, 2)
	if err := jr.Remove(); err != nil {
		t.Fatal(err)
	}
	recovered, err := st.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("removed journal still recovered: %+v", recovered)
	}
}

func TestMemJournalTail(t *testing.T) {
	jr := NewMemJournal()
	appendN(t, jr, 2)
	recs, notify := jr.After(2)
	if len(recs) != 0 {
		t.Fatalf("After(2) = %+v, want empty", recs)
	}
	done := make(chan struct{})
	go func() {
		<-notify
		close(done)
	}()
	if err := jr.Append("event", testPayload{N: 3}); err != nil {
		t.Fatal(err)
	}
	<-done
	recs, _ = jr.After(2)
	if len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("tail after notify = %+v", recs)
	}
}

// TestJournalCloseWakesTailers pins the stream-termination contract: a
// tailer parked on the After channel wakes when the journal is closed and
// can observe Closed, instead of waiting for a record that never comes.
func TestJournalCloseWakesTailers(t *testing.T) {
	jr := NewMemJournal()
	appendN(t, jr, 1)
	recs, notify := jr.After(1)
	if len(recs) != 0 || jr.Closed() {
		t.Fatalf("fresh journal: recs=%v closed=%v", recs, jr.Closed())
	}
	done := make(chan struct{})
	go func() {
		<-notify
		close(done)
	}()
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if !jr.Closed() {
		t.Fatal("Closed() must report true after Close")
	}
	if recs := jr.Records(); len(recs) != 1 {
		t.Fatalf("closed journal lost its tail: %v", recs)
	}
}

func TestGraphSnapshotRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g1 := dataset.Figure1()
	g2 := dataset.Random(dataset.RandomOptions{Nodes: 30, Seed: 7})
	if err := st.SaveGraph("demo", g1); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveGraph("rand", g2); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveGraph("gone", g1); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteGraph("gone"); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteGraph("never-existed"); err != nil {
		t.Fatal(err)
	}

	recovered, err := st.RecoverGraphs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 || recovered[0].Name != "demo" || recovered[1].Name != "rand" {
		t.Fatalf("recovered %+v, want demo and rand", recovered)
	}
	for i, want := range []*graph.Graph{g1, g2} {
		if got := recovered[i].Graph.Text(); got != want.Text() {
			t.Fatalf("graph %s does not round-trip", recovered[i].Name)
		}
	}
}

// TestGraphSnapshotPartial injects partial-write and bit-flip corruption:
// both must fail the integrity check and be skipped, even when the
// truncated payload is still a syntactically valid edge list.
func TestGraphSnapshotPartial(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveGraph("intact", dataset.Figure1()); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveGraph("cut", dataset.Figure1()); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveGraph("flipped", dataset.Figure1()); err != nil {
		t.Fatal(err)
	}
	// Truncate "cut" at a line boundary so the remaining text still parses.
	cutPath := st.snapshotFile("cut")
	data, err := os.ReadFile(cutPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	cutAt := len(data)
	for i, b := range data {
		if b == '\n' {
			if lines++; lines == 4 {
				cutAt = i + 1
				break
			}
		}
	}
	if err := os.WriteFile(cutPath, data[:cutAt], 0o644); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of "flipped".
	flipPath := st.snapshotFile("flipped")
	data, err = os.ReadFile(flipPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x20
	if err := os.WriteFile(flipPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	recovered, err := st.RecoverGraphs()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, rg := range recovered {
		names = append(names, rg.Name)
	}
	if !reflect.DeepEqual(names, []string{"intact"}) {
		t.Fatalf("recovered %v, want only the intact snapshot", names)
	}
	m := st.Metrics()
	if m.CorruptSnapshots != 2 || m.RecoveredGraphs != 1 {
		t.Fatalf("metrics = %+v, want 2 corrupt and 1 recovered", m)
	}
}

func TestMetricsCounters(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jr, err := st.CreateJournal("s0001")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, jr, 5)
	if err := st.SaveGraph("g", dataset.Figure1()); err != nil {
		t.Fatal(err)
	}
	m := st.Metrics()
	if m.JournalAppends != 5 || m.JournalBytes == 0 {
		t.Fatalf("journal counters: %+v", m)
	}
	if m.Fsyncs < 5 || m.FsyncMeanMicros <= 0 {
		t.Fatalf("fsync counters: %+v", m)
	}
	if m.SnapshotSaves != 1 || m.SnapshotBytes == 0 {
		t.Fatalf("snapshot counters: %+v", m)
	}
}
