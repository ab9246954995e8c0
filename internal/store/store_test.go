package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dataset"
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

// TestBinarySnapshotPartial injects partial-write and bit-flip corruption
// and plants a file without the snapshot magic (the retired text format):
// each must fail the integrity check and be skipped and counted, even when
// the truncated payload still decodes as a smaller graph.
func TestBinarySnapshotPartial(t *testing.T) {
	dir := t.TempDir()
	e := openBinaryT(t, dir, EngineOptions{})
	for _, name := range []string{"intact", "cut", "flipped"} {
		if err := e.SaveGraph(name, dataset.Figure1()); err != nil {
			t.Fatal(err)
		}
	}
	graphs := filepath.Join(dir, "graphs")
	cutPath := snapshotFile(graphs, "cut")
	data, err := os.ReadFile(cutPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cutPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	flipPath := snapshotFile(graphs, "flipped")
	data, err = os.ReadFile(flipPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x20
	if err := os.WriteFile(flipPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	g := dataset.Figure1()
	text := g.Text()
	header := fmt.Sprintf(`{"name":"text","nodes":%d,"edges":%d,"bytes":%d,"crc32":%d}`,
		g.NumNodes(), g.NumEdges(), len(text), crc32.ChecksumIEEE([]byte(text)))
	if err := os.WriteFile(snapshotFile(graphs, "text"), []byte(header+"\n"+text), 0o644); err != nil {
		t.Fatal(err)
	}

	recovered, err := e.RecoverGraphs()
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
	if m := e.Metrics(); m.CorruptSnapshots != 3 || m.RecoveredGraphs != 1 {
		t.Fatalf("metrics = %+v, want 3 corrupt and 1 recovered", m)
	}
}

func TestBinaryMetricsCounters(t *testing.T) {
	st := openBinaryT(t, t.TempDir(), EngineOptions{})
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
