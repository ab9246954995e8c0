package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// ackedLog tracks the records a test appender got acknowledged, so a
// post-crash recovery can be checked against exactly what the engine
// promised was durable.
type ackedLog struct {
	mu    sync.Mutex
	acked map[string]int
}

func newAckedLog() *ackedLog { return &ackedLog{acked: make(map[string]int)} }

func (a *ackedLog) ack(sid string) {
	a.mu.Lock()
	a.acked[sid]++
	a.mu.Unlock()
}

func (a *ackedLog) count(sid string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acked[sid]
}

// verifyAcked checks that every acknowledged append of every session
// survived into the recovered record map, with the payloads intact.
func verifyAcked(t *testing.T, recs map[string][]Record, log *ackedLog, sids ...string) {
	t.Helper()
	for _, sid := range sids {
		want := log.count(sid)
		got := recs[sid]
		if len(got) < want {
			t.Fatalf("session %s: recovered %d records, %d were acked", sid, len(got), want)
		}
		for i := 0; i < want; i++ {
			var p testPayload
			if got[i].Seq != uint64(i+1) || json.Unmarshal(got[i].Data, &p) != nil || p.N != i+1 {
				t.Fatalf("session %s record %d corrupted: %+v", sid, i, got[i])
			}
		}
	}
}

// TestBinaryLiveCompactionConcurrentAppends runs repeated live
// compactions while appender goroutines keep writing, then recovers and
// checks nothing acked was lost, the tombstoned session is gone and the
// finished one collapsed to its summary.
func TestBinaryLiveCompactionConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	e := openBinaryT(t, dir, EngineOptions{SegmentSize: 256})
	log := newAckedLog()

	finished, err := e.CreateJournal("finished")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, finished, 4)
	if err := finished.AppendTerminal("done", testPayload{S: "final"}); err != nil {
		t.Fatal(err)
	}
	removed, err := e.CreateJournal("removed")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, removed, 3)
	if err := removed.Remove(); err != nil {
		t.Fatal(err)
	}

	const appenders = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < appenders; i++ {
		sid := fmt.Sprintf("live-%d", i)
		jr, err := e.CreateJournal(sid)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := jr.Append("event", testPayload{N: n}); err != nil {
					t.Errorf("append %s/%d: %v", sid, n, err)
					return
				}
				log.ack(sid)
			}
		}()
	}

	var retired int
	for i := 0; i < 5; i++ {
		time.Sleep(5 * time.Millisecond)
		rep, err := e.Compact()
		if err != nil {
			t.Fatalf("live compaction %d: %v", i, err)
		}
		retired += rep.SegmentsRetired
	}
	close(stop)
	wg.Wait()
	if retired == 0 {
		t.Fatal("five live compactions under sustained appends retired no segment")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openBinaryT(t, dir, EngineOptions{})
	recs := recsOf(t, e2)
	verifyAcked(t, recs, log, "live-0", "live-1", "live-2", "live-3")
	if _, ok := recs["removed"]; ok {
		t.Fatal("tombstoned session survived live compaction")
	}
	fin := recs["finished"]
	if len(fin) != 2 || fin[1].Type != "done" {
		t.Fatalf("finished session = %+v, want its 2-record summary", fin)
	}
	if m := e2.Metrics(); m.CorruptFrames != 0 {
		t.Fatalf("clean run reported corrupt frames: %+v", m)
	}
}

// TestBinaryLiveCompactionCrashAtEveryPhase aborts a live compaction at
// each fault point in turn — with an appender racing it — and verifies
// the repaired wal still holds every acknowledged record. This is the
// online counterpart of TestBinaryCompactionCrashRepair: an abort at any
// phase must leave one of the directory states repairCompaction handles.
func TestBinaryLiveCompactionCrashAtEveryPhase(t *testing.T) {
	phases := []string{
		"compact-begin", "compact-scanned", "compact-written",
		"compact-swap-begin", "compact-linked", "compact-swap-mid",
		"compact-swapped", "compact-done",
	}
	for _, phase := range phases {
		t.Run(phase, func(t *testing.T) {
			dir := t.TempDir()
			boom := errors.New("injected fault")
			e := openBinaryT(t, dir, EngineOptions{
				SegmentSize: 128,
				Fault: func(point string) error {
					if point == phase {
						return boom
					}
					return nil
				},
			})
			log := newAckedLog()
			finished, err := e.CreateJournal("finished")
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, finished, 3)
			if err := finished.AppendTerminal("done", testPayload{S: "final"}); err != nil {
				t.Fatal(err)
			}
			removed, err := e.CreateJournal("removed")
			if err != nil {
				t.Fatal(err)
			}
			if err := removed.Remove(); err != nil {
				t.Fatal(err)
			}
			live, err := e.CreateJournal("live")
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 1; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					// Appends may start failing once the abort poisons the
					// engine (a swap left half-done); only acked ones count.
					if err := live.Append("event", testPayload{N: n}); err != nil {
						return
					}
					log.ack("live")
				}
			}()
			_, err = e.Compact()
			close(stop)
			wg.Wait()
			if !errors.Is(err, boom) {
				t.Fatalf("compaction at %s returned %v, want the injected fault", phase, err)
			}
			e.Close()

			e2 := openBinaryT(t, dir, EngineOptions{})
			recs := recsOf(t, e2)
			verifyAcked(t, recs, log, "live")
			if _, ok := recs["removed"]; ok {
				t.Fatal("tombstoned session resurrected by the aborted compaction")
			}
			fin := recs["finished"]
			if len(fin) == 0 || fin[len(fin)-1].Type != "done" {
				t.Fatalf("finished session lost its terminal record: %+v", fin)
			}
			// And the repaired wal compacts cleanly.
			if _, err := e2.Compact(); err != nil {
				t.Fatalf("offline compaction after repair: %v", err)
			}
			if got := recsOf(t, e2); len(got["live"]) < log.count("live") {
				t.Fatalf("post-repair compaction lost records: %d < %d", len(got["live"]), log.count("live"))
			}
		})
	}
}

// TestBinaryConcurrentCompactRefused: a second Compact while one is
// running fails fast with ErrCompacting.
func TestBinaryConcurrentCompactRefused(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	e := openBinaryT(t, t.TempDir(), EngineOptions{
		Fault: func(point string) error {
			if point == "compact-scanned" {
				close(entered)
				<-release
			}
			return nil
		},
	})
	jr, err := e.CreateJournal("s0001")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, jr, 3)
	done := make(chan error, 1)
	go func() {
		_, err := e.Compact()
		done <- err
	}()
	<-entered
	if _, err := e.Compact(); !errors.Is(err, ErrCompacting) {
		t.Fatalf("concurrent compact returned %v, want ErrCompacting", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// referenceScanWal is a test-local port of the pre-streaming recovery
// reader (whole-segment os.ReadFile, no footer awareness beyond skipping
// unknown frames, no resynchronisation), used as the semantics oracle for
// the streaming reader. It never writes to disk.
func referenceScanWal(t *testing.T, walDir string) map[string][]Record {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(walDir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var m metrics
	sessions := make(map[string]*scanSession)
	for si, path := range matches {
		last := si == len(matches)-1
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for off < len(data) {
			if len(data)-off < frameHeaderSize {
				break
			}
			frameLen := int(binary.LittleEndian.Uint32(data[off:]))
			if frameLen > maxFrameSize || off+frameHeaderSize+frameLen > len(data) {
				break
			}
			payload := data[off+frameHeaderSize : off+frameHeaderSize+frameLen]
			if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:]) {
				if last {
					break
				}
				off += frameHeaderSize + frameLen
				continue
			}
			if df, err := decodePayload(payload); err == nil && df.flag != flagIndex && df.flag != flagTrailer && df.flag != flagEpoch {
				applyFrame(sessions, df, &m)
			}
			off += frameHeaderSize + frameLen
		}
	}
	out := make(map[string][]Record)
	for sid, sc := range sessions {
		if sc.tombstoned {
			continue
		}
		out[sid] = sc.recs
	}
	return out
}

// TestBinaryStreamingRecoveryEquivalence replays randomized traffic —
// including torn and bit-flipped tails — through the old whole-file
// reader and the streaming reader and requires identical surviving
// records.
func TestBinaryStreamingRecoveryEquivalence(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			segSize := int64(0) // default: one big tail segment
			if seed%2 == 1 {
				segSize = int64(100 + rng.Intn(300)) // several sealed segments
			}
			e := openBinaryT(t, dir, EngineOptions{SegmentSize: segSize})
			journals := make(map[string]*Journal)
			for i := 0; i < 6; i++ {
				sid := fmt.Sprintf("s%04d", i)
				jr, err := e.CreateJournal(sid)
				if err != nil {
					t.Fatal(err)
				}
				journals[sid] = jr
			}
			sids := make([]string, 0, len(journals))
			for sid := range journals {
				sids = append(sids, sid)
			}
			for op := 0; op < 120; op++ {
				sid := sids[rng.Intn(len(sids))]
				jr := journals[sid]
				if jr == nil {
					continue
				}
				switch rng.Intn(20) {
				case 0:
					if err := jr.AppendTerminal("done", testPayload{S: sid}); err != nil {
						t.Fatal(err)
					}
					journals[sid] = nil
				case 1:
					if err := jr.Remove(); err != nil {
						t.Fatal(err)
					}
					journals[sid] = nil
				default:
					if err := jr.Append("event", testPayload{N: op}); err != nil {
						t.Fatal(err)
					}
				}
			}
			e.Close()

			// Tear the tail: truncate a few bytes off the last segment or
			// flip a byte in its back half (both readers must stop at the
			// same frame).
			walDir := filepath.Join(dir, "wal")
			matches, err := filepath.Glob(filepath.Join(walDir, "seg-*.seg"))
			if err != nil || len(matches) == 0 {
				t.Fatalf("no segments: %v", err)
			}
			tail := matches[len(matches)-1]
			if fi, err := os.Stat(tail); err == nil && fi.Size() > frameHeaderSize {
				switch rng.Intn(3) {
				case 0:
					if err := os.Truncate(tail, fi.Size()-int64(1+rng.Intn(int(fi.Size()/2)))); err != nil {
						t.Fatal(err)
					}
				case 1:
					data, err := os.ReadFile(tail)
					if err != nil {
						t.Fatal(err)
					}
					data[len(data)/2+rng.Intn(len(data)/2)] ^= 0x40
					if err := os.WriteFile(tail, data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}

			want := referenceScanWal(t, walDir)
			e2 := openBinaryT(t, dir, EngineOptions{})
			got := recsOf(t, e2)
			if len(got) != len(want) {
				t.Fatalf("session sets differ: streaming %d vs reference %d", len(got), len(want))
			}
			for sid, recs := range want {
				if !reflect.DeepEqual(got[sid], recs) {
					t.Fatalf("session %s diverged:\nstreaming %+v\nreference %+v", sid, got[sid], recs)
				}
			}
		})
	}
}

// TestBinarySegmentFooters checks that rolled segments carry a parseable
// index footer whose offsets point at real frames, and that the footer
// fast path serves id enumeration without scanning.
func TestBinarySegmentFooters(t *testing.T) {
	dir := t.TempDir()
	e := openBinaryT(t, dir, EngineOptions{SegmentSize: 200})
	for i := 0; i < 3; i++ {
		jr, err := e.CreateJournal(fmt.Sprintf("s%04d", i))
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, jr, 8)
	}
	if m := e.Metrics(); m.FootersWritten == 0 {
		t.Fatalf("rolled segments wrote no footers: %+v", m)
	}
	e.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal", "seg-*.seg"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want several segments, got %v", segs)
	}
	footered := 0
	for _, path := range segs[:len(segs)-1] {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		entries, indexOff, ok := readSegmentFooter(path, fi.Size())
		if !ok {
			continue
		}
		footered++
		if indexOff <= 0 || len(entries) == 0 {
			t.Fatalf("segment %s: empty footer", path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			for _, off := range ent.offsets {
				if off < 0 || off+frameHeaderSize > int64(len(data)) {
					t.Fatalf("segment %s: offset %d out of range", path, off)
				}
				frameLen := int64(binary.LittleEndian.Uint32(data[off:]))
				payload := data[off+frameHeaderSize : off+frameHeaderSize+frameLen]
				if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:]) {
					t.Fatalf("segment %s: footer offset %d does not frame a valid record", path, off)
				}
				df, err := decodePayload(payload)
				if err != nil || df.sid != ent.sid {
					t.Fatalf("segment %s: offset %d decodes to %+v, want session %s", path, off, df, ent.sid)
				}
			}
		}
	}
	if footered == 0 {
		t.Fatal("no sealed segment had a readable footer")
	}

	// ensureScanned (via CreateJournal) enumerates ids from footers
	// without reading sealed frames, and still refuses duplicates.
	e2 := openBinaryT(t, dir, EngineOptions{})
	if _, err := e2.CreateJournal("s0001"); err == nil {
		t.Fatal("duplicate id from a footered segment must be refused")
	}
	if m := e2.Metrics(); m.FooterHits == 0 {
		t.Fatalf("id enumeration never hit a footer: %+v", m)
	}
}

// TestBinaryFooterResync destroys the framing mid-way through a sealed,
// footered segment and verifies the scan resynchronises at the next
// footer-known frame boundary instead of dropping the rest of the
// segment — the sessions whose frames follow the damage keep them.
func TestBinaryFooterResync(t *testing.T) {
	dir := t.TempDir()
	e := openBinaryT(t, dir, EngineOptions{SegmentSize: 300})
	a, err := e.CreateJournal("aaaa")
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.CreateJournal("bbbb")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		if err := a.Append("event", testPayload{N: i}); err != nil {
			t.Fatal(err)
		}
		if err := b.Append("event", testPayload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal", "seg-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want sealed segments, got %v", segs)
	}
	// Find a sealed segment whose footer lists a frame of session aaaa
	// with at least one later frame of bbbb, and wreck aaaa's frame header
	// there (structural damage, not a flip).
	var hit bool
	var hitSeg string
	for _, path := range segs[:len(segs)-1] {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		entries, _, ok := readSegmentFooter(path, fi.Size())
		if !ok {
			continue
		}
		var aOff, bAfter int64 = -1, -1
		for _, ent := range entries {
			switch ent.sid {
			case "aaaa":
				if len(ent.offsets) > 0 {
					aOff = ent.offsets[0]
				}
			}
		}
		if aOff < 0 {
			continue
		}
		for _, ent := range entries {
			if ent.sid != "bbbb" {
				continue
			}
			for _, off := range ent.offsets {
				if off > aOff {
					bAfter = off
					break
				}
			}
		}
		if bAfter < 0 {
			continue
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, aOff); err != nil {
			t.Fatal(err)
		}
		f.Close()
		hit, hitSeg = true, path
		break
	}
	if !hit {
		t.Skip("no segment interleaved aaaa before bbbb; layout changed")
	}
	_ = hitSeg

	e2 := openBinaryT(t, dir, EngineOptions{})
	recs := recsOf(t, e2)
	// Session bbbb must keep all 12 records: the frames after the damage
	// are only reachable through the footer resync.
	if got := len(recs["bbbb"]); got != 12 {
		t.Fatalf("bystander session kept %d records, want all 12 (footer resync)", got)
	}
	// Session aaaa is truncated at its first gap, like any mid-log loss.
	if got := len(recs["aaaa"]); got >= 12 || got < 0 {
		t.Fatalf("damaged session kept %d records, want a strict prefix", got)
	}
	m := e2.Metrics()
	if m.CorruptFrames == 0 || m.FooterHits == 0 {
		t.Fatalf("resync not exercised: %+v", m)
	}
}
