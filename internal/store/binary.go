package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// The engine interleaves every session journal into one segmented log:
//
//	<dir>/graphs/<name>.graph     binary varint-CSR graph snapshots
//	<dir>/wal/seg-00000001.seg    CRC-framed record segments
//	<dir>/wal.compact, wal.old    transient directories during compaction
//
// Each frame is [u32le payload length][u32le payload CRC32][payload]; the
// payload starts with a flag byte and the session id, then the record:
//
//	flag 0  data record        seq, type, JSON payload
//	flag 1  tombstone          the session was removed; drop its records
//	flag 2  terminal record    like data, and the session is finished
//	flag 3  summary            a finished session compacted to one frame
//	flag 4  index              per-session frame listing (sealed segments)
//	flag 5  trailer            fixed-size locator of the index frame
//
// All appends funnel through a single group-commit writer goroutine: an
// append hands its frame over and blocks until the batch it joined is
// written and fsynced — the record is durable before Append returns — but
// one fsync covers every append that arrived while the previous one was in
// flight (plus, optionally, a CommitInterval batching window). Terminal
// records never wait out the window: they flush the batch immediately, so
// a finished session is durable the moment it reports done.
//
// Recovery replays the segments in order, streaming each one frame at a
// time (memory is bounded by the largest frame, not the segment size). A
// structurally torn tail (short header, length overrunning the file) in
// the final segment is truncated away; a
// CRC-failed frame in an earlier segment is skipped and counted, and the
// per-session sequence check then truncates only the affected session at
// its first gap. Sealed segments end with an index footer (flags 4/5)
// that lets scans enumerate session ids without decoding frames and
// resynchronise past structural damage; when the footer is absent or
// fails its CRC the scan falls back to reading every frame.
//
// Compaction runs in two modes sharing one crash-safe swap protocol (the
// new wal is fully fsynced in wal.compact, then two renames move it into
// place, and repairCompaction can always finish or undo the swap):
// offline (before any journal exists, gpsd -compact) rewrites everything;
// live (appends in flight) asks the writer goroutine to seal the active
// segment, compacts only the sealed segments, and swaps while appends
// continue into fresh segments — the writer's open segment is hard-linked
// into the new wal, so its file descriptor stays valid across the swap
// and no append ever blocks for more than the seal/swap control requests,
// each about one group-commit batch window.

const (
	flagData      = 0
	flagTombstone = 1
	flagTerminal  = 2
	flagSummary   = 3
	flagIndex     = 4
	flagTrailer   = 5
	// flagEpoch marks a fencing-epoch frame: the first frame of every
	// segment the writer (or compaction) creates records the primary epoch
	// the segment was written under. Scans skip it like the footer frames;
	// replication followers read it to notice a stale primary's output.
	flagEpoch = 6

	// frameHeaderSize is the fixed [length][crc] prefix.
	frameHeaderSize = 8
	// maxFrameSize bounds a frame's declared payload length; anything
	// larger is structural corruption, not a record.
	maxFrameSize = 64 << 20

	defaultSegmentSize = 4 << 20
)

func segmentPath(walDir string, idx uint64) string {
	return filepath.Join(walDir, fmt.Sprintf("seg-%08d.seg", idx))
}

// segmentIndex parses a segment file name, returning ok=false for foreign
// files.
func segmentIndex(name string) (uint64, bool) {
	var idx uint64
	if n, err := fmt.Sscanf(name, "seg-%d.seg", &idx); n != 1 || err != nil {
		return 0, false
	}
	return idx, true
}

// appendReq is one append waiting for its group commit, or (ctl set) a
// control request the writer runs exclusively between batches — how live
// compaction seals the active segment and swaps the wal without ever
// taking the writer's ownership of the tail away from it.
type appendReq struct {
	frame    []byte
	sid      string
	flag     byte
	terminal bool
	ctl      func() error
	err      chan error
}

// Engine is the durable store: one data directory holding the segmented
// wal and the graph snapshots, written by one group-commit goroutine. It
// is safe for concurrent use.
type Engine struct {
	dir            string
	commitInterval time.Duration
	segmentSize    int64
	m              metrics

	mu sync.Mutex
	// closed refuses new appends; inflight lets Close wait out the ones
	// already submitted.
	closed   bool
	inflight sync.WaitGroup
	// started flips on the first append: afterwards the wal may no longer
	// be rescanned (RecoverSessions) or rewritten (Compact).
	started bool
	// journalsActive counts journals handed out; Compact requires zero.
	journalsActive int
	// sids tracks every session id ever seen in the wal (including
	// tombstoned ones), so CreateJournal never reuses an id; scanned
	// records whether the wal has been read to populate it.
	sids    map[string]struct{}
	scanned bool
	// compacting serialises Compact runs (a second concurrent call fails
	// with ErrCompacting) and fences RecoverSessions off the swap window.
	compacting bool

	reqs chan *appendReq
	quit chan struct{}
	wg   sync.WaitGroup

	// Writer-goroutine state: the open segment, its size, the index of
	// the last segment created, and the first unrecoverable write error
	// (after which every append fails — a half-written batch makes the
	// segment tail untrustworthy).
	seg    *os.File
	segOff int64
	segErr error
	// nextSeg is the highest segment index on disk (or created); rotate
	// reopens that tail once (tailTried) before sealing it and moving on.
	nextSeg   uint64
	tailTried bool
	// segIndex accumulates the open segment's session index footer; nil
	// for a reopened tail, whose pre-existing frames the writer never saw
	// (such a segment seals without a footer and scans fall back).
	segIndex *segIndexBuilder
	// fault is the test/chaos fault-injection hook (EngineOptions.Fault),
	// called at named points of the compaction protocol.
	fault func(string) error

	// repl publishes the writer's durable position (and the wal generation
	// and fencing epoch) to replication feeds; see replicate.go. The writer
	// goroutine updates it after every fsync, so a feed never streams bytes
	// that could still be lost in a crash.
	repl replPub

	// lastCompactFrames records the published frame count at the start of
	// the last completed live compaction, offset by one (0 = none yet). A
	// pass that would start at the same count is skipped: it could not
	// shrink anything, and its generation bump would force every
	// replication follower into a pointless full resync.
	lastCompactFrames atomic.Uint64
}

// OpenEngine creates (if needed) and opens a data directory. A directory
// holding session journals of the retired JSONL text engine
// (sessions/*.jsonl) is refused before anything in it is created or
// changed: this engine cannot read them, and recovering zero sessions
// from a populated directory would look like a healthy boot while
// abandoning every session in it. Drain such a directory with the build
// that wrote it.
func OpenEngine(dir string, opts EngineOptions) (*Engine, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty data directory")
	}
	if err := refuseTextJournals(dir); err != nil {
		return nil, err
	}
	// The wal directory is created only after crash repair: an interrupted
	// compaction can legitimately leave no wal (mid-swap), and creating an
	// empty one here would make the repair mistake that state for "wal
	// intact" and discard the compacted data.
	for _, d := range []string{dir, filepath.Join(dir, "graphs")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	e := &Engine{
		dir:            dir,
		commitInterval: opts.CommitInterval,
		segmentSize:    opts.SegmentSize,
		sids:           make(map[string]struct{}),
		reqs:           make(chan *appendReq, 1024),
		quit:           make(chan struct{}),
		fault:          opts.Fault,
	}
	if e.segmentSize <= 0 {
		e.segmentSize = defaultSegmentSize
	}
	if err := e.repairCompaction(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.walDir(), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	segs, err := e.listSegments()
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		e.nextSeg = segs[len(segs)-1].idx
	}
	gen, err := loadOrInitCounterFile(filepath.Join(e.walDir(), walGenFile), 1)
	if err != nil {
		return nil, err
	}
	epoch, err := loadOrInitCounterFile(filepath.Join(dir, epochFile), 1)
	if err != nil {
		return nil, err
	}
	e.repl.init(gen, epoch)
	e.wg.Add(1)
	go e.writer()
	return e, nil
}

// Dir returns the data directory path.
func (e *Engine) Dir() string { return e.dir }

// Metrics returns a point-in-time snapshot of the engine's counters.
func (e *Engine) Metrics() Metrics { return e.m.snapshot() }

// refuseTextJournals fails when dir holds sessions/*.jsonl, naming the
// first such file. It only reads.
func refuseTextJournals(dir string) error {
	sessions := filepath.Join(dir, "sessions")
	entries, err := os.ReadDir(sessions)
	if err != nil {
		return nil // no sessions directory: nothing to refuse
	}
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ".jsonl") {
			return fmt.Errorf("store: %s holds text-engine session journals (%s): this build reads only the wal; finish or delete those sessions with the build that wrote them",
				dir, filepath.Join(sessions, ent.Name()))
		}
	}
	return nil
}

// faultPoint invokes the injected fault hook, if any. A chaos harness
// hook typically kills the process outright; a test hook returns an error
// to abort the protocol at that point.
func (e *Engine) faultPoint(name string) error {
	if e.fault == nil {
		return nil
	}
	if err := e.fault(name); err != nil {
		return fmt.Errorf("store: fault at %s: %w", name, err)
	}
	return nil
}

func (e *Engine) graphsDir() string { return filepath.Join(e.dir, "graphs") }
func (e *Engine) walDir() string    { return filepath.Join(e.dir, "wal") }

// SaveGraph writes (or atomically replaces) the snapshot of a graph.
func (e *Engine) SaveGraph(name string, g *graph.Graph) error {
	if err := writeSnapshotFile(e.graphsDir(), name, encodeSnapshot(name, g), &e.m); err != nil {
		return fmt.Errorf("store: save graph %q: %w", name, err)
	}
	return nil
}

// DeleteGraph removes the snapshot of an unregistered graph.
func (e *Engine) DeleteGraph(name string) error {
	return deleteGraphSnapshot(e.graphsDir(), name)
}

// RecoverGraphs loads every intact graph snapshot, sorted by name.
func (e *Engine) RecoverGraphs() ([]RecoveredGraph, error) {
	return recoverGraphSnapshots(e.graphsDir(), &e.m)
}

// Close stops accepting appends, waits for in-flight group commits and
// shuts the writer down.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.inflight.Wait()
	close(e.quit)
	e.wg.Wait()
	return nil
}

// submit hands a frame to the group-commit writer and blocks until the
// batch containing it is durable.
func (e *Engine) submit(frame []byte, sid string, flag byte, terminal bool) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return fmt.Errorf("store: engine is closed")
	}
	e.started = true
	e.inflight.Add(1)
	e.mu.Unlock()
	defer e.inflight.Done()
	req := &appendReq{frame: frame, sid: sid, flag: flag, terminal: terminal, err: make(chan error, 1)}
	e.reqs <- req
	return <-req.err
}

// control runs fn on the writer goroutine, exclusively between commit
// batches, and blocks until it returns. It registers in inflight like an
// append, so Close waits it out and the writer is guaranteed to answer.
func (e *Engine) control(fn func() error) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return fmt.Errorf("store: engine is closed")
	}
	e.inflight.Add(1)
	e.mu.Unlock()
	defer e.inflight.Done()
	req := &appendReq{ctl: fn, err: make(chan error, 1)}
	e.reqs <- req
	return <-req.err
}

// writer is the group-commit goroutine: it owns the open segment and is
// the only writer of wal bytes after open.
func (e *Engine) writer() {
	defer e.wg.Done()
	defer func() {
		if e.seg != nil {
			e.seg.Close()
		}
	}()
	for {
		var first *appendReq
		select {
		case first = <-e.reqs:
		case <-e.quit:
			return
		}
		for first != nil {
			if first.ctl != nil {
				first.err <- first.ctl()
				first = nil
				continue
			}
			batch, ctl := e.gather(first)
			err := e.commit(batch)
			for _, r := range batch {
				r.err <- err
			}
			// A control request that interrupted the gather runs next,
			// before any newly queued appends: a pending seal or swap is
			// delayed by at most the batch it landed behind.
			first = ctl
		}
	}
}

// gatherYields bounds the adaptive batching loop: how many consecutive
// empty scheduler yields the writer tolerates before committing. Yields
// cost well under a microsecond each, so the added latency floor is a few
// microseconds — invisible next to an fsync — while concurrent appenders
// that were just woken by the previous commit get enough scheduler turns
// to join the batch.
const gatherYields = 64

// gather assembles one commit batch. Everything already queued joins
// immediately; then the writer either waits out the configured batching
// window (CommitInterval > 0) or adaptively yields until arrivals stop,
// which batches near the concurrency level without imposing a fixed
// latency on light load. A terminal record ends gathering immediately so
// a session's final fsync is never delayed, and a control request ends it
// too (returned as ctl, to run right after the batch commits).
func (e *Engine) gather(first *appendReq) (batch []*appendReq, ctl *appendReq) {
	batch = []*appendReq{first}
	terminal := first.terminal
	drain := func() bool {
		grew := false
		for !terminal && ctl == nil {
			select {
			case r := <-e.reqs:
				if r.ctl != nil {
					ctl = r
					return grew
				}
				batch = append(batch, r)
				terminal = r.terminal
				grew = true
			default:
				return grew
			}
		}
		return grew
	}
	drain()
	if terminal || ctl != nil {
		return batch, ctl
	}
	if e.commitInterval > 0 {
		timer := time.NewTimer(e.commitInterval)
		defer timer.Stop()
		for !terminal && ctl == nil {
			select {
			case r := <-e.reqs:
				if r.ctl != nil {
					ctl = r
					continue
				}
				batch = append(batch, r)
				terminal = r.terminal
			case <-timer.C:
				return batch, ctl
			}
		}
		return batch, ctl
	}
	for idle := 0; idle < gatherYields && !terminal && ctl == nil; idle++ {
		runtime.Gosched()
		if drain() {
			idle = 0
		}
	}
	return batch, ctl
}

// commit writes a batch into the current segment and fsyncs once. After
// the first write or sync failure the engine is poisoned: a half-written
// batch makes the tail untrustworthy, so every later append fails too.
func (e *Engine) commit(batch []*appendReq) error {
	if e.segErr != nil {
		return e.segErr
	}
	var size int64
	for _, r := range batch {
		size += int64(len(r.frame))
	}
	if e.seg == nil || e.segOff >= e.segmentSize {
		if err := e.rotate(); err != nil {
			e.segErr = err
			return err
		}
	}
	buf := make([]byte, 0, size)
	for _, r := range batch {
		buf = append(buf, r.frame...)
	}
	if _, err := e.seg.Write(buf); err != nil {
		e.segErr = fmt.Errorf("store: segment write: %w", err)
		return e.segErr
	}
	start := time.Now()
	if err := e.seg.Sync(); err != nil {
		e.segErr = fmt.Errorf("store: segment fsync: %w", err)
		return e.segErr
	}
	if e.segIndex != nil {
		off := e.segOff
		for _, r := range batch {
			e.segIndex.add(r.sid, r.flag, off)
			off += int64(len(r.frame))
		}
	}
	e.segOff += size
	e.m.fsyncs.Add(1)
	e.m.fsyncNanos.Add(time.Since(start).Nanoseconds())
	e.m.groupCommits.Add(1)
	e.m.journalAppends.Add(int64(len(batch)))
	e.m.journalBytes.Add(size)
	e.repl.publish(e.nextSeg, e.segOff, uint64(len(batch)))
	return nil
}

// rotate opens the segment the next batch writes into: on the engine's
// first commit it reopens the existing tail segment for appending if one
// is there with budget left (restarts do not proliferate near-empty
// segments), otherwise it seals the current segment and creates the next
// one. Reopening the tail is safe because every scan path truncates a
// torn tail before the first append can happen.
func (e *Engine) rotate() error {
	if e.seg != nil {
		if err := e.sealCurrent(); err != nil {
			return err
		}
	} else if !e.tailTried && e.nextSeg > 0 {
		e.tailTried = true
		path := segmentPath(e.walDir(), e.nextSeg)
		if fi, err := os.Stat(path); err == nil && fi.Size() < e.segmentSize {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("store: reopen segment: %w", err)
			}
			e.seg = f
			e.segOff = fi.Size()
			// The writer never saw this segment's earlier frames, so it
			// cannot build a complete index footer for it: scans of this
			// segment fall back to reading every frame. (Any footer the
			// tail already carries stops being trusted the moment appends
			// bury its trailer mid-file.)
			e.segIndex = nil
			e.repl.publish(e.nextSeg, e.segOff, 0)
			return nil
		}
	}
	e.nextSeg++
	path := segmentPath(e.walDir(), e.nextSeg)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	if err := syncDir(e.walDir()); err != nil {
		f.Close()
		return fmt.Errorf("store: create segment: %w", err)
	}
	// Every fresh segment opens with an epoch frame, so any reader of the
	// wal (recovery, a replication follower) can tell which primary epoch
	// produced it. The frame is fsynced before the position is published:
	// a feed must never stream bytes a crash could take back.
	frame := encodeFrame(encodeEpochPayload(e.repl.snapshot().Epoch))
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return fmt.Errorf("store: create segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: create segment: %w", err)
	}
	e.seg = f
	e.segOff = int64(len(frame))
	e.segIndex = newSegIndexBuilder()
	e.m.segmentsCreated.Add(1)
	e.repl.publish(e.nextSeg, e.segOff, 0)
	return nil
}

// sealCurrent closes the open segment, appending its index footer first
// when the writer has seen every frame in it. Called by rotate on
// roll-over and by the live-compaction seal control request; a failure
// leaves the segment unsealed but correct (footers are optional).
func (e *Engine) sealCurrent() error {
	if e.seg == nil {
		return nil
	}
	if e.segIndex != nil && !e.segIndex.empty() {
		footer := encodeSegmentFooter(e.segIndex.entries(), e.segOff)
		if _, err := e.seg.Write(footer); err != nil {
			e.seg.Close()
			e.seg = nil
			return fmt.Errorf("store: seal segment: %w", err)
		}
		if err := e.seg.Sync(); err != nil {
			e.seg.Close()
			e.seg = nil
			return fmt.Errorf("store: seal segment: %w", err)
		}
		e.segOff += int64(len(footer))
		e.m.footersWritten.Add(1)
		e.repl.publish(e.nextSeg, e.segOff, 0)
	}
	err := e.seg.Close()
	e.seg = nil
	e.segIndex = nil
	if err != nil {
		return fmt.Errorf("store: close segment: %w", err)
	}
	return nil
}

// --- frame encoding ---------------------------------------------------------

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// encodeFrame wraps a payload in the [length][crc] header.
func encodeFrame(payload []byte) []byte {
	out := make([]byte, 0, frameHeaderSize+len(payload))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// encodeRecordPayload builds a data or terminal payload.
func encodeRecordPayload(flag byte, sid string, rec Record) []byte {
	buf := make([]byte, 0, 16+len(sid)+len(rec.Type)+len(rec.Data))
	buf = append(buf, flag)
	buf = appendString(buf, sid)
	buf = binary.AppendUvarint(buf, rec.Seq)
	buf = appendString(buf, rec.Type)
	return append(buf, rec.Data...)
}

// encodeTombstonePayload marks a session removed.
func encodeTombstonePayload(sid string) []byte {
	buf := make([]byte, 0, 2+len(sid))
	buf = append(buf, flagTombstone)
	return appendString(buf, sid)
}

// encodeSummaryPayload collapses a finished session to one frame.
func encodeSummaryPayload(sid string, recs []Record) []byte {
	size := 8 + len(sid)
	for _, r := range recs {
		size += 16 + len(r.Type) + len(r.Data)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, flagSummary)
	buf = appendString(buf, sid)
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for _, r := range recs {
		buf = binary.AppendUvarint(buf, r.Seq)
		buf = appendString(buf, r.Type)
		buf = binary.AppendUvarint(buf, uint64(len(r.Data)))
		buf = append(buf, r.Data...)
	}
	return buf
}

// frameReader decodes payload fields with bounds checking.
type frameReader struct {
	data []byte
	off  int
}

func (r *frameReader) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, false
	}
	r.off += n
	return v, true
}

func (r *frameReader) string() (string, bool) {
	n, ok := r.uvarint()
	if !ok || n > uint64(len(r.data)-r.off) {
		return "", false
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, true
}

func (r *frameReader) bytes(n uint64) ([]byte, bool) {
	if n > uint64(len(r.data)-r.off) {
		return nil, false
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b, true
}

// decodedFrame is one parsed wal payload.
type decodedFrame struct {
	flag    byte
	sid     string
	rec     Record   // data/terminal frames
	summary []Record // summary frames
}

// decodePayload parses one frame payload (CRC already checked).
func decodePayload(payload []byte) (decodedFrame, error) {
	bad := func() (decodedFrame, error) {
		return decodedFrame{}, fmt.Errorf("store: malformed frame payload")
	}
	if len(payload) == 0 {
		return bad()
	}
	df := decodedFrame{flag: payload[0]}
	if df.flag == flagIndex || df.flag == flagTrailer || df.flag == flagEpoch {
		// Footer and epoch frames carry no session; scans skip them and
		// their consumers parse them with their own decoders.
		return df, nil
	}
	r := &frameReader{data: payload, off: 1}
	var ok bool
	if df.sid, ok = r.string(); !ok || df.sid == "" {
		return bad()
	}
	switch df.flag {
	case flagTombstone:
		return df, nil
	case flagData, flagTerminal:
		seq, ok := r.uvarint()
		if !ok {
			return bad()
		}
		typ, ok := r.string()
		if !ok {
			return bad()
		}
		df.rec = Record{Seq: seq, Type: typ}
		if rest := payload[r.off:]; len(rest) > 0 {
			df.rec.Data = append([]byte(nil), rest...)
		}
		return df, nil
	case flagSummary:
		count, ok := r.uvarint()
		if !ok || count > uint64(len(payload)) {
			return bad()
		}
		df.summary = make([]Record, 0, count)
		for i := uint64(0); i < count; i++ {
			seq, ok := r.uvarint()
			if !ok {
				return bad()
			}
			typ, ok := r.string()
			if !ok {
				return bad()
			}
			n, ok := r.uvarint()
			if !ok {
				return bad()
			}
			data, ok := r.bytes(n)
			if !ok {
				return bad()
			}
			rec := Record{Seq: seq, Type: typ}
			if len(data) > 0 {
				rec.Data = append([]byte(nil), data...)
			}
			df.summary = append(df.summary, rec)
		}
		if r.off != len(payload) {
			return bad()
		}
		return df, nil
	default:
		return bad()
	}
}

// --- journals ---------------------------------------------------------------

// appendRecord hands one journal record to the group-commit writer and
// blocks until it is durable. terminal marks the session's last record:
// it flushes the batch at once and lets compaction collapse the session.
func (e *Engine) appendRecord(sid string, rec Record, terminal bool) error {
	flag := byte(flagData)
	if terminal {
		flag = flagTerminal
	}
	return e.submit(encodeFrame(encodeRecordPayload(flag, sid, rec)), sid, flag, terminal)
}

// tombstone appends a session's tombstone frame: its records stay in their
// segments until compaction, but recovery drops them.
func (e *Engine) tombstone(sid string) error {
	return e.submit(encodeFrame(encodeTombstonePayload(sid)), sid, flagTombstone, true)
}

// CreateJournal registers a new session id and returns its journal. The
// id must never have been used in this wal — tombstoned ids included, so
// a removed session's tombstone can never shadow a live one.
func (e *Engine) CreateJournal(id string) (*Journal, error) {
	if id == "" {
		return nil, fmt.Errorf("store: empty journal id")
	}
	if err := e.ensureScanned(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("store: engine is closed")
	}
	if _, dup := e.sids[id]; dup {
		return nil, fmt.Errorf("store: journal %s already exists", id)
	}
	e.sids[id] = struct{}{}
	e.journalsActive++
	return &Journal{notify: make(chan struct{}), name: id, e: e}, nil
}

// ensureScanned populates the known-session-id set on first use, so a
// server that skips Recover still cannot collide with ids already in the
// wal. Runs
// before any append, so repairing a torn tail here is safe.
func (e *Engine) ensureScanned() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.scanned {
		return nil
	}
	segs, err := e.listSegments()
	if err != nil {
		return err
	}
	// ids-only mode: sealed segments with an index footer contribute their
	// session ids without a single frame read, so a server that skips
	// Recover starts in O(footers) instead of O(wal bytes).
	sessions, err := e.scanSegments(segs, walScanOptions{truncateTail: true, idsOnly: true})
	if err != nil {
		return err
	}
	for sid := range sessions {
		e.sids[sid] = struct{}{}
	}
	e.scanned = true
	return nil
}

// RecoverSessions replays the wal into per-session journals, sorted by
// session id, with every surviving record preloaded so a resumed session
// keeps appending where the crashed process stopped. It must run before
// the first append: afterwards the writer owns the tail and the scan's
// torn-tail truncation would race it.
func (e *Engine) RecoverSessions() ([]RecoveredSession, error) {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return nil, fmt.Errorf("store: recover after appends have started")
	}
	if e.compacting {
		e.mu.Unlock()
		return nil, fmt.Errorf("store: recover while a compaction is running")
	}
	sessions, err := e.scanWal(true)
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	for sid := range sessions {
		e.sids[sid] = struct{}{}
	}
	out := make([]RecoveredSession, 0, len(sessions))
	for sid, sc := range sessions {
		if sc.tombstoned {
			continue
		}
		e.m.recoveredSessions.Add(1)
		e.journalsActive++
		out = append(out, RecoveredSession{
			ID:      sid,
			Journal: &Journal{notify: make(chan struct{}), recs: sc.recs, name: sid, e: e},
		})
	}
	e.scanned = true
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// --- wal scanning -----------------------------------------------------------

type segInfo struct {
	idx  uint64
	path string
	size int64
}

func (e *Engine) listSegments() ([]segInfo, error) {
	return listSegmentDir(e.walDir())
}

// listSegmentDir enumerates the wal segments of a directory in index
// order. Shared by the engine and the replication applier, which
// maintains a physical wal replica without opening an engine.
func listSegmentDir(walDir string) ([]segInfo, error) {
	entries, err := os.ReadDir(walDir)
	if err != nil {
		return nil, fmt.Errorf("store: list segments: %w", err)
	}
	segs := make([]segInfo, 0, len(entries))
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		idx, ok := segmentIndex(ent.Name())
		if !ok {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			return nil, fmt.Errorf("store: list segments: %w", err)
		}
		segs = append(segs, segInfo{idx: idx, path: filepath.Join(walDir, ent.Name()), size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	return segs, nil
}

// scanSession accumulates one session's surviving state during a scan.
type scanSession struct {
	recs       []Record
	finished   bool
	tombstoned bool
	// gapped records that at least one out-of-sequence record was dropped
	// (for the TruncatedJournals metric, counted once per session).
	gapped bool
}

// walScanOptions selects a scan variant.
type walScanOptions struct {
	// truncateTail cuts a structurally torn tail of the final segment off
	// on disk (and fsyncs). Only safe before the writer's first append.
	truncateTail bool
	// idsOnly skips record accumulation: sealed segments with a valid
	// index footer contribute their session ids without a single frame
	// being read, and frames that are decoded only update id-level state.
	idsOnly bool
}

// scanWal replays every segment, streaming each one frame at a time.
func (e *Engine) scanWal(truncate bool) (map[string]*scanSession, error) {
	segs, err := e.listSegments()
	if err != nil {
		return nil, err
	}
	return e.scanSegments(segs, walScanOptions{truncateTail: truncate})
}

// scanSegments replays the given segments in index order. The last listed
// segment is treated as the (possibly torn) tail; every earlier one is
// sealed: structural damage there skips to the next footer-known frame
// boundary when the segment has an index footer, or to the next segment
// when it does not.
func (e *Engine) scanSegments(segs []segInfo, opts walScanOptions) (map[string]*scanSession, error) {
	sessions := make(map[string]*scanSession)
	session := func(sid string) *scanSession {
		sc := sessions[sid]
		if sc == nil {
			sc = &scanSession{}
			sessions[sid] = sc
		}
		return sc
	}
	for si, seg := range segs {
		last := si == len(segs)-1
		if opts.idsOnly && !last {
			if entries, _, ok := readSegmentFooter(seg.path, seg.size); ok {
				for _, ent := range entries {
					sc := session(ent.sid)
					sc.tombstoned = sc.tombstoned || ent.tombstoned
					sc.finished = sc.finished || ent.finished
				}
				e.m.footerHits.Add(1)
				continue
			}
			e.m.footerFallbacks.Add(1)
		}
		if err := e.scanSegmentFrames(seg, last, opts, sessions, session); err != nil {
			return nil, err
		}
	}
	return sessions, nil
}

// scanSegmentFrames streams one segment's frames into the scan state.
func (e *Engine) scanSegmentFrames(seg segInfo, last bool, opts walScanOptions, sessions map[string]*scanSession, session func(string) *scanSession) error {
	sc, err := openFrameScanner(seg.path)
	if err != nil {
		return err
	}
	defer sc.close()
	// resync holds the segment's footer-known frame boundaries, loaded
	// lazily at the first structural fault; nil until then, empty when the
	// segment has no usable footer.
	var resyncOffsets []int64
	resyncLoaded := false
	for {
		fr, err := sc.next()
		switch {
		case err == io.EOF:
			return nil
		case errors.Is(err, errTornFrame):
			if last {
				// A torn tail: everything from here on was mid-write at the
				// crash. Truncate it away when repairing.
				if opts.truncateTail {
					if err := truncateSegment(seg.path, fr.off); err != nil {
						return err
					}
				}
				e.m.truncatedJournals.Add(1)
				return nil
			}
			// Structural damage in a sealed segment: framing is lost. With
			// an index footer the scan jumps to the next known frame
			// boundary; without one the rest of the segment is skipped.
			e.m.corruptFrames.Add(1)
			if !resyncLoaded {
				resyncLoaded = true
				if entries, indexOff, ok := readSegmentFooter(seg.path, seg.size); ok {
					resyncOffsets = footerOffsets(entries, indexOff)
					e.m.footerHits.Add(1)
				} else {
					e.m.footerFallbacks.Add(1)
				}
			}
			next, ok := nextOffsetAfter(resyncOffsets, fr.off)
			if !ok {
				return nil
			}
			if err := sc.resync(next); err != nil {
				return err
			}
		case errors.Is(err, errBadCRC):
			if last {
				// A CRC failure at the tail is indistinguishable from a torn
				// write; stop (and truncate) here.
				if opts.truncateTail {
					if err := truncateSegment(seg.path, fr.off); err != nil {
						return err
					}
				}
				e.m.truncatedJournals.Add(1)
				return nil
			}
			// Mid-log bit flip in a sealed segment: the framing is intact,
			// so skip just this frame. The per-session sequence check then
			// truncates the affected session at the gap.
			e.m.corruptFrames.Add(1)
		case err != nil:
			return err
		default:
			df, err := decodePayload(fr.payload)
			if err != nil {
				e.m.corruptFrames.Add(1)
				continue
			}
			if df.flag == flagIndex || df.flag == flagTrailer || df.flag == flagEpoch {
				continue
			}
			if opts.idsOnly {
				s := session(df.sid)
				switch df.flag {
				case flagTombstone:
					s.tombstoned = true
				case flagTerminal, flagSummary:
					s.finished = true
				}
				continue
			}
			applyFrame(sessions, df, &e.m)
		}
	}
}

// nextOffsetAfter returns the smallest offset strictly greater than off.
func nextOffsetAfter(offsets []int64, off int64) (int64, bool) {
	i := sort.Search(len(offsets), func(i int) bool { return offsets[i] > off })
	if i == len(offsets) {
		return 0, false
	}
	return offsets[i], true
}

func truncateSegment(path string, size int64) error {
	if err := os.Truncate(path, size); err != nil {
		return fmt.Errorf("store: truncate segment %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: truncate segment %s: %w", path, err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: truncate segment %s: %w", path, err)
	}
	return nil
}

// applyFrame folds one decoded frame into the scan state.
func applyFrame(sessions map[string]*scanSession, df decodedFrame, m *metrics) {
	sc := sessions[df.sid]
	if sc == nil {
		sc = &scanSession{}
		sessions[df.sid] = sc
	}
	switch df.flag {
	case flagTombstone:
		sc.tombstoned = true
		sc.recs = nil
	case flagSummary:
		if sc.tombstoned {
			return
		}
		sc.recs = df.summary
		sc.finished = true
	case flagData, flagTerminal:
		if sc.tombstoned {
			return
		}
		// A record whose sequence number does not extend the session's
		// valid prefix is dropped — but only that record, not the session:
		// after a mid-log frame loss, the resumed session re-journals the
		// lost records at the correct sequence numbers *behind* the stale
		// ones, and this rule makes every later scan converge on the same
		// repaired prefix.
		if df.rec.Seq != uint64(len(sc.recs))+1 {
			if !sc.gapped {
				sc.gapped = true
				m.truncatedJournals.Add(1)
			}
			return
		}
		sc.recs = append(sc.recs, df.rec)
		if df.flag == flagTerminal {
			sc.finished = true
		}
	}
}

// --- compaction -------------------------------------------------------------

func (e *Engine) compactDir() string { return filepath.Join(e.dir, "wal.compact") }
func (e *Engine) oldDir() string     { return filepath.Join(e.dir, "wal.old") }

// repairCompaction finishes (or rolls back) a compaction interrupted by a
// crash, using the invariant that wal.compact is fully written and synced
// before the first rename:
//
//	wal + wal.compact        crash before the swap    → drop wal.compact
//	wal.compact, no wal      crash mid-swap           → promote wal.compact
//	wal + wal.old            crash before cleanup     → drop wal.old
//	wal.old only             (unreachable)            → restore wal.old
func (e *Engine) repairCompaction() error {
	exists := func(p string) bool {
		_, err := os.Stat(p)
		return err == nil
	}
	walExists := exists(e.walDir())
	switch {
	case !walExists && exists(e.compactDir()):
		if err := os.Rename(e.compactDir(), e.walDir()); err != nil {
			return fmt.Errorf("store: repair compaction: %w", err)
		}
		if err := syncDir(e.dir); err != nil {
			return fmt.Errorf("store: repair compaction: %w", err)
		}
	case !walExists && exists(e.oldDir()):
		if err := os.Rename(e.oldDir(), e.walDir()); err != nil {
			return fmt.Errorf("store: repair compaction: %w", err)
		}
		if err := syncDir(e.dir); err != nil {
			return fmt.Errorf("store: repair compaction: %w", err)
		}
	}
	for _, leftover := range []string{e.compactDir(), e.oldDir()} {
		if exists(leftover) {
			if err := os.RemoveAll(leftover); err != nil {
				return fmt.Errorf("store: repair compaction: %w", err)
			}
		}
	}
	return nil
}

// Compact rewrites the wal: tombstoned sessions disappear, finished
// sessions collapse to one summary frame each, live sessions carry their
// full record list over, and dead segments are retired. Before any
// journal exists (gpsd -compact at boot) the whole wal is rewritten with
// the engine quiescent; once journals are out — appends possibly in
// flight — Compact switches to the live protocol: the writer goroutine
// seals the active segment, only the sealed segments are compacted, and
// the swap hard-links the segments written meanwhile into the new wal so
// the writer's open file descriptor survives the rename. Both modes share
// the crash-safe swap: wal.compact is fully fsynced before the first
// rename, and repairCompaction can always finish or undo the two-rename
// swap. A second Compact while one is running fails with ErrCompacting.
func (e *Engine) Compact() (CompactionReport, error) {
	e.mu.Lock()
	var rep CompactionReport
	if e.closed {
		e.mu.Unlock()
		return rep, fmt.Errorf("store: engine is closed")
	}
	if e.compacting {
		e.mu.Unlock()
		return rep, fmt.Errorf("store: %w", ErrCompacting)
	}
	e.compacting = true
	if !e.started && e.journalsActive == 0 {
		defer e.mu.Unlock()
		defer func() { e.compacting = false }()
		return e.compactOffline()
	}
	e.mu.Unlock()
	rep, err := e.compactLive()
	e.mu.Lock()
	e.compacting = false
	e.mu.Unlock()
	return rep, err
}

// compactOffline rewrites the whole wal while the engine is quiescent.
// Caller holds e.mu.
func (e *Engine) compactOffline() (CompactionReport, error) {
	var rep CompactionReport
	// Same idle guard as compactLive: a compaction ticker over an engine
	// nobody has written to (a promoted standby whose sessions are all
	// finished, an empty daemon) must not rewrite the wal every tick —
	// each pass's generation bump would force followers into an endless
	// resync loop.
	frames0 := e.repl.snapshot().Frames
	if e.lastCompactFrames.Load() == frames0+1 {
		return rep, nil
	}
	sessions, err := e.scanWal(true)
	if err != nil {
		return rep, err
	}
	segs, err := e.listSegments()
	if err != nil {
		return rep, err
	}
	if len(segs) == 0 {
		// Nothing on disk: no rewrite, no swap, no generation bump.
		e.lastCompactFrames.Store(frames0 + 1)
		return rep, nil
	}
	for _, s := range segs {
		rep.BytesBefore += s.size
	}
	rep.SegmentsRetired = len(segs)
	cw, err := e.writeCompacted(sessions, 0, &rep)
	if err != nil {
		return rep, err
	}
	rep.SegmentsWritten = cw.segments
	rep.BytesAfter = cw.bytes

	// The swap. wal.compact is durable; two renames move it into place.
	if err := os.RemoveAll(e.oldDir()); err != nil {
		return rep, fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(e.walDir(), e.oldDir()); err != nil {
		return rep, fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(e.compactDir(), e.walDir()); err != nil {
		return rep, fmt.Errorf("store: compact: %w", err)
	}
	if err := syncDir(e.dir); err != nil {
		return rep, fmt.Errorf("store: compact: %w", err)
	}
	if err := os.RemoveAll(e.oldDir()); err != nil {
		return rep, fmt.Errorf("store: compact: %w", err)
	}
	segs, err = e.listSegments()
	if err != nil {
		return rep, err
	}
	e.nextSeg = 0
	if len(segs) > 0 {
		e.nextSeg = segs[len(segs)-1].idx
	}
	// Let the first post-compaction commit append to the compacted tail.
	e.tailTried = false
	// The published position pointed into the retired wal; re-point it at
	// the compacted tail so feeds tail real bytes.
	var tailSeg uint64
	var tailOff int64
	if len(segs) > 0 {
		tailSeg, tailOff = segs[len(segs)-1].idx, segs[len(segs)-1].size
	}
	e.repl.rebase(tailSeg, tailOff)
	e.m.compactionRuns.Add(1)
	e.m.compactedSessions.Add(int64(rep.SessionsCompacted))
	e.m.retiredSegments.Add(int64(rep.SegmentsRetired))
	e.lastCompactFrames.Store(frames0 + 1)
	return rep, nil
}

// compactLive compacts the wal while appends continue. The writer
// goroutine is asked (via control requests, each running between two
// commit batches) to do the only two steps that must exclude appends:
// sealing the active segment and swapping the directories. Everything in
// between — scanning the sealed segments and writing wal.compact — runs
// on the calling goroutine with appends flowing into fresh segments
// beyond the seal boundary.
func (e *Engine) compactLive() (CompactionReport, error) {
	var rep CompactionReport
	// Nothing appended since the last completed pass means nothing to
	// collapse or retire: the previous pass already did it. Skip without
	// sealing or bumping the generation — an idle primary on a compaction
	// ticker must go quiet, not rewrite the same segments forever while
	// each pass's generation bump resyncs every follower from scratch.
	frames0 := e.repl.snapshot().Frames
	if e.lastCompactFrames.Load() == frames0+1 {
		return rep, nil
	}
	if err := e.faultPoint("compact-begin"); err != nil {
		return rep, err
	}
	var boundary uint64
	err := e.control(func() error {
		if e.segErr != nil {
			return e.segErr
		}
		if err := e.sealCurrent(); err != nil {
			e.segErr = err
			return err
		}
		// The sealed tail must not be reopened by a later rotate; the next
		// commit starts a fresh segment beyond the boundary.
		e.tailTried = true
		boundary = e.nextSeg
		return nil
	})
	if err != nil {
		return rep, err
	}
	segs, err := e.listSegments()
	if err != nil {
		return rep, err
	}
	sealed := segs[:0:0]
	for _, s := range segs {
		if s.idx <= boundary {
			sealed = append(sealed, s)
		}
	}
	if len(sealed) == 0 {
		return rep, nil
	}
	for _, s := range sealed {
		rep.BytesBefore += s.size
	}
	rep.SegmentsRetired = len(sealed)

	// Every sealed segment is immutable now, so this scan cannot race the
	// writer; no torn-tail truncation (the boundary segment ends at a
	// clean seal or wherever the last commit left it).
	sessions, err := e.scanSegments(sealed, walScanOptions{})
	if err != nil {
		return rep, err
	}
	if err := e.faultPoint("compact-scanned"); err != nil {
		return rep, err
	}
	cw, err := e.writeCompacted(sessions, boundary, &rep)
	if err != nil {
		return rep, err
	}
	rep.SegmentsWritten = cw.segments
	rep.BytesAfter = cw.bytes
	if err := e.faultPoint("compact-written"); err != nil {
		return rep, err
	}
	if err := e.control(func() error { return e.swapCompacted(boundary, cw.idx, cw.off) }); err != nil {
		return rep, err
	}
	e.m.compactionRuns.Add(1)
	e.m.compactedSessions.Add(int64(rep.SessionsCompacted))
	e.m.retiredSegments.Add(int64(rep.SegmentsRetired))
	// Appends racing this pass land beyond the seal boundary and raise the
	// published count past frames0, so the next tick still runs.
	e.lastCompactFrames.Store(frames0 + 1)
	if err := e.faultPoint("compact-done"); err != nil {
		return rep, err
	}
	return rep, nil
}

// writeCompacted writes the compacted form of the scanned sessions into a
// fresh wal.compact and makes it durable. maxSeg bounds the output
// segment indices (live mode: they must stay at or below the seal
// boundary so they sort before, and never collide with, the segments the
// writer keeps creating); 0 means unbounded.
func (e *Engine) writeCompacted(sessions map[string]*scanSession, maxSeg uint64, rep *CompactionReport) (*compactWriter, error) {
	// Deterministic rewrite order keeps equivalence tests simple.
	sids := make([]string, 0, len(sessions))
	for sid := range sessions {
		sids = append(sids, sid)
	}
	sort.Strings(sids)

	if err := os.RemoveAll(e.compactDir()); err != nil {
		return nil, fmt.Errorf("store: compact: %w", err)
	}
	if err := os.MkdirAll(e.compactDir(), 0o755); err != nil {
		return nil, fmt.Errorf("store: compact: %w", err)
	}
	// The compacted wal is a new generation: its GEN file carries the
	// incremented counter and rides the two-rename swap into place. A
	// replication follower that streamed the retired segments sees the
	// generation change and re-syncs from scratch instead of wedging.
	if err := writeCounterFile(filepath.Join(e.compactDir(), walGenFile), e.repl.snapshot().Gen+1); err != nil {
		return nil, fmt.Errorf("store: compact: %w", err)
	}
	cw := &compactWriter{dir: e.compactDir(), limit: e.segmentSize, maxSeg: maxSeg, epoch: e.repl.snapshot().Epoch, m: &e.m}
	for _, sid := range sids {
		sc := sessions[sid]
		switch {
		case sc.tombstoned:
			rep.SessionsDropped++
		case sc.finished:
			if err := cw.write(encodeFrame(encodeSummaryPayload(sid, summarizeFinished(sc.recs))), sid, flagSummary); err != nil {
				return nil, err
			}
			rep.SessionsCompacted++
		default:
			for _, rec := range sc.recs {
				if err := cw.write(encodeFrame(encodeRecordPayload(flagData, sid, rec)), sid, flagData); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := cw.finish(); err != nil {
		return nil, err
	}
	return cw, nil
}

// swapCompacted moves wal.compact into place while the writer (which runs
// this as a control request) holds appends back. Segments created since
// the seal boundary are hard-linked into the new wal first: the links
// preserve the inodes, so the writer's open segment file descriptor stays
// valid across the rename and appends resume on the same file the moment
// the swap ends. A failure between the two renames poisons the engine —
// the wal directory is gone and only a restart (repairCompaction) can
// recover it. tailSeg/tailOff name the compacted output's last segment
// and its durable size, for re-pointing the published feed position.
func (e *Engine) swapCompacted(boundary, tailSeg uint64, tailOff int64) error {
	if e.segErr != nil {
		return e.segErr
	}
	if err := e.faultPoint("compact-swap-begin"); err != nil {
		return err
	}
	segs, err := e.listSegments()
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s.idx <= boundary {
			continue
		}
		if err := os.Link(s.path, filepath.Join(e.compactDir(), filepath.Base(s.path))); err != nil {
			return fmt.Errorf("store: compact: link live segment: %w", err)
		}
	}
	if err := syncDir(e.compactDir()); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := e.faultPoint("compact-linked"); err != nil {
		return err
	}
	if err := os.RemoveAll(e.oldDir()); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(e.walDir(), e.oldDir()); err != nil {
		e.segErr = fmt.Errorf("store: compact: %w", err)
		return e.segErr
	}
	if err := e.faultPoint("compact-swap-mid"); err != nil {
		e.segErr = err
		return err
	}
	if err := os.Rename(e.compactDir(), e.walDir()); err != nil {
		e.segErr = fmt.Errorf("store: compact: %w", err)
		return e.segErr
	}
	if err := syncDir(e.dir); err != nil {
		e.segErr = fmt.Errorf("store: compact: %w", err)
		return e.segErr
	}
	// If appends raced the pass past the seal boundary, the published
	// position lives in a hard-linked live segment and survives the swap
	// verbatim; otherwise it pointed into a retired segment and must move
	// to the compacted tail.
	if st := e.repl.snapshot(); st.Seg > boundary {
		tailSeg, tailOff = st.Seg, st.Off
	}
	e.repl.rebase(tailSeg, tailOff)
	if err := e.faultPoint("compact-swapped"); err != nil {
		// The swap is complete and consistent; only the wal.old cleanup was
		// skipped, which the next open's repairCompaction removes.
		return err
	}
	if err := os.RemoveAll(e.oldDir()); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}

// summarizeFinished collapses a finished transcript to its opening record
// and its terminal record, renumbered from 1. The service's record schema
// opens every journal with a create record and closes a finished one with
// a done/failed record carrying the final state; the question/answer
// chatter in between only matters for resuming an *unfinished* session,
// so a finished session does not need it back.
func summarizeFinished(recs []Record) []Record {
	if len(recs) > 2 {
		recs = []Record{recs[0], recs[len(recs)-1]}
	}
	out := make([]Record, len(recs))
	copy(out, recs)
	for i := range out {
		out[i].Seq = uint64(i) + 1
	}
	return out
}

// compactWriter rolls compacted frames into fresh, fsynced segments, each
// sealed with an index footer. maxSeg, when non-zero, caps the output
// segment indices: the last segment overpacks past the size limit rather
// than colliding with a live segment beyond the seal boundary.
type compactWriter struct {
	dir      string
	limit    int64
	maxSeg   uint64
	epoch    uint64
	m        *metrics
	f        *os.File
	off      int64
	idx      uint64
	segments int
	bytes    int64
	index    *segIndexBuilder
}

func (w *compactWriter) write(frame []byte, sid string, flag byte) error {
	if w.f == nil || (w.off >= w.limit && (w.maxSeg == 0 || w.idx < w.maxSeg)) {
		if err := w.closeCurrent(); err != nil {
			return err
		}
		w.idx++
		f, err := os.OpenFile(segmentPath(w.dir, w.idx), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
		w.f = f
		w.off = 0
		w.segments++
		w.index = newSegIndexBuilder()
		if w.epoch > 0 {
			ef := encodeFrame(encodeEpochPayload(w.epoch))
			if _, err := w.f.Write(ef); err != nil {
				return fmt.Errorf("store: compact: %w", err)
			}
			w.off += int64(len(ef))
			w.bytes += int64(len(ef))
		}
	}
	w.index.add(sid, flag, w.off)
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	w.off += int64(len(frame))
	w.bytes += int64(len(frame))
	return nil
}

func (w *compactWriter) closeCurrent() error {
	if w.f == nil {
		return nil
	}
	if w.index != nil && !w.index.empty() {
		footer := encodeSegmentFooter(w.index.entries(), w.off)
		if _, err := w.f.Write(footer); err != nil {
			w.f.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
		w.off += int64(len(footer))
		w.bytes += int64(len(footer))
		if w.m != nil {
			w.m.footersWritten.Add(1)
		}
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	w.f = nil
	w.index = nil
	return nil
}

func (w *compactWriter) finish() error {
	if err := w.closeCurrent(); err != nil {
		return err
	}
	if err := syncDir(w.dir); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}
