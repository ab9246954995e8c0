package store

// Streaming replication of the engine's wal to a warm follower.
//
// The primary side is ServeFeed: an HTTP handler body that first ships
// every graph snapshot and sealed segment, then tails the active
// segment's group-commit frames as the writer publishes durable
// positions. The feed is a sequence of messages framed exactly like wal
// frames — [u32le length][u32le CRC32][payload] — so both ends reuse the
// engine's frame codec; the first payload byte selects the message type.
//
// The follower side is Replica: a byte-level applier that maintains a
// physical copy of the primary's data directory (wal segments + graph
// snapshots) without opening an engine. Offsets are resumable — a
// follower reconnects with (generation, segment, offset) and the feed
// continues from there — and sealed segments are verified against their
// index footers (falling back to a full CRC scan when a segment sealed
// without one). Compaction rewrites wal history, so it bumps a GEN
// counter that rides the crash-safe swap: a follower that resumes across
// a ctl-swap sees the generation change and re-syncs the retired
// segments from scratch instead of wedging on vanished files.
//
// Fencing: every data directory carries a monotonic epoch (the `epoch`
// file, also stamped into each segment as a flag-6 frame). Promotion
// bumps it past the highest epoch the follower ever saw from its
// primary, so a resurrected old primary — running with a lower epoch —
// can be recognised and refused by epoch-aware clients and servers.

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// walGenFile names the wal generation counter file; compaction writes
	// the incremented value into wal.compact so the two-rename swap bumps
	// it atomically with the rewritten history.
	walGenFile = "GEN"
	// epochFile names the fencing-epoch counter at the data-dir root (it
	// must survive compaction, which replaces the wal directory).
	epochFile = "epoch"

	feedChunkSize      = 256 << 10
	feedHeartbeatEvery = 200 * time.Millisecond
	feedGraphPollEvery = 500 * time.Millisecond

	replReconnectMin = 50 * time.Millisecond
	replReconnectMax = 2 * time.Second
	replStallTimeout = 10 * time.Second
	replSyncEvery    = 100 * time.Millisecond
)

// Feed message types (first payload byte).
const (
	feedMsgHello     = 'H'
	feedMsgHeartbeat = 'B'
	feedMsgSegData   = 'S'
	feedMsgSegSeal   = 'E'
	feedMsgGraph     = 'G'
	feedMsgGraphList = 'L'
	feedMsgGraphDel  = 'X'

	feedProtoVersion = 1
)

// FeedPos is a follower's resume position: the wal generation it was
// replicating plus the segment/offset it has durably applied. A zero
// position (or one the primary cannot serve) triggers a full re-sync.
type FeedPos struct {
	Gen uint64
	Seg uint64
	Off int64
}

// ReplState is the primary's published replication state: the durable
// position the group-commit writer has fsynced up to, plus cumulative
// frame/byte counters for lag accounting.
type ReplState struct {
	Gen    uint64 `json:"gen"`
	Epoch  uint64 `json:"epoch"`
	Seg    uint64 `json:"seg"`
	Off    int64  `json:"off"`
	Frames uint64 `json:"frames"`
	Bytes  uint64 `json:"bytes"`
	// Feeds counts connected follower feeds; FeedBytesSent the bytes
	// streamed to them since open.
	Feeds         int    `json:"feeds"`
	FeedBytesSent uint64 `json:"feed_bytes_sent"`
}

// --- primary-side state publication ----------------------------------------

// replPub is the writer-updated publication point feeds wait on.
type replPub struct {
	mu     sync.Mutex
	st     ReplState
	notify chan struct{}

	feeds atomic.Int64
	sent  atomic.Int64
}

func (p *replPub) init(gen, epoch uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.st.Gen, p.st.Epoch = gen, epoch
	p.notify = make(chan struct{})
}

// publish records a new durable position (always post-fsync) and wakes
// every waiting feed. frames is the number of record frames the advance
// carried (0 for footers, epoch frames and rotations).
func (p *replPub) publish(seg uint64, off int64, frames uint64) {
	p.mu.Lock()
	if p.st.Seg == seg && off >= p.st.Off {
		p.st.Bytes += uint64(off - p.st.Off)
	} else {
		p.st.Bytes += uint64(off)
	}
	p.st.Seg, p.st.Off = seg, off
	p.st.Frames += frames
	ch := p.notify
	p.notify = make(chan struct{})
	p.mu.Unlock()
	close(ch)
}

// rebase starts a new generation with the published position re-pointed
// at the compacted wal's tail. Compaction rewrites every segment at or
// below its seal boundary, so a published position inside that range
// names bytes that no longer exist; leaving it in place wedges any feed
// that tails the (now shorter) active segment toward the stale offset.
// Frames/Bytes stay cumulative: followers only echo them from
// heartbeats, so monotonicity is what matters, not wal content.
func (p *replPub) rebase(seg uint64, off int64) {
	p.mu.Lock()
	p.st.Gen++
	p.st.Seg, p.st.Off = seg, off
	ch := p.notify
	p.notify = make(chan struct{})
	p.mu.Unlock()
	close(ch)
}

func (p *replPub) setEpoch(v uint64) {
	p.mu.Lock()
	p.st.Epoch = v
	p.mu.Unlock()
}

func (p *replPub) snapshot() ReplState {
	p.mu.Lock()
	st := p.st
	p.mu.Unlock()
	st.Feeds = int(p.feeds.Load())
	st.FeedBytesSent = uint64(p.sent.Load())
	return st
}

// waitCh returns a channel closed at the next publication. Capture it
// before snapshotting, so a publication between snapshot and wait is
// never missed.
func (p *replPub) waitCh() <-chan struct{} {
	p.mu.Lock()
	ch := p.notify
	p.mu.Unlock()
	return ch
}

// ReplState returns the engine's current replication state.
func (e *Engine) ReplState() ReplState { return e.repl.snapshot() }

// Epoch returns the engine's fencing epoch.
func (e *Engine) Epoch() uint64 { return e.repl.snapshot().Epoch }

// SetEpoch raises the fencing epoch: it is persisted to the epoch file
// first (a persisted-but-unannounced higher epoch is harmless), then
// stamped into the open segment as an epoch frame. Called at promotion.
func (e *Engine) SetEpoch(v uint64) error {
	cur := e.repl.snapshot().Epoch
	if v < cur {
		return fmt.Errorf("store: epoch %d is below the current epoch %d", v, cur)
	}
	if v == cur {
		return nil
	}
	if err := writeCounterFile(filepath.Join(e.dir, epochFile), v); err != nil {
		return err
	}
	e.repl.setEpoch(v)
	return e.control(func() error {
		if e.seg == nil || e.segErr != nil {
			// No open segment: the next rotate stamps the new epoch.
			return nil
		}
		frame := encodeFrame(encodeEpochPayload(v))
		if _, err := e.seg.Write(frame); err != nil {
			e.segErr = fmt.Errorf("store: epoch frame: %w", err)
			return e.segErr
		}
		if err := e.seg.Sync(); err != nil {
			e.segErr = fmt.Errorf("store: epoch frame: %w", err)
			return e.segErr
		}
		e.segOff += int64(len(frame))
		e.repl.publish(e.nextSeg, e.segOff, 0)
		return nil
	})
}

// --- counter files ----------------------------------------------------------

func readCounterFile(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: %s: %w", path, err)
	}
	var v uint64
	if _, err := fmt.Sscanf(strings.TrimSpace(string(data)), "%d", &v); err != nil {
		return 0, fmt.Errorf("store: malformed counter file %s", path)
	}
	return v, nil
}

// writeCounterFile atomically replaces a counter file (temp + fsync +
// rename + directory fsync).
func writeCounterFile(path string, v uint64) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-ctr-*")
	if err != nil {
		return fmt.Errorf("store: %s: %w", path, err)
	}
	defer os.Remove(tmp.Name())
	if _, err := fmt.Fprintf(tmp, "%d\n", v); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %s: %w", path, err)
	}
	return syncDir(dir)
}

func loadOrInitCounterFile(path string, init uint64) (uint64, error) {
	v, err := readCounterFile(path)
	if err != nil {
		return 0, err
	}
	if v > 0 {
		return v, nil
	}
	if err := writeCounterFile(path, init); err != nil {
		return 0, err
	}
	return init, nil
}

// --- message codec ----------------------------------------------------------

func encodeEpochPayload(epoch uint64) []byte {
	buf := make([]byte, 0, 11)
	buf = append(buf, flagEpoch)
	return binary.AppendUvarint(buf, epoch)
}

func appendReplState(buf []byte, st ReplState) []byte {
	buf = binary.AppendUvarint(buf, st.Gen)
	buf = binary.AppendUvarint(buf, st.Epoch)
	buf = binary.AppendUvarint(buf, st.Seg)
	buf = binary.AppendUvarint(buf, uint64(st.Off))
	buf = binary.AppendUvarint(buf, st.Frames)
	return binary.AppendUvarint(buf, st.Bytes)
}

func readReplState(r *frameReader) (ReplState, bool) {
	var st ReplState
	var off uint64
	var ok bool
	if st.Gen, ok = r.uvarint(); !ok {
		return st, false
	}
	if st.Epoch, ok = r.uvarint(); !ok {
		return st, false
	}
	if st.Seg, ok = r.uvarint(); !ok {
		return st, false
	}
	if off, ok = r.uvarint(); !ok {
		return st, false
	}
	st.Off = int64(off)
	if st.Frames, ok = r.uvarint(); !ok {
		return st, false
	}
	if st.Bytes, ok = r.uvarint(); !ok {
		return st, false
	}
	return st, true
}

func encodeHelloMsg(resync bool, st ReplState) []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, feedMsgHello, feedProtoVersion)
	var flags byte
	if resync {
		flags = 1
	}
	buf = append(buf, flags)
	return appendReplState(buf, st)
}

func encodeHeartbeatMsg(st ReplState, ts time.Time) []byte {
	buf := make([]byte, 0, 72)
	buf = append(buf, feedMsgHeartbeat)
	buf = appendReplState(buf, st)
	return binary.AppendUvarint(buf, uint64(ts.UnixMicro()))
}

func encodeSegDataMsg(seg uint64, off int64, b []byte) []byte {
	buf := make([]byte, 0, 24+len(b))
	buf = append(buf, feedMsgSegData)
	buf = binary.AppendUvarint(buf, seg)
	buf = binary.AppendUvarint(buf, uint64(off))
	return append(buf, b...)
}

func encodeSegSealMsg(seg uint64, size int64) []byte {
	buf := make([]byte, 0, 24)
	buf = append(buf, feedMsgSegSeal)
	buf = binary.AppendUvarint(buf, seg)
	return binary.AppendUvarint(buf, uint64(size))
}

func encodeGraphMsg(name string, b []byte) []byte {
	buf := make([]byte, 0, 16+len(name)+len(b))
	buf = append(buf, feedMsgGraph)
	buf = appendString(buf, name)
	return append(buf, b...)
}

func encodeGraphListMsg(names []string) []byte {
	size := 16
	for _, n := range names {
		size += len(n) + 8
	}
	buf := make([]byte, 0, size)
	buf = append(buf, feedMsgGraphList)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, n := range names {
		buf = appendString(buf, n)
	}
	return buf
}

func encodeGraphDelMsg(name string) []byte {
	buf := make([]byte, 0, 8+len(name))
	buf = append(buf, feedMsgGraphDel)
	return appendString(buf, name)
}

// readFeedFrame reads one [length][crc][payload] feed frame.
func readFeedFrame(br *bufio.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > maxFrameSize {
		return nil, fmt.Errorf("store: feed frame length %d out of range", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("store: truncated feed frame: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("store: feed frame CRC mismatch")
	}
	return payload, nil
}

// --- feed server (primary) --------------------------------------------------

// graphStamp fingerprints a graph snapshot file for change polling.
type graphStamp struct {
	size  int64
	mtime int64
}

type feedConn struct {
	e     *Engine
	w     io.Writer
	flush func()
}

func (fc *feedConn) send(payload []byte) error {
	frame := encodeFrame(payload)
	if _, err := fc.w.Write(frame); err != nil {
		return err
	}
	fc.e.repl.sent.Add(int64(len(frame)))
	return nil
}

func (fc *feedConn) doFlush() {
	if fc.flush != nil {
		fc.flush()
	}
}

// streamSegment ships the byte range [from, to) of a segment file as
// data messages and returns the new offset.
func (fc *feedConn) streamSegment(path string, idx uint64, from, to int64) (int64, error) {
	if to <= from {
		return from, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return from, err
	}
	defer f.Close()
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return from, err
	}
	buf := make([]byte, feedChunkSize)
	for from < to {
		n := int64(len(buf))
		if rem := to - from; rem < n {
			n = rem
		}
		if _, err := io.ReadFull(f, buf[:n]); err != nil {
			return from, fmt.Errorf("store: feed read %s: %w", path, err)
		}
		if err := fc.send(encodeSegDataMsg(idx, from, buf[:n])); err != nil {
			return from, err
		}
		from += n
	}
	return from, nil
}

// sendGraphSync diffs the graphs directory against the stamps the feed
// has already shipped, streaming new/changed snapshots and deletions.
// On the initial call it also sends the full name list so the follower
// can prune local strays.
func (fc *feedConn) sendGraphSync(stamps map[string]graphStamp, initial bool) error {
	entries, err := os.ReadDir(fc.e.graphsDir())
	if err != nil {
		return err
	}
	seen := make(map[string]struct{}, len(entries))
	var names []string
	for _, ent := range entries {
		base := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(base, ".graph") || strings.HasPrefix(base, ".tmp-") {
			continue
		}
		name, err := url.PathUnescape(strings.TrimSuffix(base, ".graph"))
		if err != nil {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		stamp := graphStamp{size: info.Size(), mtime: info.ModTime().UnixNano()}
		seen[name] = struct{}{}
		names = append(names, name)
		if old, ok := stamps[name]; ok && old == stamp && !initial {
			continue
		}
		payload, err := os.ReadFile(filepath.Join(fc.e.graphsDir(), base))
		if err != nil {
			continue
		}
		if err := fc.send(encodeGraphMsg(name, payload)); err != nil {
			return err
		}
		stamps[name] = stamp
	}
	for name := range stamps {
		if _, ok := seen[name]; !ok {
			delete(stamps, name)
			if err := fc.send(encodeGraphDelMsg(name)); err != nil {
				return err
			}
		}
	}
	if initial {
		return fc.send(encodeGraphListMsg(names))
	}
	return nil
}

// ServeFeed streams the replication feed to one follower until the
// context is canceled, the wal generation changes (the follower
// reconnects and re-syncs), or the connection fails. pos is the
// follower's resume position; an unserveable position degrades to a
// full re-sync, never an error.
func (e *Engine) ServeFeed(ctx context.Context, w io.Writer, flush func(), pos FeedPos) error {
	e.repl.feeds.Add(1)
	defer e.repl.feeds.Add(-1)
	fc := &feedConn{e: e, w: w, flush: flush}

	snap := e.repl.snapshot()
	segs, err := e.listSegments()
	if err != nil {
		return err
	}
	resync := pos.Gen != snap.Gen
	cur, off := pos.Seg, pos.Off
	if !resync && cur != 0 {
		valid := false
		for _, s := range segs {
			if s.idx == cur && off <= s.size {
				valid = true
				break
			}
		}
		resync = !valid
	}
	if resync || cur == 0 {
		cur, off = 0, 0
		if len(segs) > 0 {
			cur = segs[0].idx
		}
	}
	if err := fc.send(encodeHelloMsg(resync, snap)); err != nil {
		return err
	}
	stamps := make(map[string]graphStamp)
	if err := fc.sendGraphSync(stamps, true); err != nil {
		return err
	}
	fc.doFlush()

	gen0 := snap.Gen
	lastGraphPoll := time.Now()
	for {
		notify := e.repl.waitCh()
		snap = e.repl.snapshot()
		if snap.Gen != gen0 {
			// Compaction swapped the wal out from under this feed. Close the
			// stream; the follower reconnects and the new hello re-syncs it.
			return nil
		}
		segs, err := e.listSegments()
		if err != nil {
			// The swap window can make the directory transiently unreadable;
			// closing the stream lets the follower reconnect cleanly.
			return nil
		}
		if cur == 0 && len(segs) > 0 {
			cur = segs[0].idx
		}
		active := snap.Seg
		if active == 0 && len(segs) > 0 {
			active = segs[len(segs)-1].idx
		}
		for _, s := range segs {
			if s.idx < cur {
				continue
			}
			if s.idx > cur {
				// Segment numbering has gaps (compaction links live segments
				// in above its rewritten output); jump to the next real one.
				cur, off = s.idx, 0
			}
			if s.idx < active {
				// Sealed: ship the remainder (including any index footer) and
				// tell the follower to verify and fsync it.
				noff, err := fc.streamSegment(s.path, s.idx, off, s.size)
				if err != nil {
					return err
				}
				off = noff
				if err := fc.send(encodeSegSealMsg(s.idx, s.size)); err != nil {
					return err
				}
				cur, off = cur+1, 0
				continue
			}
			// The active segment: tail it up to the published durable
			// position (never the raw file size — bytes past the last fsync
			// could still be lost in a crash).
			limit := s.size
			if snap.Seg == s.idx {
				limit = snap.Off
			}
			if limit > off {
				noff, err := fc.streamSegment(s.path, s.idx, off, limit)
				if err != nil {
					return err
				}
				off = noff
			}
		}
		if time.Since(lastGraphPoll) >= feedGraphPollEvery {
			lastGraphPoll = time.Now()
			if err := fc.sendGraphSync(stamps, false); err != nil {
				return err
			}
		}
		if err := fc.send(encodeHeartbeatMsg(snap, time.Now())); err != nil {
			return err
		}
		fc.doFlush()
		select {
		case <-ctx.Done():
			return nil
		case <-notify:
		case <-time.After(feedHeartbeatEvery):
		}
	}
}

// --- follower applier -------------------------------------------------------

// ReplicaOptions tunes a follower applier.
type ReplicaOptions struct {
	// Client performs the feed requests; it must not set a timeout (the
	// feed is a long-lived stream). Nil uses a plain http.Client.
	Client *http.Client
	// Logger receives connection lifecycle events. Nil discards them.
	Logger *slog.Logger
}

// ReplicaStatus is a follower applier's observable state.
type ReplicaStatus struct {
	Connected     bool    `json:"connected"`
	Gen           uint64  `json:"gen"`
	PrimaryEpoch  uint64  `json:"primary_epoch"`
	AppliedSeg    uint64  `json:"applied_seg"`
	AppliedOff    int64   `json:"applied_off"`
	AppliedFrames uint64  `json:"applied_frames"`
	AppliedBytes  uint64  `json:"applied_bytes"`
	LagFrames     uint64  `json:"lag_frames"`
	LagBytes      uint64  `json:"lag_bytes"`
	LagSeconds    float64 `json:"lag_seconds"`
	Graphs        int     `json:"graphs"`
	Resyncs       uint64  `json:"resyncs"`
	SealsVerified uint64  `json:"seals_verified"`
	Connects      uint64  `json:"connects"`
	// DisconnectedFor is how long the feed has been down, in seconds;
	// 0 while connected. Drives -auto-promote-after.
	DisconnectedFor float64 `json:"disconnected_for_seconds,omitempty"`
	LastError       string  `json:"last_error,omitempty"`
}

// Replica continuously applies a primary's replication feed into a local
// data directory, maintaining a physical copy the streaming recovery
// path can open the instant the follower is promoted.
type Replica struct {
	dir     string
	feedURL string
	hc      *http.Client
	log     *slog.Logger
	m       metrics

	ctx      context.Context
	cancel   context.CancelFunc
	stopOnce sync.Once
	done     chan struct{}

	// Applier-goroutine file state.
	seg      *os.File
	segIdx   uint64
	segOff   int64
	dirty    bool
	lastSync time.Time
	// forceResync makes the next connect ask for a full re-sync (sent as
	// gen 0) after a protocol-level inconsistency.
	forceResync bool
	persisted   uint64 // epoch value already in the epoch file

	mu sync.Mutex
	st ReplicaStatus
	// latest* mirror the newest heartbeat the reader goroutine has
	// decoded — possibly ahead of the applier; the gap is the lag.
	latestFrames uint64
	latestBytes  uint64
	lastCaught   time.Time
	disconnected time.Time
	graphs       map[string]struct{}
}

// OpenReplica prepares a follower applier over dir, resuming from
// whatever the directory already holds: the last local segment is
// truncated to its valid frame prefix (a follower crash can tear its
// tail exactly like a primary crash) and the persisted generation and
// epoch are reloaded. Call Run (usually in a goroutine) to start
// streaming from feedURL.
func OpenReplica(dir, feedURL string, opts ReplicaOptions) (*Replica, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty data directory")
	}
	for _, d := range []string{dir, filepath.Join(dir, "wal"), filepath.Join(dir, "graphs")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: replica: %w", err)
		}
	}
	hc := opts.Client
	if hc == nil {
		hc = &http.Client{}
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replica{
		dir:     dir,
		feedURL: feedURL,
		hc:      hc,
		log:     log,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		graphs:  make(map[string]struct{}),
	}
	r.lastCaught = time.Now()
	r.disconnected = time.Now()
	gen, err := readCounterFile(filepath.Join(r.walDir(), walGenFile))
	if err != nil {
		return nil, err
	}
	epoch, err := readCounterFile(filepath.Join(dir, epochFile))
	if err != nil {
		return nil, err
	}
	r.st.Gen, r.st.PrimaryEpoch, r.persisted = gen, epoch, epoch
	segs, err := listSegmentDir(r.walDir())
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		valid, err := validFramePrefix(last.path)
		if err != nil {
			return nil, err
		}
		if valid < last.size {
			if err := truncateSegment(last.path, valid); err != nil {
				return nil, err
			}
		}
		r.segIdx, r.segOff = last.idx, valid
		r.st.AppliedSeg, r.st.AppliedOff = last.idx, valid
	}
	entries, err := os.ReadDir(r.graphsDir())
	if err != nil {
		return nil, fmt.Errorf("store: replica: %w", err)
	}
	for _, ent := range entries {
		base := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(base, ".graph") || strings.HasPrefix(base, ".tmp-") {
			continue
		}
		if name, err := url.PathUnescape(strings.TrimSuffix(base, ".graph")); err == nil {
			r.graphs[name] = struct{}{}
		}
	}
	return r, nil
}

func (r *Replica) walDir() string    { return filepath.Join(r.dir, "wal") }
func (r *Replica) graphsDir() string { return filepath.Join(r.dir, "graphs") }

// Dir returns the replica's data directory.
func (r *Replica) Dir() string { return r.dir }

// validFramePrefix scans a segment for its longest structurally valid,
// CRC-clean frame prefix.
func validFramePrefix(path string) (int64, error) {
	sc, err := openFrameScanner(path)
	if err != nil {
		return 0, err
	}
	defer sc.close()
	for {
		fr, err := sc.next()
		switch {
		case err == io.EOF:
			return sc.size, nil
		case err == errTornFrame || err == errBadCRC:
			return fr.off, nil
		case err != nil:
			return 0, err
		}
	}
}

// Status returns the applier's current state with lag derived from the
// newest heartbeat the stream has carried.
func (r *Replica) Status() ReplicaStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.st
	st.Graphs = len(r.graphs)
	if r.latestFrames > st.AppliedFrames {
		st.LagFrames = r.latestFrames - st.AppliedFrames
	}
	if r.latestBytes > st.AppliedBytes {
		st.LagBytes = r.latestBytes - st.AppliedBytes
	}
	if !st.Connected {
		st.DisconnectedFor = time.Since(r.disconnected).Seconds()
	}
	if !st.Connected || st.LagFrames > 0 || st.LagBytes > 0 {
		st.LagSeconds = time.Since(r.lastCaught).Seconds()
	}
	return st
}

// Stop cancels the feed, waits for the applier to drain, and fsyncs the
// open segment, leaving the directory ready for OpenEngine (promotion)
// or a later OpenReplica (restart).
func (r *Replica) Stop() {
	r.stopOnce.Do(r.cancel)
	<-r.done
}

// Run streams and applies the feed until Stop, reconnecting with
// backoff. Call it in a goroutine.
func (r *Replica) Run() {
	defer close(r.done)
	defer r.closeSeg()
	backoff := replReconnectMin
	for {
		if r.ctx.Err() != nil {
			return
		}
		err := r.streamOnce()
		r.noteDisconnect(err)
		if r.ctx.Err() != nil {
			return
		}
		if err == nil {
			backoff = replReconnectMin
		} else {
			r.log.Debug("replica stream ended", "err", err)
			backoff *= 2
			if backoff > replReconnectMax {
				backoff = replReconnectMax
			}
		}
		select {
		case <-r.ctx.Done():
			return
		case <-time.After(backoff):
		}
	}
}

type feedMsg struct {
	payload []byte
}

// streamOnce runs one feed connection to completion. A reader goroutine
// decodes frames (noting heartbeats immediately, so lag is observable
// while the applier works through the backlog) and the applier consumes
// them in order.
func (r *Replica) streamOnce() error {
	ctx, cancel := context.WithCancel(r.ctx)
	defer cancel()
	pos := r.resumePos()
	u := fmt.Sprintf("%s?gen=%d&seg=%d&off=%d", r.feedURL, pos.Gen, pos.Seg, pos.Off)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("store: feed %s: %s: %s", r.feedURL, resp.Status, strings.TrimSpace(string(body)))
	}
	r.noteConnect()

	msgs := make(chan feedMsg, 256)
	readErr := make(chan error, 1)
	go func() {
		defer close(msgs)
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			payload, err := readFeedFrame(br)
			if err != nil {
				readErr <- err
				return
			}
			if payload[0] == feedMsgHeartbeat {
				r.noteLatest(payload)
			}
			select {
			case msgs <- feedMsg{payload: payload}:
			case <-ctx.Done():
				readErr <- ctx.Err()
				return
			}
		}
	}()

	stall := time.NewTimer(replStallTimeout)
	defer stall.Stop()
	for {
		stall.Reset(replStallTimeout)
		select {
		case m, ok := <-msgs:
			if !ok {
				err := <-readErr
				if err == io.EOF || ctx.Err() != nil {
					return nil
				}
				return err
			}
			if err := r.apply(m.payload); err != nil {
				return err
			}
		case <-ctx.Done():
			return nil
		case <-stall.C:
			return fmt.Errorf("store: feed stalled for %s", replStallTimeout)
		}
	}
}

func (r *Replica) resumePos() FeedPos {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.forceResync {
		return FeedPos{}
	}
	return FeedPos{Gen: r.st.Gen, Seg: r.segIdx, Off: r.segOff}
}

func (r *Replica) noteConnect() {
	r.mu.Lock()
	r.st.Connected = true
	r.st.Connects++
	r.st.LastError = ""
	r.mu.Unlock()
}

func (r *Replica) noteDisconnect(err error) {
	r.syncSeg()
	r.mu.Lock()
	if r.st.Connected {
		r.disconnected = time.Now()
	}
	r.st.Connected = false
	if err != nil {
		r.st.LastError = err.Error()
	}
	r.mu.Unlock()
}

// noteLatest records a heartbeat's counters from the reader goroutine.
func (r *Replica) noteLatest(payload []byte) {
	fr := &frameReader{data: payload, off: 1}
	st, ok := readReplState(fr)
	if !ok {
		return
	}
	r.mu.Lock()
	if st.Frames > r.latestFrames {
		r.latestFrames = st.Frames
	}
	if st.Bytes > r.latestBytes {
		r.latestBytes = st.Bytes
	}
	r.mu.Unlock()
}

func (r *Replica) apply(payload []byte) error {
	fr := &frameReader{data: payload, off: 1}
	switch payload[0] {
	case feedMsgHello:
		if len(payload) < 3 || payload[1] != feedProtoVersion {
			return fmt.Errorf("store: feed protocol version mismatch")
		}
		resync := payload[2]&1 != 0
		fr.off = 3
		st, ok := readReplState(fr)
		if !ok {
			return fmt.Errorf("store: malformed hello")
		}
		return r.applyHello(resync, st)
	case feedMsgHeartbeat:
		st, ok := readReplState(fr)
		if !ok {
			return fmt.Errorf("store: malformed heartbeat")
		}
		return r.applyHeartbeat(st)
	case feedMsgSegData:
		seg, ok1 := fr.uvarint()
		off, ok2 := fr.uvarint()
		if !ok1 || !ok2 {
			return fmt.Errorf("store: malformed segment data")
		}
		return r.applySegData(seg, int64(off), payload[fr.off:])
	case feedMsgSegSeal:
		seg, ok1 := fr.uvarint()
		size, ok2 := fr.uvarint()
		if !ok1 || !ok2 {
			return fmt.Errorf("store: malformed segment seal")
		}
		return r.applySegSeal(seg, int64(size))
	case feedMsgGraph:
		name, ok := fr.string()
		if !ok {
			return fmt.Errorf("store: malformed graph message")
		}
		return r.applyGraph(name, payload[fr.off:])
	case feedMsgGraphList:
		count, ok := fr.uvarint()
		if !ok || count > uint64(len(payload)) {
			return fmt.Errorf("store: malformed graph list")
		}
		names := make([]string, 0, count)
		for i := uint64(0); i < count; i++ {
			n, ok := fr.string()
			if !ok {
				return fmt.Errorf("store: malformed graph list")
			}
			names = append(names, n)
		}
		return r.applyGraphList(names)
	case feedMsgGraphDel:
		name, ok := fr.string()
		if !ok {
			return fmt.Errorf("store: malformed graph delete")
		}
		return r.applyGraphDel(name)
	default:
		return fmt.Errorf("store: unknown feed message %q", payload[0])
	}
}

func (r *Replica) applyHello(resync bool, st ReplState) error {
	r.mu.Lock()
	localGen := r.st.Gen
	r.mu.Unlock()
	if resync || st.Gen != localGen {
		// The primary rewrote (or never shared) the history we hold: wipe
		// the local wal and take everything from the top. Graph snapshots
		// stay — the feed re-sends them and the list message prunes strays.
		r.closeSeg()
		if err := os.RemoveAll(r.walDir()); err != nil {
			return fmt.Errorf("store: replica resync: %w", err)
		}
		if err := os.MkdirAll(r.walDir(), 0o755); err != nil {
			return fmt.Errorf("store: replica resync: %w", err)
		}
		if err := syncDir(r.dir); err != nil {
			return err
		}
		hadState := r.segIdx != 0 || r.segOff != 0 || localGen != 0
		r.segIdx, r.segOff = 0, 0
		r.mu.Lock()
		if hadState {
			// A fresh follower's first full sync is not a re-sync; only a
			// wipe of real local history counts.
			r.st.Resyncs++
		}
		r.st.AppliedSeg, r.st.AppliedOff = 0, 0
		r.st.AppliedFrames, r.st.AppliedBytes = 0, 0
		r.mu.Unlock()
	}
	if err := writeCounterFile(filepath.Join(r.walDir(), walGenFile), st.Gen); err != nil {
		return err
	}
	r.forceResync = false
	r.mu.Lock()
	r.st.Gen = st.Gen
	// The hello is not a caught-up marker — the data it announces comes
	// after it. Applied counters advance only at heartbeats, which the
	// feed emits once the stream has caught up to them.
	if st.Frames > r.latestFrames {
		r.latestFrames = st.Frames
	}
	if st.Bytes > r.latestBytes {
		r.latestBytes = st.Bytes
	}
	r.mu.Unlock()
	return r.noteEpoch(st.Epoch)
}

// noteEpoch persists the highest primary epoch ever observed, so a
// promotion after a follower restart still fences above it.
func (r *Replica) noteEpoch(epoch uint64) error {
	r.mu.Lock()
	if epoch > r.st.PrimaryEpoch {
		r.st.PrimaryEpoch = epoch
	}
	persist := epoch > r.persisted
	r.mu.Unlock()
	if persist {
		if err := writeCounterFile(filepath.Join(r.dir, epochFile), epoch); err != nil {
			return err
		}
		r.persisted = epoch
	}
	return nil
}

func (r *Replica) applyHeartbeat(st ReplState) error {
	r.syncSegThrottled()
	r.mu.Lock()
	r.st.AppliedFrames, r.st.AppliedBytes = st.Frames, st.Bytes
	if r.st.AppliedFrames >= r.latestFrames && r.st.AppliedBytes >= r.latestBytes {
		r.lastCaught = time.Now()
	}
	r.mu.Unlock()
	return r.noteEpoch(st.Epoch)
}

func (r *Replica) applySegData(seg uint64, off int64, b []byte) error {
	if r.seg == nil || r.segIdx != seg {
		r.closeSeg()
		path := segmentPath(r.walDir(), seg)
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: replica: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("store: replica: %w", err)
		}
		if fi.Size() != off {
			f.Close()
			r.forceResync = true
			return fmt.Errorf("store: replica: segment %d is %d bytes, feed resumes at %d", seg, fi.Size(), off)
		}
		if err := syncDir(r.walDir()); err != nil {
			f.Close()
			return err
		}
		r.seg, r.segIdx, r.segOff = f, seg, fi.Size()
	}
	if off != r.segOff {
		r.forceResync = true
		return fmt.Errorf("store: replica: segment %d offset %d does not match applied %d", seg, off, r.segOff)
	}
	if _, err := r.seg.Write(b); err != nil {
		return fmt.Errorf("store: replica: %w", err)
	}
	r.segOff += int64(len(b))
	r.dirty = true
	r.mu.Lock()
	r.st.AppliedSeg, r.st.AppliedOff = r.segIdx, r.segOff
	r.mu.Unlock()
	return nil
}

func (r *Replica) applySegSeal(seg uint64, size int64) error {
	path := segmentPath(r.walDir(), seg)
	if r.seg != nil && r.segIdx == seg {
		r.closeSeg()
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Size() != size {
		r.forceResync = true
		return fmt.Errorf("store: replica: sealed segment %d size mismatch", seg)
	}
	footerOK, err := verifySealedSegment(path, size)
	if err != nil {
		r.forceResync = true
		return fmt.Errorf("store: replica: sealed segment %d failed verification: %w", seg, err)
	}
	if err := syncDir(r.walDir()); err != nil {
		return err
	}
	r.mu.Lock()
	if footerOK {
		r.st.SealsVerified++
	}
	r.mu.Unlock()
	return nil
}

// verifySealedSegment checks a replicated sealed segment: against its
// index footer when it has one (footerOK true), otherwise by a full
// structural + CRC scan of every frame.
func verifySealedSegment(path string, size int64) (bool, error) {
	if _, _, ok := readSegmentFooter(path, size); ok {
		return true, nil
	}
	valid, err := validFramePrefix(path)
	if err != nil {
		return false, err
	}
	if valid != size {
		return false, fmt.Errorf("valid frame prefix ends at %d of %d", valid, size)
	}
	return false, nil
}

func (r *Replica) applyGraph(name string, payload []byte) error {
	if err := writeSnapshotFile(r.graphsDir(), name, payload, &r.m); err != nil {
		return fmt.Errorf("store: replica: %w", err)
	}
	r.mu.Lock()
	r.graphs[name] = struct{}{}
	r.mu.Unlock()
	return nil
}

func (r *Replica) applyGraphDel(name string) error {
	if err := deleteGraphSnapshot(r.graphsDir(), name); err != nil {
		return err
	}
	r.mu.Lock()
	delete(r.graphs, name)
	r.mu.Unlock()
	return nil
}

// applyGraphList prunes local graph snapshots the primary no longer has
// (the list arrives once per connection, after the initial graph burst).
func (r *Replica) applyGraphList(names []string) error {
	keep := make(map[string]struct{}, len(names))
	for _, n := range names {
		keep[n] = struct{}{}
	}
	r.mu.Lock()
	var drop []string
	for name := range r.graphs {
		if _, ok := keep[name]; !ok {
			drop = append(drop, name)
		}
	}
	r.mu.Unlock()
	for _, name := range drop {
		if err := r.applyGraphDel(name); err != nil {
			return err
		}
	}
	return nil
}

// GraphNames lists the graph snapshots the replica holds, for the
// follower's read-only graph listing.
func (r *Replica) GraphNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.graphs))
	for name := range r.graphs {
		names = append(names, name)
	}
	return names
}

func (r *Replica) syncSegThrottled() {
	if r.dirty && time.Since(r.lastSync) >= replSyncEvery {
		r.syncSeg()
	}
}

func (r *Replica) syncSeg() {
	if r.seg != nil && r.dirty {
		_ = r.seg.Sync()
		r.dirty = false
		r.lastSync = time.Now()
	}
}

func (r *Replica) closeSeg() {
	if r.seg == nil {
		return
	}
	r.syncSeg()
	_ = r.seg.Close()
	r.seg = nil
}
