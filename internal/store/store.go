// Package store is the durable persistence subsystem of the learning
// service. It separates what the serving layer keeps in memory from what
// must survive a process crash, behind one Engine interface with two
// implementations:
//
//   - the text engine (Store, opened by Open): one append-only JSONL
//     journal per learning session with one fsync per append, and
//     checksummed text graph snapshots. Every byte on disk is greppable;
//     it is kept as the readability/debugging engine and as the
//     equivalence oracle the binary engine is tested against;
//   - the binary engine (OpenEngine with EngineKindBinary, the default):
//     all session journals interleaved into length-prefixed CRC-framed
//     records in segment files, appended by a single group-commit writer
//     goroutine that batches concurrent appends into one fsync; journal
//     compaction that rewrites finished sessions as a single summary
//     record and retires dead segments; and binary varint-CSR graph
//     snapshots that skip the text round-trip on the recovery hot path.
//
// Both engines implement the same write-ahead discipline — a record is
// durable before the state transition it describes takes effect — and the
// same recovery semantics: journals are truncated to their longest valid
// prefix (a torn write never poisons the tail) and snapshots failing
// their length/CRC check are skipped and counted. Either engine reads
// both snapshot formats, so a data directory can switch engines without
// losing graphs.
//
// The store never interprets journal payloads — records carry opaque JSON
// and the service layer owns the schema — so the dependency points from
// service to store only.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// ErrCompacting is returned by Compact when another compaction is already
// running on the engine (match with errors.Is).
var ErrCompacting = errors.New("compaction already running")

// Engine is the storage abstraction the service layer is wired to: append
// (CreateJournal + Journal.Append), snapshot (SaveGraph/DeleteGraph),
// compact, and recover (RecoverSessions/RecoverGraphs). Implementations
// must be safe for concurrent use.
type Engine interface {
	// EngineName identifies the implementation ("text" or "binary").
	EngineName() string
	// Dir returns the data directory path.
	Dir() string
	// CreateJournal creates the write-ahead journal for a new session. The
	// id must be new: an existing journal is never silently overwritten.
	CreateJournal(id string) (*Journal, error)
	// RecoverSessions replays every surviving session journal, sorted by
	// session id, truncating torn tails.
	RecoverSessions() ([]RecoveredSession, error)
	// SaveGraph writes (or atomically replaces) the snapshot of a graph.
	SaveGraph(name string, g *graph.Graph) error
	// DeleteGraph removes a graph snapshot; deleting a graph that was
	// never persisted is not an error.
	DeleteGraph(name string) error
	// RecoverGraphs loads every intact graph snapshot, sorted by name,
	// skipping (and counting) corrupt files.
	RecoverGraphs() ([]RecoveredGraph, error)
	// Compact rewrites the journal storage dropping dead data: removed
	// sessions disappear, finished sessions collapse to a single summary
	// record, dead segments are retired. Engines without a compactable
	// representation return a report with Supported=false. The binary
	// engine compacts live — with journals out and appends in flight —
	// by sealing the active segment and rewriting only the sealed ones;
	// a concurrent second call fails with ErrCompacting.
	Compact() (CompactionReport, error)
	// Metrics returns a point-in-time snapshot of the engine's counters.
	Metrics() Metrics
	// Close releases engine resources (the group-commit writer, open
	// segment files). Journals must not be appended to after Close.
	Close() error
}

// Engine kinds accepted by OpenEngine.
const (
	EngineKindText   = "text"
	EngineKindBinary = "binary"
)

// EngineOptions configures OpenEngine.
type EngineOptions struct {
	// Kind selects the implementation: EngineKindBinary (default) or
	// EngineKindText.
	Kind string
	// CommitInterval is the binary engine's maximum group-commit batch
	// delay: how long the writer may hold an fsync open to let more
	// concurrent appends join the batch. 0 (the default) batches only
	// what is already queued — no added latency, natural batching under
	// load. Terminal records always flush immediately.
	CommitInterval time.Duration
	// SegmentSize is the binary engine's segment roll-over threshold in
	// bytes (default 4 MiB).
	SegmentSize int64
	// Fault, when set, is called at named points of the binary engine's
	// compaction protocol ("compact-scanned", "compact-swap-mid", ...).
	// A chaos harness kills the process from the hook to prove crash
	// safety at that exact point; returning a non-nil error aborts the
	// protocol there instead. Nil in production.
	Fault func(point string) error
}

// OpenEngine creates (if needed) and opens a data directory with the
// selected engine.
func OpenEngine(dir string, opts EngineOptions) (Engine, error) {
	switch opts.Kind {
	case EngineKindText:
		return Open(dir)
	case "", EngineKindBinary:
		return openBinary(dir, opts)
	default:
		return nil, fmt.Errorf("store: unknown engine %q (want %s or %s)", opts.Kind, EngineKindText, EngineKindBinary)
	}
}

// Store is the text engine: one data directory holding
//
//	<dir>/graphs/<name>.graph      checksummed graph snapshots
//	<dir>/sessions/<id>.jsonl      per-session JSONL journals
type Store struct {
	dir string
	m   metrics
}

// metrics holds an engine's atomic counters.
type metrics struct {
	journalAppends    atomic.Int64
	journalBytes      atomic.Int64
	fsyncs            atomic.Int64
	fsyncNanos        atomic.Int64
	snapshotSaves     atomic.Int64
	snapshotBytes     atomic.Int64
	recoveredGraphs   atomic.Int64
	recoveredSessions atomic.Int64
	truncatedJournals atomic.Int64
	corruptSnapshots  atomic.Int64
	// Binary engine only.
	groupCommits      atomic.Int64
	segmentsCreated   atomic.Int64
	corruptFrames     atomic.Int64
	compactionRuns    atomic.Int64
	compactedSessions atomic.Int64
	retiredSegments   atomic.Int64
	footersWritten    atomic.Int64
	footerHits        atomic.Int64
	footerFallbacks   atomic.Int64
}

// Metrics is a point-in-time snapshot of an engine's counters; the
// gpsd_store_* families (RegisterMetrics) sample it at scrape time.
type Metrics struct {
	// Engine is the implementation name ("text" or "binary").
	Engine string `json:"engine"`
	// JournalAppends and JournalBytes count durable journal records and
	// their on-disk size.
	JournalAppends int64 `json:"journal_appends"`
	JournalBytes   int64 `json:"journal_bytes"`
	// Fsyncs counts journal fsync calls; FsyncMeanMicros is their mean
	// latency. Under group commit one fsync covers a whole batch, so
	// Fsyncs can be far below JournalAppends.
	Fsyncs          int64   `json:"fsyncs"`
	FsyncMeanMicros float64 `json:"fsync_mean_micros"`
	// GroupCommits counts group-commit batches and MeanBatch the mean
	// number of appends sharing one fsync (binary engine only).
	GroupCommits int64   `json:"group_commits,omitempty"`
	MeanBatch    float64 `json:"group_commit_mean_batch,omitempty"`
	// SegmentsCreated counts segment files opened since boot (binary
	// engine only).
	SegmentsCreated int64 `json:"segments_created,omitempty"`
	// SnapshotSaves and SnapshotBytes count graph snapshot writes.
	SnapshotSaves int64 `json:"snapshot_saves"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// RecoveredGraphs and RecoveredSessions count successful recoveries
	// since the store was opened.
	RecoveredGraphs   int64 `json:"recovered_graphs"`
	RecoveredSessions int64 `json:"recovered_sessions"`
	// TruncatedJournals counts journals cut back to a valid prefix during
	// recovery; CorruptSnapshots counts snapshot files that failed their
	// integrity check and were skipped; CorruptFrames counts CRC-failed
	// segment frames skipped by the binary engine.
	TruncatedJournals int64 `json:"truncated_journals"`
	CorruptSnapshots  int64 `json:"corrupt_snapshots"`
	CorruptFrames     int64 `json:"corrupt_frames,omitempty"`
	// CompactionRuns, CompactedSessions and RetiredSegments describe
	// journal compaction activity (binary engine only).
	CompactionRuns    int64 `json:"compaction_runs,omitempty"`
	CompactedSessions int64 `json:"compacted_sessions,omitempty"`
	RetiredSegments   int64 `json:"retired_segments,omitempty"`
	// FootersWritten counts segment index footers written at seal time;
	// FooterHits counts scans served from a footer (id enumeration or
	// damage resync) and FooterFallbacks the sealed-segment scans that had
	// to read every frame for lack of a usable footer (binary engine only).
	FootersWritten  int64 `json:"wal_footers_written,omitempty"`
	FooterHits      int64 `json:"wal_footer_hits,omitempty"`
	FooterFallbacks int64 `json:"wal_footer_fallbacks,omitempty"`
}

// snapshot fills the shared counter fields of a Metrics.
func (m *metrics) snapshot(engine string) Metrics {
	out := Metrics{
		Engine:            engine,
		JournalAppends:    m.journalAppends.Load(),
		JournalBytes:      m.journalBytes.Load(),
		Fsyncs:            m.fsyncs.Load(),
		GroupCommits:      m.groupCommits.Load(),
		SegmentsCreated:   m.segmentsCreated.Load(),
		SnapshotSaves:     m.snapshotSaves.Load(),
		SnapshotBytes:     m.snapshotBytes.Load(),
		RecoveredGraphs:   m.recoveredGraphs.Load(),
		RecoveredSessions: m.recoveredSessions.Load(),
		TruncatedJournals: m.truncatedJournals.Load(),
		CorruptSnapshots:  m.corruptSnapshots.Load(),
		CorruptFrames:     m.corruptFrames.Load(),
		CompactionRuns:    m.compactionRuns.Load(),
		CompactedSessions: m.compactedSessions.Load(),
		RetiredSegments:   m.retiredSegments.Load(),
		FootersWritten:    m.footersWritten.Load(),
		FooterHits:        m.footerHits.Load(),
		FooterFallbacks:   m.footerFallbacks.Load(),
	}
	if out.Fsyncs > 0 {
		out.FsyncMeanMicros = float64(m.fsyncNanos.Load()) / float64(out.Fsyncs) / 1e3
	}
	if out.GroupCommits > 0 {
		out.MeanBatch = float64(out.JournalAppends) / float64(out.GroupCommits)
	}
	return out
}

// Open creates (if needed) and opens a data directory with the text
// engine. A directory whose sessions were written by the binary engine
// is refused: the text engine cannot read wal segments, and silently
// recovering zero sessions from a populated directory would look like a
// healthy boot while abandoning every parked session. (The reverse
// direction is supported — the binary engine migrates JSONL journals in
// place.)
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty data directory")
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal", "seg-*.seg")); len(segs) > 0 {
		return nil, fmt.Errorf("store: %s holds a binary-engine wal (%d segments); reopen it with the binary engine", dir, len(segs))
	}
	for _, d := range []string{dir, filepath.Join(dir, "graphs"), filepath.Join(dir, "sessions")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// EngineName identifies the text engine.
func (s *Store) EngineName() string { return EngineKindText }

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// Metrics returns a snapshot of the store's counters.
func (s *Store) Metrics() Metrics { return s.m.snapshot(EngineKindText) }

// Compact is a no-op on the text engine: per-session JSONL files carry no
// dead segments, and finished journals are kept whole for readability.
func (s *Store) Compact() (CompactionReport, error) {
	return CompactionReport{}, nil
}

// Close releases nothing on the text engine: journals own their files.
func (s *Store) Close() error { return nil }

// CompactionReport summarises one Compact run.
type CompactionReport struct {
	// Supported is false when the engine has no compactable journal
	// representation (the text engine).
	Supported bool `json:"supported"`
	// SessionsCompacted counts finished sessions rewritten as a single
	// summary record; SessionsDropped counts removed (tombstoned)
	// sessions whose records were purged.
	SessionsCompacted int `json:"sessions_compacted"`
	SessionsDropped   int `json:"sessions_dropped"`
	// SegmentsRetired and SegmentsWritten count segment files before and
	// after; BytesBefore and BytesAfter the journal bytes on disk.
	SegmentsRetired int   `json:"segments_retired"`
	SegmentsWritten int   `json:"segments_written"`
	BytesBefore     int64 `json:"bytes_before"`
	BytesAfter      int64 `json:"bytes_after"`
}

func (s *Store) graphsDir() string   { return filepath.Join(s.dir, "graphs") }
func (s *Store) sessionsDir() string { return filepath.Join(s.dir, "sessions") }

// syncDir fsyncs a directory so a file creation, rename or removal inside
// it survives power loss — fsyncing the file alone pins its contents, not
// its directory entry.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
