// Package store is the durable persistence subsystem of the learning
// service. It separates what the serving layer keeps in memory from what
// must survive a process crash. It has one engine (Engine, opened by
// OpenEngine): all session journals interleaved into length-prefixed
// CRC-framed records in segment files, appended by a single group-commit
// writer goroutine that batches concurrent appends into one fsync; journal
// compaction that rewrites finished sessions as a single summary record
// and retires dead segments; and binary varint-CSR graph snapshots.
//
// The engine keeps a write-ahead discipline — a record is durable before
// the state transition it describes takes effect — and recovers what was
// acknowledged: journals are truncated to their longest valid prefix (a
// torn write never poisons the tail) and snapshots failing their
// magic/length/CRC check are skipped and counted.
//
// The store never interprets journal payloads — records carry opaque JSON
// and the service layer owns the schema — so the dependency points from
// service to store only.
package store

import (
	"errors"
	"os"
	"sync/atomic"
	"time"
)

// ErrCompacting is returned by Compact when another compaction is already
// running on the engine (match with errors.Is).
var ErrCompacting = errors.New("compaction already running")

// EngineOptions configures OpenEngine.
type EngineOptions struct {
	// CommitInterval is the maximum group-commit batch
	// delay: how long the writer may hold an fsync open to let more
	// concurrent appends join the batch. 0 (the default) batches only
	// what is already queued — no added latency, natural batching under
	// load. Terminal records always flush immediately.
	CommitInterval time.Duration
	// SegmentSize is the segment roll-over threshold in
	// bytes (default 4 MiB).
	SegmentSize int64
	// Fault, when set, is called at named points of the compaction
	// protocol ("compact-scanned", "compact-swap-mid", ...).
	// A chaos harness kills the process from the hook to prove crash
	// safety at that exact point; returning a non-nil error aborts the
	// protocol there instead. Nil in production.
	Fault func(point string) error
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
	// number of appends sharing one fsync.
	GroupCommits int64   `json:"group_commits,omitempty"`
	MeanBatch    float64 `json:"group_commit_mean_batch,omitempty"`
	// SegmentsCreated counts segment files opened since boot.
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
	// segment frames skipped by recovery.
	TruncatedJournals int64 `json:"truncated_journals"`
	CorruptSnapshots  int64 `json:"corrupt_snapshots"`
	CorruptFrames     int64 `json:"corrupt_frames,omitempty"`
	// CompactionRuns, CompactedSessions and RetiredSegments describe
	// journal compaction activity.
	CompactionRuns    int64 `json:"compaction_runs,omitempty"`
	CompactedSessions int64 `json:"compacted_sessions,omitempty"`
	RetiredSegments   int64 `json:"retired_segments,omitempty"`
	// FootersWritten counts segment index footers written at seal time;
	// FooterHits counts scans served from a footer (id enumeration or
	// damage resync) and FooterFallbacks the sealed-segment scans that had
	// to read every frame for lack of a usable footer.
	FootersWritten  int64 `json:"wal_footers_written,omitempty"`
	FooterHits      int64 `json:"wal_footer_hits,omitempty"`
	FooterFallbacks int64 `json:"wal_footer_fallbacks,omitempty"`
}

// snapshot reads every counter into a Metrics.
func (m *metrics) snapshot() Metrics {
	out := Metrics{
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

// CompactionReport summarises one Compact run.
type CompactionReport struct {
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
