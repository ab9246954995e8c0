package store

import "repro/internal/obs"

// RegisterMetrics exposes the engine's counters on the observability
// registry as gpsd_store_* families, each labelled engine="binary" (the
// label predates the single engine and dashboards select on it). The
// samples are produced at scrape time from the same atomics the Metrics
// snapshot reads, so /metrics and Metrics can never disagree.
func RegisterMetrics(reg *obs.Registry, e *Engine) {
	engine := obs.L("engine", "binary")
	counters := []struct {
		name, help string
		get        func(Metrics) float64
	}{
		{"gpsd_store_journal_appends_total", "Durable journal records appended.",
			func(m Metrics) float64 { return float64(m.JournalAppends) }},
		{"gpsd_store_journal_bytes_total", "On-disk bytes of appended journal records.",
			func(m Metrics) float64 { return float64(m.JournalBytes) }},
		{"gpsd_store_fsyncs_total", "Journal fsync calls (one per group-commit batch).",
			func(m Metrics) float64 { return float64(m.Fsyncs) }},
		{"gpsd_store_group_commits_total", "Group-commit batches flushed.",
			func(m Metrics) float64 { return float64(m.GroupCommits) }},
		{"gpsd_store_segments_created_total", "Segment files opened since boot.",
			func(m Metrics) float64 { return float64(m.SegmentsCreated) }},
		{"gpsd_store_snapshot_saves_total", "Graph snapshot writes.",
			func(m Metrics) float64 { return float64(m.SnapshotSaves) }},
		{"gpsd_store_snapshot_bytes_total", "Bytes written by graph snapshot saves.",
			func(m Metrics) float64 { return float64(m.SnapshotBytes) }},
		{"gpsd_store_recovered_graphs_total", "Graph snapshots restored at recovery since boot.",
			func(m Metrics) float64 { return float64(m.RecoveredGraphs) }},
		{"gpsd_store_recovered_sessions_total", "Session journals replayed at recovery since boot.",
			func(m Metrics) float64 { return float64(m.RecoveredSessions) }},
		{"gpsd_store_truncated_journals_total", "Journals cut back to a valid prefix during recovery.",
			func(m Metrics) float64 { return float64(m.TruncatedJournals) }},
		{"gpsd_store_corrupt_snapshots_total", "Snapshot files that failed their integrity check and were skipped.",
			func(m Metrics) float64 { return float64(m.CorruptSnapshots) }},
		{"gpsd_store_corrupt_frames_total", "CRC-failed segment frames skipped by recovery.",
			func(m Metrics) float64 { return float64(m.CorruptFrames) }},
		{"gpsd_store_compaction_runs_total", "Completed journal compaction passes.",
			func(m Metrics) float64 { return float64(m.CompactionRuns) }},
		{"gpsd_store_compacted_sessions_total", "Finished sessions collapsed to summary records by compaction.",
			func(m Metrics) float64 { return float64(m.CompactedSessions) }},
		{"gpsd_store_retired_segments_total", "Dead segment files removed by compaction.",
			func(m Metrics) float64 { return float64(m.RetiredSegments) }},
		{"gpsd_store_wal_footers_written_total", "Per-session index footers written at segment seal.",
			func(m Metrics) float64 { return float64(m.FootersWritten) }},
		{"gpsd_store_wal_footer_hits_total", "Sealed-segment scans served from an index footer.",
			func(m Metrics) float64 { return float64(m.FooterHits) }},
		{"gpsd_store_wal_footer_fallbacks_total", "Sealed-segment scans that fell back to reading every frame.",
			func(m Metrics) float64 { return float64(m.FooterFallbacks) }},
	}
	for _, c := range counters {
		get := c.get
		reg.SampleFunc(c.name, c.help, obs.KindCounter, func() []obs.Sample {
			return []obs.Sample{{Labels: []obs.Label{engine}, Value: get(e.Metrics())}}
		})
	}
	gauges := []struct {
		name, help string
		get        func(Metrics) float64
	}{
		{"gpsd_store_fsync_mean_seconds", "Mean journal fsync latency since boot.",
			func(m Metrics) float64 { return m.FsyncMeanMicros * 1e-6 }},
		{"gpsd_store_group_commit_mean_batch", "Mean appends per group-commit fsync since boot.",
			func(m Metrics) float64 { return m.MeanBatch }},
	}
	for _, g := range gauges {
		get := g.get
		reg.SampleFunc(g.name, g.help, obs.KindGauge, func() []obs.Sample {
			return []obs.Sample{{Labels: []obs.Label{engine}, Value: get(e.Metrics())}}
		})
	}
}
