// Replication endpoints and write fencing for the primary side of a
// warm-follower pair (see internal/store/replicate.go for the feed
// protocol and follower.go for the follower half).
//
// A primary serves its write-ahead log to followers over
// GET /v1/replication/feed and reports its feed position on
// GET /v1/replication/status. Fencing protects the replicated history
// from a resurrected old primary: every failover-aware client pins the
// highest fencing epoch it has seen and sends it on each request; a
// server that observes an epoch above its own latches into a fenced
// state — persisted as a FENCED marker so it survives restarts — and
// refuses every mutating request with 503 fenced from then on. Reads
// stay available: a fenced daemon is a consistent snapshot of the
// moment it lost the primaryship.
package service

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/obs"
	"repro/internal/store"
)

// EpochHeader carries the highest fencing epoch the client has observed.
// Servers use it to detect that a successor primary exists.
const EpochHeader = "X-GPSD-Epoch"

// fencedFile marks a data directory whose daemon observed a successor
// epoch. Its presence alone fences; the content records the epoch for
// operators.
const fencedFile = "FENCED"

// ReplicationStatus is the JSON shape of GET /v1/replication/status on
// both roles. Failover-aware clients use Role and Epoch to re-resolve
// the primary after a connection failure.
type ReplicationStatus struct {
	// Role is "primary" or "follower".
	Role string `json:"role"`
	// Fenced reports that this daemon refuses writes because a successor
	// primary epoch exists.
	Fenced bool `json:"fenced"`
	// Epoch is the fencing epoch this daemon serves (primary) or has
	// observed from its primary (follower).
	Epoch uint64 `json:"epoch"`
	// Primary is the feed-side state: current segment position, frames
	// and bytes durable, live feed connections. Set on primaries backed
	// by a replicating engine.
	Primary *store.ReplState `json:"primary,omitempty"`
	// Follower is the apply-side state: applied position, lag, resyncs.
	// Set on followers.
	Follower *store.ReplicaStatus `json:"follower,omitempty"`
	// PrimaryURL is the feed source a follower replicates from.
	PrimaryURL string `json:"primary_url,omitempty"`
}

// loadFence restores a persisted fence latch at boot, so a fenced old
// primary stays fenced across restarts.
func (s *Server) loadFence() {
	if s.opts.Store == nil {
		return
	}
	if _, err := os.Stat(filepath.Join(s.opts.Store.Dir(), fencedFile)); err == nil {
		s.fenced.Store(true)
	}
}

// fence latches the server into the fenced state and persists the
// marker. Idempotent; the first latch logs and writes the marker.
func (s *Server) fence(successor uint64) {
	if s.fenced.Swap(true) {
		return
	}
	if st := s.opts.Store; st != nil {
		path := filepath.Join(st.Dir(), fencedFile)
		if err := os.WriteFile(path, []byte(fmt.Sprintf("successor_epoch=%d\n", successor)), 0o644); err != nil {
			s.opts.Logger.Error("fence marker write failed; fence holds in memory only", "path", path, "error", err)
		}
	}
	s.opts.Logger.Warn("fenced: a successor primary epoch exists; refusing writes from now on",
		"successor_epoch", successor)
}

// fenceRefused is the per-request fencing gate run by the instrument
// middleware: it latches the fence when the request reveals a successor
// epoch, then refuses mutating methods on a fenced server with
// 503 fenced (reads pass). Reports whether it wrote the response.
func (s *Server) fenceRefused(w http.ResponseWriter, r *http.Request) bool {
	if hdr := r.Header.Get(EpochHeader); hdr != "" {
		if seen, err := strconv.ParseUint(hdr, 10, 64); err == nil {
			if st := s.opts.Store; st != nil && seen > st.Epoch() {
				s.fence(seen)
			}
		}
	}
	if !s.fenced.Load() || r.Method == http.MethodGet || r.Method == http.MethodHead {
		return false
	}
	writeError(w, http.StatusServiceUnavailable, CodeFenced,
		fmt.Errorf("this daemon is fenced: a newer primary epoch exists; writes are refused"))
	return true
}

// handleReplicationStatus reports this primary's replication state. An
// in-memory service still answers — role and fence state are meaningful
// even without a feed.
func (s *Server) handleReplicationStatus(w http.ResponseWriter, r *http.Request) {
	st := ReplicationStatus{Role: "primary", Fenced: s.fenced.Load()}
	if eng := s.opts.Store; eng != nil {
		rs := eng.ReplState()
		st.Epoch = rs.Epoch
		st.Primary = &rs
	}
	writeJSON(w, http.StatusOK, st)
}

// handleReplicationFeed streams the write-ahead log to a follower:
// sealed segments first, then live group-commit frames as they become
// durable. The connection stays open until the follower drops it or the
// server shuts down; resume is driven by the gen/seg/off query
// parameters.
func (s *Server) handleReplicationFeed(w http.ResponseWriter, r *http.Request) {
	eng := s.opts.Store
	if eng == nil {
		writeError(w, http.StatusBadRequest, CodeNotDurable,
			fmt.Errorf("replication needs a durable primary (-data-dir)"))
		return
	}
	pos, err := parseFeedPos(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	flush := func() {}
	if fl, ok := w.(http.Flusher); ok {
		flush = fl.Flush
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flush()
	if err := eng.ServeFeed(r.Context(), w, flush, pos); err != nil && r.Context().Err() == nil {
		s.opts.Logger.Debug("replication feed ended", "error", err)
	}
}

// parseFeedPos reads the follower's resume position from the feed query
// string. Absent parameters mean "from the beginning" — ServeFeed
// answers that with a full resync.
func parseFeedPos(r *http.Request) (store.FeedPos, error) {
	var pos store.FeedPos
	q := r.URL.Query()
	for _, p := range []struct {
		name string
		dst  *uint64
	}{{"gen", &pos.Gen}, {"seg", &pos.Seg}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return pos, fmt.Errorf("invalid ?%s=%q", p.name, v)
			}
			*p.dst = n
		}
	}
	if v := q.Get("off"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return pos, fmt.Errorf("invalid ?off=%q", v)
		}
		pos.Off = n
	}
	return pos, nil
}

// handlePromote on a server that is already the primary is idempotent:
// it confirms the role so a failover orchestrator retrying the promote
// against both endpoints converges. (The follower's promote handler —
// the one that does the work — lives in follower.go.)
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.handleReplicationStatus(w, r)
}

// registerReplObs wires the primary-side replication metric families.
// Their names are disjoint from the follower-side families in
// follower.go, so a promoted follower registering these into the same
// registry adds rather than collides.
func (s *Server) registerReplObs(reg *obs.Registry) {
	rep := s.opts.Store
	if rep == nil {
		return
	}
	reg.GaugeFunc("gpsd_repl_epoch", "Fencing epoch this primary serves at.",
		func() float64 { return float64(rep.ReplState().Epoch) })
	reg.GaugeFunc("gpsd_repl_feeds", "Live replication feed connections.",
		func() float64 { return float64(rep.ReplState().Feeds) })
	reg.SampleFunc("gpsd_repl_feed_sent_bytes_total", "Bytes sent over replication feeds.", obs.KindCounter,
		func() []obs.Sample { return []obs.Sample{{Value: float64(rep.ReplState().FeedBytesSent)}} })
	reg.GaugeFunc("gpsd_repl_fenced", "Whether this daemon refuses writes because a successor primary epoch exists (1) or not (0).",
		func() float64 {
			if s.fenced.Load() {
				return 1
			}
			return 0
		})
}
