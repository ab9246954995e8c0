// The follower half of a warm-follower pair: a daemon started with
// -replicate-from that continuously applies the primary's write-ahead
// log into its own data directory and can be promoted — by an operator
// via POST /v1/admin/promote, or automatically after the primary has
// been unreachable for -auto-promote-after — into a full primary that
// adopts every replicated session exactly as crash recovery would.
package service

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// autoPromotePoll is how often the auto-promote watchdog samples the
// replica's disconnection clock.
const autoPromotePoll = 250 * time.Millisecond

// FollowerOptions configures a replication follower.
type FollowerOptions struct {
	// Dir is the follower's own data directory; the replica maintains a
	// physical copy of the primary's store there. The caller holds the
	// directory lock (cmd/gpsd locks it like any -data-dir).
	Dir string
	// PrimaryURL is the primary's base URL (e.g. http://host:8080); the
	// feed path is appended here.
	PrimaryURL string
	// AutoPromoteAfter, when positive, promotes automatically once the
	// feed has been down that long — but only if it connected at least
	// once, so a follower booted before its primary waits instead of
	// seizing an epoch over an empty directory.
	AutoPromoteAfter time.Duration
	// Keyring guards POST /v1/admin/promote when set; the read-only
	// replication and health endpoints are open, mirroring authExempt.
	Keyring *Keyring
	// Metrics receives the follower-side gpsd_repl_* families and is the
	// registry the promoted server should share (pass the same one into
	// BuildServer's NewServer call).
	Metrics *obs.Registry
	// Logger defaults to discard.
	Logger *slog.Logger
	// Client performs the feed fetches; nil uses a default.
	Client *http.Client
	// OpenEngine opens the store engine over Dir at promotion time. The
	// caller chooses the engine options (commit interval, segment size,
	// fault injection) — the engine must be the binary one, which
	// implements store.Replicator.
	OpenEngine func() (store.Engine, error)
	// BuildServer assembles the primary service over the freshly opened
	// engine: NewServer, Recover, and anything else a normal primary boot
	// does (compaction ticker, lock epoch note). It runs exactly once, on
	// the winning Promote call.
	BuildServer func(store.Engine) (*Server, error)
}

// Follower serves the warm-standby role over HTTP and carries the
// promotion state machine. Before promotion it answers health, metrics
// and replication status itself and refuses everything else with
// 503 not_primary; after promotion every request goes to the promoted
// Server's handler.
type Follower struct {
	opts    FollowerOptions
	replica *store.Replica
	base    http.Handler

	promoteMu sync.Mutex
	promoted  atomic.Bool
	handler   atomic.Pointer[http.Handler]
	srv       atomic.Pointer[Server]
	epoch     atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
}

// NewFollower starts replicating from the primary immediately and
// returns the follower, ready to serve. Close stops the replica (and
// the auto-promote watchdog); a promoted follower's engine lifetime is
// the promoted server's and outlives Close.
func NewFollower(opts FollowerOptions) (*Follower, error) {
	if opts.Dir == "" || opts.PrimaryURL == "" {
		return nil, fmt.Errorf("service: follower needs Dir and PrimaryURL")
	}
	if opts.OpenEngine == nil || opts.BuildServer == nil {
		return nil, fmt.Errorf("service: follower needs OpenEngine and BuildServer")
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	feedURL := strings.TrimRight(opts.PrimaryURL, "/") + "/v1/replication/feed"
	replica, err := store.OpenReplica(opts.Dir, feedURL, store.ReplicaOptions{
		Client: opts.Client,
		Logger: opts.Logger,
	})
	if err != nil {
		return nil, err
	}
	f := &Follower{opts: opts, replica: replica, stop: make(chan struct{})}
	f.base = f.baseHandler()
	f.registerObs(opts.Metrics)
	go replica.Run()
	if opts.AutoPromoteAfter > 0 {
		go f.autoPromote()
	}
	opts.Logger.Info("replicating", "primary", opts.PrimaryURL, "dir", opts.Dir,
		"auto_promote_after", opts.AutoPromoteAfter)
	return f, nil
}

// ServeHTTP dispatches to the promoted server once promotion has
// happened, the standby handler before.
func (f *Follower) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := f.handler.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	f.base.ServeHTTP(w, r)
}

// Server returns the promoted server, nil before promotion.
func (f *Follower) Server() *Server { return f.srv.Load() }

// Replica exposes the underlying store replica (tests and status).
func (f *Follower) Replica() *store.Replica { return f.replica }

// NotifyShutdown forwards to the promoted server so open event streams
// drain on graceful shutdown; a no-op while still a standby (the
// standby serves no streams).
func (f *Follower) NotifyShutdown() {
	if s := f.srv.Load(); s != nil {
		s.NotifyShutdown()
	}
}

// Close stops the replica and the auto-promote watchdog. It does not
// close a promoted engine — that belongs to the promoted server's
// owner, who arranged its shutdown in BuildServer.
func (f *Follower) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.replica.Stop()
}

// Promote turns the standby into the primary: stop applying the feed,
// open the engine over the replicated directory (it recovers the torn
// tail and reads the persisted primary epoch), bump the fencing epoch
// above everything the old primary ever served at, and run the exact
// crash-recovery boot a restarted primary would. Idempotent — a second
// call returns the promoted status.
func (f *Follower) Promote() (ReplicationStatus, error) {
	f.promoteMu.Lock()
	defer f.promoteMu.Unlock()
	if f.promoted.Load() {
		return f.status(), nil
	}
	log := f.opts.Logger
	rst := f.replica.Status()
	log.Info("promoting",
		"applied_frames", rst.AppliedFrames, "applied_bytes", rst.AppliedBytes,
		"lag_frames", rst.LagFrames, "primary_epoch", rst.PrimaryEpoch)
	f.replica.Stop()
	eng, err := f.opts.OpenEngine()
	if err != nil {
		return f.status(), fmt.Errorf("promote: open engine: %w", err)
	}
	rep, ok := eng.(store.Replicator)
	if !ok {
		eng.Close()
		return f.status(), fmt.Errorf("promote: engine %s does not replicate; need the binary engine", eng.EngineName())
	}
	// The engine opened at the highest primary epoch the feed ever
	// announced; serving one above it fences the old primary.
	epoch := rep.Epoch() + 1
	if err := rep.SetEpoch(epoch); err != nil {
		eng.Close()
		return f.status(), fmt.Errorf("promote: fence epoch: %w", err)
	}
	srv, err := f.opts.BuildServer(eng)
	if err != nil {
		eng.Close()
		return f.status(), fmt.Errorf("promote: %w", err)
	}
	h := srv.Handler()
	f.srv.Store(srv)
	f.epoch.Store(epoch)
	f.handler.Store(&h)
	f.promoted.Store(true)
	rec := srv.RecoveryReport()
	log.Info("promoted to primary", "epoch", epoch,
		"graphs", rec.Graphs, "sessions_resumed", rec.SessionsResumed, "sessions_finished", rec.SessionsFinished)
	return f.status(), nil
}

// autoPromote watches the replica's disconnection clock and promotes
// once the primary has been gone long enough. It requires at least one
// successful connect, so a follower racing its primary's boot keeps
// waiting instead of forking history over an empty directory.
func (f *Follower) autoPromote() {
	t := time.NewTicker(autoPromotePoll)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
		if f.promoted.Load() {
			return
		}
		st := f.replica.Status()
		if st.Connects == 0 || st.DisconnectedFor < f.opts.AutoPromoteAfter.Seconds() {
			continue
		}
		f.opts.Logger.Warn("primary unreachable; auto-promoting",
			"disconnected_for_seconds", st.DisconnectedFor, "last_error", st.LastError)
		if _, err := f.Promote(); err != nil {
			f.opts.Logger.Error("auto-promote failed; will retry", "error", err)
		}
	}
}

// status renders the follower-side replication status.
func (f *Follower) status() ReplicationStatus {
	rst := f.replica.Status()
	st := ReplicationStatus{
		Role:       "follower",
		Epoch:      rst.PrimaryEpoch,
		Follower:   &rst,
		PrimaryURL: f.opts.PrimaryURL,
	}
	if f.promoted.Load() {
		st.Role = "primary"
		st.Epoch = f.epoch.Load()
	}
	return st
}

// baseHandler is the standby route table: health, metrics, replication
// status and the promote trigger; every other path answers not_primary
// with the primary's URL so a failover-aware client can re-resolve.
func (f *Follower) baseHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": "follower"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		_ = f.opts.Metrics.WritePrometheus(w)
	})
	mux.HandleFunc("GET /v1/replication/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, f.status())
	})
	mux.HandleFunc("GET /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		// A read-only view over the replicated snapshots: names only, no
		// engine is open to serve structure or evaluation.
		names := f.replica.GraphNames()
		list := ReplicaGraphs{Graphs: make([]ReplicaGraph, 0, len(names))}
		for _, n := range names {
			list.Graphs = append(list.Graphs, ReplicaGraph{Name: n})
		}
		writeJSON(w, http.StatusOK, list)
	})
	mux.HandleFunc("POST /v1/admin/promote", func(w http.ResponseWriter, r *http.Request) {
		if kr := f.opts.Keyring; kr != nil {
			if _, ok := kr.Resolve(apiKey(r)); !ok {
				writeError(w, http.StatusUnauthorized, CodeUnauthorized,
					fmt.Errorf("missing or unknown API key"))
				return
			}
		}
		st, err := f.Promote()
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusServiceUnavailable, CodeNotPrimary,
			fmt.Errorf("this daemon is a replication follower of %s; write there or promote it first", f.opts.PrimaryURL))
	})
	return mux
}

// registerObs wires the follower-side gpsd_repl_* families. Their names
// are disjoint from the primary-side families (replication.go), so
// after promotion — when BuildServer registers those into this same
// registry — both sets coexist: the frozen final lag of the standby era
// next to the live feed counters of the new primary.
func (f *Follower) registerObs(reg *obs.Registry) {
	reg.GaugeFunc("gpsd_repl_role", "Replication role: 0 follower, 1 primary (after promotion).",
		func() float64 {
			if f.promoted.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("gpsd_repl_connected", "Whether the replication feed is connected (1) or down (0).",
		func() float64 {
			if f.replica.Status().Connected {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("gpsd_repl_lag_frames", "Durable frames on the primary not yet applied here.",
		func() float64 { return float64(f.replica.Status().LagFrames) })
	reg.GaugeFunc("gpsd_repl_lag_bytes", "Durable WAL bytes on the primary not yet applied here.",
		func() float64 { return float64(f.replica.Status().LagBytes) })
	reg.GaugeFunc("gpsd_repl_lag_seconds", "Age of the last heartbeat whose frames are fully applied.",
		func() float64 { return f.replica.Status().LagSeconds })
	reg.GaugeFunc("gpsd_repl_primary_epoch", "Highest fencing epoch observed from the primary.",
		func() float64 { return float64(f.replica.Status().PrimaryEpoch) })
	reg.GaugeFunc("gpsd_repl_disconnected_seconds", "How long the feed has been down; 0 while connected.",
		func() float64 { return f.replica.Status().DisconnectedFor })
	reg.SampleFunc("gpsd_repl_resyncs_total", "Full re-syncs this follower performed (compaction on the primary, lost position).", obs.KindCounter,
		func() []obs.Sample { return []obs.Sample{{Value: float64(f.replica.Status().Resyncs)}} })
	reg.SampleFunc("gpsd_repl_seals_verified_total", "Sealed segments whose checksums this follower verified.", obs.KindCounter,
		func() []obs.Sample { return []obs.Sample{{Value: float64(f.replica.Status().SealsVerified)}} })
}
