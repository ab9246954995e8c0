// Command gpsd serves the interactive query-learning system over HTTP: a
// multi-tenant front-end that loads graphs, runs many concurrent learning
// sessions (manual or simulated) and evaluates path queries with a bitset
// product-reachability fixpoint and a shared per-graph LRU engine cache.
//
// Usage:
//
//	gpsd                                  # listen on :8080, in-memory
//	gpsd -addr :9090                      # custom port
//	gpsd -preload demo=figure1            # register a built-in dataset at boot
//	gpsd -preload big=transport:30x30     # sized transport grid
//	gpsd -data-dir /var/lib/gpsd          # durable: snapshots + a group-commit
//	                                      # WAL; crash recovery resumes sessions
//	gpsd -data-dir d -commit-interval 2ms # widen the group-commit batch window
//	gpsd -data-dir d -compact             # compact the journal at startup
//	gpsd -data-dir d -compact-interval 1m # compact live, periodically, while
//	                                      # serving (appends keep flowing)
//	gpsd -request-timeout 10s             # per-request deadline (SSE exempt)
//	gpsd -api-keys keys.json              # API-key auth, per-tenant quotas and
//	                                      # fair-share admission; SIGHUP reloads
//	gpsd -admit-wait 5s                   # max fair-share queueing before 429
//	gpsd -log-format json -log-level debug # structured logs for ingestion
//	gpsd -pprof-addr localhost:6060       # net/http/pprof on its own listener
//	gpsd -data-dir d -replicate-from http://primary:8080
//	                                      # warm follower: stream the primary's
//	                                      # WAL, promote via /v1/admin/promote
//	gpsd -replicate-from URL -auto-promote-after 10s
//	                                      # ... or self-promote once the
//	                                      # primary is unreachable that long
//
// A durable gpsd takes an exclusive LOCK on its data directory, so a
// second daemon pointed at the same directory fails fast instead of
// corrupting it. See the README's "Service" and "Observability" sections
// for the API, metrics and log surfaces.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux; served only on -pprof-addr
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// newLogger builds the process logger from -log-format/-log-level and
// installs it as the slog default, so library code logging through
// slog.Default lands in the same stream.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: want debug, info, warn or error", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
	log := slog.New(h)
	slog.SetDefault(log)
	return log, nil
}

// crashFault arms the store's fault-injection hook from the environment:
// GPSD_FAULT_CRASH=<point> makes the daemon exit hard (no cleanup, no lock
// release — a faithful SIGKILL) the first time the store passes that named
// fault point. Used by the chaos harness to park crashes inside specific
// live-compaction phases; unset in normal operation.
func crashFault(log *slog.Logger) func(string) error {
	point := os.Getenv("GPSD_FAULT_CRASH")
	if point == "" {
		return nil
	}
	return func(p string) error {
		if p == point {
			log.Error("GPSD_FAULT_CRASH: crashing", "fault_point", p)
			os.Exit(3)
		}
		return nil
	}
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		cacheCap    = flag.Int("cache-cap", 0, "per-graph engine-cache capacity (0 = default)")
		useIndex    = flag.Bool("index", true, "build per-graph reachability indexes in the background for faster /evaluate (per-graph opt-out: no_index in the load spec)")
		maxSess     = flag.Int("max-sessions", 0, "live session limit (0 = default)")
		preload     = flag.String("preload", "", "comma-separated name=dataset graphs to register at boot (figure1, transport[:RxC], random[:N], scale-free[:N])")
		dataDir     = flag.String("data-dir", "", "durable data directory for graph snapshots and session journals (empty = in-memory only)")
		commitIvl   = flag.Duration("commit-interval", 0, "max extra latency an append may wait to share an fsync (0 = batch only what is already queued)")
		compact     = flag.Bool("compact", false, "compact the journal at startup: drop removed sessions, collapse finished ones, retire dead segments")
		compactIvl  = flag.Duration("compact-interval", 0, "run a live compaction this often while serving (0 = never); appends keep flowing during a pass")
		segSize     = flag.Int64("segment-size", 0, "segment roll threshold in bytes (0 = default 4MiB)")
		reqTimeout  = flag.Duration("request-timeout", 30*time.Second, "per-request deadline for non-streaming endpoints (0 = unbounded)")
		apiKeys     = flag.String("api-keys", "", "JSON keyring file mapping API keys to tenants and quotas; SIGHUP reloads it (empty = open mode, no auth)")
		admitWait   = flag.Duration("admit-wait", 0, "max time a session create may queue for fair-share admission before 429 (0 = default 2s)")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (own listener, e.g. localhost:6060; empty = disabled)")
		replFrom    = flag.String("replicate-from", "", "run as a warm replication follower of this primary base URL (requires -data-dir; read-only until promoted)")
		autoPromote = flag.Duration("auto-promote-after", 0, "follower: promote automatically once the primary has been unreachable this long (0 = promote only via POST /v1/admin/promote)")
	)
	flag.Parse()

	log, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpsd: %v\n", err)
		os.Exit(2)
	}
	fatal := func(msg string, args ...any) {
		log.Error(msg, args...)
		os.Exit(1)
	}

	follower := *replFrom != ""
	if follower {
		if *dataDir == "" {
			fatal("-replicate-from requires -data-dir")
		}
		if *compact {
			fatal("-compact does not apply to a follower; compact after promotion (-compact-interval or POST /v1/admin/compact)")
		}
		if *preload != "" {
			fatal("-preload does not apply to a follower; graphs replicate from the primary")
		}
	}
	var (
		eng  *store.Engine
		lock *store.Lock
	)
	if *dataDir != "" {
		// The lock outlives everything below: it is the first thing taken
		// and the last thing released, so two daemons can never interleave
		// writes into one directory. A follower locks its directory the
		// same way — the replica writes there, and promotion reopens it.
		lock, err = store.AcquireLock(*dataDir)
		if err != nil {
			fatal("data directory lock", "data_dir", *dataDir, "error", err)
		}
		defer func() {
			if err := lock.Release(); err != nil {
				log.Error("lock release", "data_dir", *dataDir, "error", err)
			}
		}()
	}
	if *dataDir != "" && !follower {
		eng, err = store.OpenEngine(*dataDir, store.EngineOptions{
			CommitInterval: *commitIvl,
			SegmentSize:    *segSize,
			Fault:          crashFault(log),
		})
		if err != nil {
			fatal("open store", "data_dir", *dataDir, "error", err)
		}
		defer eng.Close()
		// Record the fencing epoch in the LOCK file for operators.
		if err := lock.NoteEpoch(eng.Epoch()); err != nil {
			log.Warn("lock epoch note", "error", err)
		}
		if *compact {
			rep, err := eng.Compact()
			if err != nil {
				fatal("startup compact", "data_dir", *dataDir, "error", err)
			}
			log.Info("compacted at startup",
				"data_dir", *dataDir,
				"sessions_compacted", rep.SessionsCompacted, "sessions_dropped", rep.SessionsDropped,
				"segments_retired", rep.SegmentsRetired, "segments_written", rep.SegmentsWritten,
				"bytes_before", rep.BytesBefore, "bytes_after", rep.BytesAfter)
		}
	} else if *compact {
		fatal("-compact requires -data-dir")
	}
	var keyring *service.Keyring
	if *apiKeys != "" {
		keyring, err = service.OpenKeyring(*apiKeys)
		if err != nil {
			fatal("open keyring", "api_keys", *apiKeys, "error", err)
		}
		log.Info("api keys loaded", "api_keys", *apiKeys)
	}
	metrics := obs.NewRegistry()

	// The live-compaction ticker runs beside the serving loop: each pass
	// seals the active segment and rewrites only sealed ones, so appends
	// never stall beyond one group-commit batch window. ErrCompacting (an
	// admin-triggered pass already running) is not noise worth logging.
	// A follower starts the ticker at promotion time, over the engine the
	// promotion opened.
	compactDone := make(chan struct{})
	if *compactIvl > 0 && *dataDir == "" {
		fatal("-compact-interval requires -data-dir")
	}
	startCompactTicker := func(eng *store.Engine) {
		if *compactIvl <= 0 {
			return
		}
		ticker := time.NewTicker(*compactIvl)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-compactDone:
					return
				case <-ticker.C:
				}
				rep, err := eng.Compact()
				switch {
				case errors.Is(err, store.ErrCompacting):
				case err != nil:
					log.Error("live compact", "error", err)
				case rep.SegmentsRetired > 0:
					log.Info("live compact done",
						"sessions_compacted", rep.SessionsCompacted, "sessions_dropped", rep.SessionsDropped,
						"segments_retired", rep.SegmentsRetired, "segments_written", rep.SegmentsWritten,
						"bytes_before", rep.BytesBefore, "bytes_after", rep.BytesAfter)
				}
			}
		}()
	}

	// bootServer is the primary boot sequence: assemble, recover, start
	// the compaction ticker. It runs at startup for a primary and at
	// promotion time for a follower — adoption of replicated sessions is
	// exactly crash recovery.
	bootServer := func(eng *store.Engine) (*service.Server, error) {
		srv := service.NewServer(service.Options{
			CacheCapacity:  *cacheCap,
			DisableIndex:   !*useIndex,
			MaxSessions:    *maxSess,
			Keyring:        keyring,
			AdmitWait:      *admitWait,
			Store:          eng,
			RequestTimeout: *reqTimeout,
			Metrics:        metrics,
			Logger:         log,
		})
		if eng != nil {
			rep, err := srv.Recover()
			if err != nil {
				return nil, fmt.Errorf("recover: %w", err)
			}
			log.Info("recovered",
				"data_dir", *dataDir,
				"graphs", rep.Graphs, "sessions_finished", rep.SessionsFinished, "sessions_resumed", rep.SessionsResumed)
			for _, skipped := range rep.SessionsSkipped {
				log.Warn("recovery skipped session", "detail", skipped)
			}
			startCompactTicker(eng)
		}
		return srv, nil
	}

	var (
		handler        http.Handler
		notifyShutdown func()
		closePromoted  = func() {}
	)
	if follower {
		var (
			promotedMu  sync.Mutex
			promotedEng *store.Engine
		)
		f, err := service.NewFollower(service.FollowerOptions{
			Dir:              *dataDir,
			PrimaryURL:       *replFrom,
			AutoPromoteAfter: *autoPromote,
			Keyring:          keyring,
			Metrics:          metrics,
			Logger:           log,
			OpenEngine: func() (*store.Engine, error) {
				return store.OpenEngine(*dataDir, store.EngineOptions{
					CommitInterval: *commitIvl,
					SegmentSize:    *segSize,
					Fault:          crashFault(log),
				})
			},
			BuildServer: func(eng *store.Engine) (*service.Server, error) {
				if err := lock.NoteEpoch(eng.Epoch()); err != nil {
					log.Warn("lock epoch note", "error", err)
				}
				srv, err := bootServer(eng)
				if err != nil {
					return nil, err
				}
				promotedMu.Lock()
				promotedEng = eng
				promotedMu.Unlock()
				return srv, nil
			},
		})
		if err != nil {
			fatal("follower", "primary", *replFrom, "error", err)
		}
		defer f.Close()
		handler = f
		notifyShutdown = f.NotifyShutdown
		closePromoted = func() {
			promotedMu.Lock()
			defer promotedMu.Unlock()
			if promotedEng != nil {
				if err := promotedEng.Close(); err != nil {
					log.Error("close promoted engine", "error", err)
				}
			}
		}
	} else {
		srv, err := bootServer(eng)
		if err != nil {
			fatal("boot", "data_dir", *dataDir, "error", err)
		}
		if *preload != "" {
			for _, arg := range strings.Split(*preload, ",") {
				name, spec, err := service.ParsePreload(strings.TrimSpace(arg))
				if err != nil {
					fatal("-preload", "error", err)
				}
				g, err := service.BuildGraph(spec)
				if err != nil {
					fatal("-preload build", "graph", name, "error", err)
				}
				h, err := srv.Registry().Register(name, g)
				if err != nil {
					fatal("-preload register", "graph", name, "error", err)
				}
				log.Info("registered graph", "graph", name, "nodes", h.Graph().NumNodes(), "edges", h.Graph().NumEdges())
			}
		}
		handler = srv.Handler()
		notifyShutdown = srv.NotifyShutdown
	}

	// The pprof listener is separate from the API listener on purpose:
	// profiles stay reachable when the API is saturated, and the API
	// address can be exposed without also exposing /debug/pprof.
	if *pprofAddr != "" {
		go func() {
			log.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Error("pprof listener", "addr", *pprofAddr, "error", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	// Drain open SSE streams when Shutdown begins, or they would hold the
	// graceful shutdown until its deadline.
	httpSrv.RegisterOnShutdown(notifyShutdown)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	role := "primary"
	if follower {
		role = "follower"
	}
	log.Info("listening", "addr", *addr, "role", role,
		"data_dir", *dataDir, "log_format", *logFormat)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case err := <-errCh:
			fatal("serve", "addr", *addr, "error", err)
		case sig := <-sigCh:
			// SIGHUP hot-reloads the keyring and keeps serving; anything else
			// begins the graceful shutdown.
			if sig == syscall.SIGHUP {
				if keyring == nil {
					log.Warn("SIGHUP ignored: no -api-keys file to reload")
					continue
				}
				if err := keyring.Reload(); err != nil {
					log.Error("keyring reload failed; keeping previous keys", "api_keys", *apiKeys, "error", err)
				} else {
					log.Info("keyring reloaded", "api_keys", *apiKeys)
				}
				continue
			}
			log.Info("shutting down", "signal", sig.String())
			// Stop scheduling compactions before the engine closes under them.
			close(compactDone)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := httpSrv.Shutdown(ctx); err != nil {
				log.Error("graceful shutdown failed; forcing close", "error", err)
				_ = httpSrv.Close()
			}
			// A promoted follower's engine was opened at promotion time, not
			// boot, so its close is not among the boot-time defers.
			closePromoted()
			return
		}
	}
}
