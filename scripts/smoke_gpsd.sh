#!/usr/bin/env bash
# Smoke test for the gpsd service, run once per storage engine (binary and
# text). The shell half does what shell is good at — booting daemons,
# sending signals, checking LOCK files and grepping the /metrics and
# /v1/stats surfaces — while every session-level check is delegated to the
# typed Go client via `gpsbench -smokedrive` (evaluate + error-code
# contract, a simulated session driven to convergence, a manual session
# parked mid-question, before/after state snapshots diffed across each
# kill). The kill matrix pins recovery: a graceful SIGTERM and a hard
# SIGKILL both restart into byte-identical session state, the LOCK
# protocol holds (second daemon fails fast, SIGKILL leaks the lock, the
# next boot breaks it, SIGTERM removes it), and the SSE stream replays
# the journal. Binary engine only: a -compact restart keeps the finished
# session inspectable and POST /v1/admin/compact compacts a serving
# daemon. A keyring segment boots with -api-keys, asserts the
# unauthorized envelope code on the wire, rotates the key file and proves
# SIGHUP hot-reload revokes the old key without a restart. A final
# replication segment streams a primary with a parked session into a
# warm follower, SIGKILLs the primary, promotes the follower and proves
# the session reconnects byte-identically — then resurrects the old
# primary and fences it with the successor epoch. Used by CI; runnable
# locally with ./scripts/smoke_gpsd.sh [engine ...].
set -euo pipefail

ADDR="${GPSD_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
BIN="$WORK/gpsd"
BENCH="$WORK/gpsbench"
GPSD_PID=""
FOLLOWER_PID=""
if [ "$#" -gt 0 ]; then ENGINES=("$@"); else ENGINES=(binary text); fi

# stop_pid PID — SIGTERM, wait up to 10s for gpsd's graceful shutdown,
# then SIGKILL, and reap the process.
stop_pid() {
  kill -TERM "$1" 2>/dev/null || return 0
  for _ in $(seq 1 100); do
    kill -0 "$1" 2>/dev/null || break
    sleep 0.1
  done
  kill -KILL "$1" 2>/dev/null || true
  wait "$1" 2>/dev/null || true
}

# cleanup runs on every exit, a failed assertion included: no daemon
# outlives the script and the work directory goes with it.
cleanup() {
  if [ -n "$GPSD_PID" ]; then stop_pid "$GPSD_PID"; fi
  if [ -n "$FOLLOWER_PID" ]; then stop_pid "$FOLLOWER_PID"; fi
  rm -rf "$WORK"
}
trap cleanup EXIT

# start_server [extra flags...] — boots gpsd and fails fast with the
# server log if it exits or does not become healthy within the budget.
start_server() {
  : >"$LOG"
  "$BIN" -addr "$ADDR" -data-dir "$DATA_DIR" -store-engine "$ENGINE" "$@" >>"$LOG" 2>&1 &
  GPSD_PID=$!
  for _ in $(seq 1 50); do
    if ! kill -0 "$GPSD_PID" 2>/dev/null; then
      echo "gpsd exited during startup; server log:" >&2
      cat "$LOG" >&2
      exit 1
    fi
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "gpsd did not become healthy within 10s; server log:" >&2
  cat "$LOG" >&2
  exit 1
}

stop_server() {
  stop_pid "$GPSD_PID"
  GPSD_PID=""
}

# kill_server — SIGKILL, no grace: simulates a crash or OOM kill. The
# LOCK file is deliberately left behind (nothing ran the cleanup).
kill_server() {
  kill -KILL "$GPSD_PID"
  wait "$GPSD_PID" 2>/dev/null || true
  GPSD_PID=""
}

# smokedrive MODE [args...] — one typed-client check against $BASE.
smokedrive() {
  mode="$1"; shift
  "$BENCH" -smokedrive "$mode" -smoke-base "$BASE" "$@"
}

# metric_value FILE PATTERN — numeric value of the first sample line whose
# name{labels} part matches PATTERN in a /metrics scrape.
metric_value() {
  awk -v pat="$2" '$0 !~ /^#/ && $0 ~ pat { print $NF; exit }' "$1"
}

# assert_ge A B MSG — fail unless A >= B (awk handles the arithmetic so
# exponent-formatted values compare correctly).
assert_ge() {
  awk -v a="$1" -v b="$2" 'BEGIN { exit !(a+0 >= b+0) }' \
    || { echo "metrics: $3 (got $1, want >= $2)" >&2; exit 1; }
}

go build -o "$BIN" ./cmd/gpsd
go build -o "$BENCH" ./cmd/gpsbench

run_engine() {
  ENGINE="$1"
  DATA_DIR="$WORK/data-$ENGINE"
  LOG="$WORK/gpsd-$ENGINE.log"
  echo "=== smoke: $ENGINE engine ==="

  start_server -preload demo=figure1

  # Two daemons must never share a data directory: the second loses the
  # LOCK race and exits with a clear error instead of corrupting the dir.
  if "$BIN" -addr 127.0.0.1:18099 -data-dir "$DATA_DIR" -store-engine "$ENGINE" >"$WORK/second.log" 2>&1; then
    echo "second gpsd on the same data dir must fail" >&2
    exit 1
  fi
  grep -qi "locked" "$WORK/second.log"

  # Evaluate the paper's goal query on the preloaded Figure 1 graph (it
  # must select exactly the four neighbourhoods), load a second graph
  # inline, and pin the error contract: every canonical failure answers
  # with its stable error code, and a limit-1 cursor walk visits exactly
  # the unpaged graph listing.
  smokedrive eval

  # The same contract holds on the raw wire, independent of the client:
  # the envelope carries a machine-readable code, not message prose.
  curl -sS "$BASE/v1/graphs/no-such-graph" >$WORK/envelope.json
  grep -Eq '"code": ?"graph_not_found"' $WORK/envelope.json
  grep -q '"request_id"' $WORK/envelope.json

  # Drive one simulated learning session to convergence (halt must be
  # user-satisfied) and verify its hypothesis and SSE replay.
  SID=$(smokedrive simulate)
  test -n "$SID"
  smokedrive checkdone -smoke-session "$SID"

  curl -fsS "$BASE/v1/stats" | tee $WORK/stats.json
  grep -q '"graphs"' $WORK/stats.json
  grep -q '"journal_appends"' $WORK/stats.json
  grep -Eq "\"engine\": ?\"$ENGINE\"" $WORK/stats.json
  # Backpressure metrics: session-manager queue state and per-endpoint
  # request-latency histograms must be populated by the traffic above.
  grep -q '"backpressure"' $WORK/stats.json
  grep -q '"queue_depth"' $WORK/stats.json
  grep -q '"live_sessions"' $WORK/stats.json
  grep -q '"POST /v1/graphs/{name}/evaluate"' $WORK/stats.json
  grep -q '"p99_us"' $WORK/stats.json

  # --- /metrics exposition -------------------------------------------------
  # One scrape must cover every telemetry surface: store counters, cache
  # stats, backpressure gauges, request-latency histograms with cumulative
  # buckets ending at +Inf, and the session-trace histograms populated by
  # the simulated session above.
  curl -fsS "$BASE/metrics" | tee $WORK/metrics.txt >/dev/null
  grep -q '^# TYPE gpsd_store_journal_appends_total counter' $WORK/metrics.txt
  grep -q "^gpsd_store_journal_appends_total{engine=\"$ENGINE\"}" $WORK/metrics.txt
  grep -q '^# TYPE gpsd_http_request_duration_seconds histogram' $WORK/metrics.txt
  grep -q 'gpsd_http_request_duration_seconds_bucket{.*le="+Inf"}' $WORK/metrics.txt
  grep -q '^gpsd_sessions_live ' $WORK/metrics.txt
  grep -q '^gpsd_cache_hits_total{graph="demo"}' $WORK/metrics.txt
  grep -q '^# TYPE gpsd_session_question_wait_seconds histogram' $WORK/metrics.txt
  grep -q '^gpsd_session_learn_phase_seconds_count{phase="generalize"}' $WORK/metrics.txt
  APPENDS_1=$(metric_value $WORK/metrics.txt "^gpsd_store_journal_appends_total")
  assert_ge "$APPENDS_1" 1 "journal appends must be counted after a session"

  # --- Kill-and-restart recovery -------------------------------------------
  # Park a manual session on its satisfied question (one positive label
  # in), snapshot its state, SIGTERM the server mid-session and restart
  # from the same data dir: the session list, the parked question and the
  # hypothesis must survive byte-identically.
  MID=$(smokedrive park)
  test -n "$MID"
  smokedrive snapshot -smoke-session "$MID" -smoke-out $WORK/manual_before.json
  grep -Eq '"kind": ?"satisfied"' $WORK/manual_before.json

  # Counters are monotonic within a server process: the manual-session
  # traffic above can only have grown the journal-append counter.
  curl -fsS "$BASE/metrics" >$WORK/metrics2.txt
  APPENDS_2=$(metric_value $WORK/metrics2.txt "^gpsd_store_journal_appends_total")
  assert_ge "$APPENDS_2" "$APPENDS_1" "journal-append counter must never regress within a run"

  stop_server
  start_server # no -preload: everything must come back from the store

  curl -fsS "$BASE/v1/graphs" | tee $WORK/graphs_after.json
  grep -q '"demo"' $WORK/graphs_after.json
  grep -q '"tiny"' $WORK/graphs_after.json

  # The finished simulated session is still listed with its result, its
  # hypothesis still selects the four neighbourhoods, and the SSE stream
  # replays the whole journal down to the terminal done event.
  smokedrive checkdone -smoke-session "$SID"

  # The manual session resumed at its exact pre-crash state.
  smokedrive snapshot -smoke-session "$MID" -smoke-out $WORK/manual_after.json
  diff $WORK/manual_before.json $WORK/manual_after.json

  # Recovery is visible in the stats.
  curl -fsS "$BASE/v1/stats" | tee $WORK/stats_after.json
  grep -Eq '"sessions_resumed": ?1' $WORK/stats_after.json

  # Recovery is visible on /metrics too: the restarted process starts its
  # counters at zero, but the replay itself must be accounted — recovered
  # graphs/sessions counted, the resumed session's replay span recorded,
  # and not a single corrupt journal frame after a clean SIGTERM.
  curl -fsS "$BASE/metrics" >$WORK/metrics_after.txt
  assert_ge "$(metric_value $WORK/metrics_after.txt "^gpsd_store_recovered_graphs_total")" 2 \
    "recovered-graph counter must cover both graphs after restart"
  assert_ge "$(metric_value $WORK/metrics_after.txt "^gpsd_store_recovered_sessions_total")" 2 \
    "recovered-session counter must cover both sessions after restart"
  assert_ge "$(metric_value $WORK/metrics_after.txt "^gpsd_recovery_sessions_resumed")" 1 \
    "resumed-session gauge must report the replayed manual session"
  assert_ge "$(metric_value $WORK/metrics_after.txt "^gpsd_session_replay_seconds_count")" 1 \
    "the resumed session must record a replay span"
  assert_ge 0 "$(metric_value $WORK/metrics_after.txt "^gpsd_store_corrupt_frames_total")" \
    "a clean shutdown must leave zero corrupt journal frames"
  # The journal-append counter restarts from zero in the new process; the
  # on-disk history it describes is still intact (sessions recovered above).
  APPENDS_3=$(metric_value $WORK/metrics_after.txt "^gpsd_store_journal_appends_total")
  test -n "$APPENDS_3"

  # --- SIGKILL recovery ----------------------------------------------------
  # A hard kill gets no cleanup: the LOCK file must be leaked, the next
  # boot must break the stale lock (its owner is dead, so the flock is
  # free) and every session must come back exactly as before.
  kill_server
  [ -f "$DATA_DIR/LOCK" ] || { echo "SIGKILL must leak the LOCK file" >&2; exit 1; }
  start_server
  smokedrive checkdone -smoke-session "$SID"
  smokedrive snapshot -smoke-session "$MID" -smoke-out $WORK/manual_sigkill.json
  diff $WORK/manual_before.json $WORK/manual_sigkill.json

  # Admin-triggered compaction works on a serving daemon (the text engine
  # reports supported=false, the binary engine compacts live).
  curl -fsS -X POST "$BASE/v1/admin/compact" | tee $WORK/admin_compact.json
  grep -q '"supported"' $WORK/admin_compact.json

  if [ "$ENGINE" = "binary" ]; then
    # --- Compacted restart -------------------------------------------------
    # A -compact boot rewrites the wal: the finished session collapses to
    # its summary (create + done) but stays inspectable, and the parked
    # manual session still resumes.
    stop_server
    start_server -compact
    grep -q 'compacted' "$LOG"
    smokedrive checkdone -smoke-session "$SID"
    smokedrive snapshot -smoke-session "$MID" -smoke-out $WORK/manual_compacted.json
    grep -Eq '"kind": ?"satisfied"' $WORK/manual_compacted.json
    curl -fsS "$BASE/v1/stats" | grep -Eq '"compaction_runs": ?1'
  fi

  stop_server
  # A graceful shutdown releases the data directory cleanly.
  [ ! -f "$DATA_DIR/LOCK" ] || { echo "SIGTERM must remove the LOCK file" >&2; exit 1; }
  echo "=== smoke: $ENGINE engine passed ==="
}

# --- API keys + SIGHUP reload ----------------------------------------------
# Boot with a keyring: unkeyed requests get the unauthorized envelope on
# the wire, a keyed client works end-to-end and its sessions land on its
# tenant. Then rotate the key file and SIGHUP: the new key is live and the
# old one revoked, without a restart.
run_auth() {
  ENGINE=binary
  DATA_DIR="$WORK/data-auth"
  LOG="$WORK/gpsd-auth.log"
  KEYS="$WORK/keyring.json"
  echo "=== smoke: API keys + SIGHUP reload ==="

  cat >"$KEYS" <<'EOF'
{
  "tenants": {"acme": {"max_sessions": 4, "max_graphs": 4}},
  "keys": {"sk-smoke-old": "acme"}
}
EOF
  start_server -preload demo=figure1 -api-keys "$KEYS"

  curl -sS "$BASE/v1/graphs" >$WORK/unauth.json
  grep -Eq '"code": ?"unauthorized"' $WORK/unauth.json
  smokedrive auth -smoke-key sk-smoke-old

  cat >"$KEYS" <<'EOF'
{
  "tenants": {"acme": {"max_sessions": 4, "max_graphs": 4}},
  "keys": {"sk-smoke-new": "acme"}
}
EOF
  kill -HUP "$GPSD_PID"
  for _ in $(seq 1 50); do
    grep -q 'keyring reloaded' "$LOG" && break
    sleep 0.1
  done
  grep -q 'keyring reloaded' "$LOG"

  smokedrive auth -smoke-key sk-smoke-new
  smokedrive auth -smoke-key sk-smoke-old -smoke-expect-unauthorized

  stop_server
  echo "=== smoke: API keys + SIGHUP reload passed ==="
}

# --- Replication: promote-and-reconnect -------------------------------------
# Stream a binary primary holding a parked manual session into a warm
# follower, crash the primary with SIGKILL, promote the follower over
# HTTP and prove the parked session reconnects byte-identically on the
# new primary. Then resurrect the old primary on its untouched data dir
# and prove the first write carrying the successor epoch fences it.
run_replication() {
  ENGINE=binary
  DATA_DIR="$WORK/data-repl-a"
  LOG="$WORK/gpsd-repl-a.log"
  ADDR_B="${GPSD_ADDR_B:-127.0.0.1:18081}"
  BASE_B="http://$ADDR_B"
  echo "=== smoke: replication & failover ==="

  start_server -preload demo=figure1
  MID=$(smokedrive park)
  test -n "$MID"
  smokedrive snapshot -smoke-session "$MID" -smoke-out $WORK/repl_before.json
  grep -Eq '"kind": ?"satisfied"' $WORK/repl_before.json

  "$BIN" -addr "$ADDR_B" -data-dir "$WORK/data-repl-b" -store-engine binary \
    -replicate-from "$BASE" >"$WORK/gpsd-repl-b.log" 2>&1 &
  FOLLOWER_PID=$!
  for _ in $(seq 1 100); do
    curl -fsS "$BASE_B/v1/replication/status" >$WORK/repl_status.json 2>/dev/null || true
    if grep -Eq '"connected": ?true' $WORK/repl_status.json 2>/dev/null &&
      grep -Eq '"lag_frames": ?0' $WORK/repl_status.json; then
      break
    fi
    sleep 0.2
  done
  grep -Eq '"role": ?"follower"' $WORK/repl_status.json
  grep -Eq '"connected": ?true' $WORK/repl_status.json
  grep -Eq '"lag_frames": ?0' $WORK/repl_status.json

  # The standby serves lag metrics and refuses writes with a typed code.
  curl -fsS "$BASE_B/metrics" | grep -q '^gpsd_repl_lag_frames 0'
  curl -sS -X POST "$BASE_B/v1/sessions" -H 'Content-Type: application/json' \
    -d '{"graph":"demo","mode":"manual"}' >$WORK/repl_refused.json
  grep -Eq '"code": ?"not_primary"' $WORK/repl_refused.json

  # Crash the primary; promote the follower; the epoch must advance.
  kill_server
  curl -fsS -X POST "$BASE_B/v1/admin/promote" | tee $WORK/repl_promoted.json
  grep -Eq '"role": ?"primary"' $WORK/repl_promoted.json
  EPOCH=$(grep -Eo '"epoch": ?[0-9]+' $WORK/repl_promoted.json | head -1 | grep -Eo '[0-9]+$')
  test -n "$EPOCH" && [ "$EPOCH" -ge 2 ]

  # The parked session reconnects byte-identically on the new primary.
  OLD_BASE=$BASE
  BASE=$BASE_B
  smokedrive snapshot -smoke-session "$MID" -smoke-out $WORK/repl_after.json
  BASE=$OLD_BASE
  diff $WORK/repl_before.json $WORK/repl_after.json

  # Resurrect the deposed primary on its untouched directory: the first
  # write carrying the successor epoch latches the fence durably; reads
  # stay available for post-mortem.
  start_server
  curl -sS -X POST "$BASE/v1/admin/compact" -H "X-GPSD-Epoch: $EPOCH" >$WORK/repl_fence.json
  grep -Eq '"code": ?"fenced"' $WORK/repl_fence.json
  [ -f "$DATA_DIR/FENCED" ] || { echo "fence latch must persist as a FENCED marker" >&2; exit 1; }
  curl -fsS "$BASE/v1/graphs" >/dev/null

  stop_server
  stop_pid "$FOLLOWER_PID"
  FOLLOWER_PID=""
  echo "=== smoke: replication & failover passed ==="
}

for engine in "${ENGINES[@]}"; do
  run_engine "$engine"
done
run_auth
run_replication

echo "gpsd smoke test passed"
