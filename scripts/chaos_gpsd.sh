#!/usr/bin/env bash
# Chaos run for gpsd: build the daemon with the race detector, build
# gpsbench, and let the chaos harness SIGKILL the daemon dozens of times —
# including crashes parked inside live-compaction phases via
# GPSD_FAULT_CRASH — while concurrent learning sessions keep answering
# questions over HTTP. The run fails on any invariant violation: a lost or
# diverged session, a mutated finished session, a corrupt frame, a leaked
# or wrongly-broken LOCK, a missing compaction, or any disagreement with
# a never-killed in-process oracle server (its store in a temporary
# directory) that replays the same sessions.
#
# Usage: ./scripts/chaos_gpsd.sh [seed [kills]]
set -euo pipefail

SEED="${1:-1}"
KILLS="${2:-30}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# The daemon runs with -race so a crash-heavy run also shakes out data
# races in the writer/compactor/recovery paths; the harness itself is a
# plain build (it is only an HTTP client plus the in-process oracle).
go build -race -o "$WORK/gpsd" ./cmd/gpsd
go build -o "$WORK/gpsbench" ./cmd/gpsbench

"$WORK/gpsbench" -chaosbench \
  -chaos-gpsd "$WORK/gpsd" \
  -chaos-kills "$KILLS" \
  -seed "$SEED" \
  -chaosbench-out "${CHAOS_OUT:-$WORK/chaos.json}" \
  -chaos-telemetry "${CHAOS_TEL:-$WORK/chaos-telemetry.jsonl}" \
  -chaos-v

if [ -f "${CHAOS_OUT:-$WORK/chaos.json}" ]; then
  cat "${CHAOS_OUT:-$WORK/chaos.json}"
fi

echo "gpsd chaos run passed (seed=$SEED kills=$KILLS)"
