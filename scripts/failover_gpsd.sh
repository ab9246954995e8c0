#!/usr/bin/env bash
# Failover run for gpsd: build the daemon with the race detector, boot a
# primary/warm-follower pair, and let the harness SIGKILL the acting
# primary repeatedly — including crashes parked inside live-compaction
# phases via GPSD_FAULT_CRASH — promoting the standby each time and
# re-seeding the old primary's wiped directory as the new follower. The
# 24-session workload rides through every failover on the typed client's
# endpoint re-resolution. The run fails on any invariant violation: a
# lost or diverged session, a promotion that does not advance the fencing
# epoch, a deposed primary that accepts a write, or any disagreement with
# a never-killed in-process oracle server (its store in a temporary
# directory) that replays the same sessions.
#
# Usage: ./scripts/failover_gpsd.sh [seed [kills]]
set -euo pipefail

SEED="${1:-1}"
KILLS="${2:-10}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -race -o "$WORK/gpsd" ./cmd/gpsd
go build -o "$WORK/gpsbench" ./cmd/gpsbench

"$WORK/gpsbench" -failover \
  -chaos-gpsd "$WORK/gpsd" \
  -failover-kills "$KILLS" \
  -seed "$SEED" \
  -failover-out "${FAILOVER_OUT:-$WORK/failover.json}" \
  -chaos-telemetry "${FAILOVER_TEL:-$WORK/failover-telemetry.jsonl}" \
  -chaos-v

if [ -f "${FAILOVER_OUT:-$WORK/failover.json}" ]; then
  cat "${FAILOVER_OUT:-$WORK/failover.json}"
fi

echo "gpsd failover run passed (seed=$SEED kills=$KILLS)"
