#!/usr/bin/env bash
# Builds gpsd and the benchmark into bench/out and runs the benchmark with
# the given arguments. Everything go writes — build cache, temporary files,
# telemetry — is kept under bench/out, so a run touches nothing outside the
# checkout.
set -euo pipefail
cd "$(dirname "$0")"
out=$PWD/out
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local
go build -C .. -o "$out/gpsd" ./cmd/gpsd
go build -o "$out/bench" .
exec "$out/bench" "$@"
