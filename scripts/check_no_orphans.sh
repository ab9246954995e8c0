#!/usr/bin/env bash
# Fails when a gpsd daemon, a gpsbench driver or a benchmark binary is still
# running. CI runs it at the end of every job that starts gpsd, so a script
# that leaves a process behind fails its job.
if pgrep -fl '[g]psd|[g]psbench|bench/out/[b]ench'; then
  echo "the processes above outlived the job's commands" >&2
  exit 1
fi
