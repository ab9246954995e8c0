#!/usr/bin/env bash
# Fails when a gpsd daemon, a gpsbench driver or a benchmark binary is still
# running. CI runs it at the end of every job that starts gpsd, so a script
# that leaves a process behind fails its job.
#
# It matches the executable, the first word of a command line, so a shell
# whose arguments merely mention gpsd (say, one running
# `./scripts/smoke_gpsd.sh; ./scripts/check_no_orphans.sh`) is not reported.
if pgrep -fl '^([^ ]*/)?(gpsd|gpsd\.race|gpsbench|bench/out/bench)( |$)'; then
  echo "the processes above outlived the job's commands" >&2
  exit 1
fi
