#!/usr/bin/env bash
# Fails when a `go test -run` pattern in the CI workflow names no test.
# `go test -run` passes with "no tests to run" when a pattern matches
# nothing, so a renamed or deleted test would silently drop out of the
# CI step that names it. For every -run '…' in the workflow (except the
# '^$' "run no tests" idiom), each |-separated alternative must list at
# least one test, benchmark, fuzz target or example in that step's
# packages (`go test -list`). Every alternative that lists none is named.
#
# Usage: ./scripts/check_run_patterns.sh [workflow.yml]
set -euo pipefail
cd "$(dirname "$0")/.."
CI="${1:-.github/workflows/ci.yml}"
fail=0
while IFS= read -r line; do
  pattern=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
  [ "$pattern" = '^$' ] && continue
  read -ra pkgs <<<"$(grep -oE '\./[^ ]+' <<<"$line" | tr '\n' ' ')"
  IFS='|' read -ra alts <<<"$pattern"
  for alt in "${alts[@]}"; do
    listed=$(go test -list "$alt" "${pkgs[@]}" 2>&1) || true
    if ! grep -qE '^(Test|Benchmark|Fuzz|Example)' <<<"$listed"; then
      echo "$CI: -run alternative '$alt' lists no test in ${pkgs[*]}" >&2
      fail=1
    fi
  done
done < <(grep -E -- "go test .*-run '" "$CI")
exit "$fail"
