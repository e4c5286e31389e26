#!/usr/bin/env bash
# Builds the server and the benchmark from source, then runs one
# benchmark workload. Arguments pass through:
#   bash perfbench/run.sh --workload hot_read --seed 1 --seconds 8 --trace 0
# Run from the repository root. Build output goes to stderr, so the last
# line on stdout is the result object.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./bin/infoflow.exe ./perfbench/main.exe 1>&2
PERFBENCH_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_REV
exec ./_build/default/perfbench/main.exe "$@"
