#!/usr/bin/env bash
# Build the pipeline benchmark from source and run it.
#
#   bash perfbench/run.sh --workload loop-guard --seed 42 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all          # every workload, one process each
#   bash perfbench/run.sh --smoke                 # tiny-size self-test
#   bash perfbench/run.sh --emit-spec > BENCHMARK.json
#
# Run it from the repository root. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
