#!/usr/bin/env bash
# Builds the benchmark from this checkout's source, then measures one
# workload:
#
#   bash observatory/run.sh --workload NAME --seed N --seconds T --trace 0|1
#
# --trace 0 measures the end-to-end metrics (observatory.exe run), --trace 1
# the per-layer metrics (observatory.exe trace). The last line printed is
# one JSON object with the metrics BENCHMARK.json names.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=run
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --trace)
      [ "${2:-0}" = 1 ] && mode=trace
      shift 2
      ;;
    *)
      args+=("$1")
      shift
      ;;
  esac
done

# Build output stays in the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet observatory/observatory.exe 1>&2
exec ./_build/default/observatory/observatory.exe "$mode" "${args[@]}"
