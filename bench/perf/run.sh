#!/usr/bin/env bash
# Build the benchmark from source and run it. Run from the root of a
# checkout; arguments go to perf.exe unchanged, e.g.
#
#   bash bench/perf/run.sh --workload khop-batched --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr, so the last line on stdout is perf.exe's
# result line. Without the repository's sources there is nothing to
# build, and the script exits non-zero before printing anything.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f BENCHMARK.json ]; then
  echo "run.sh: run from the root of a graphdance checkout" >&2
  exit 2
fi

if ! command -v dune > /dev/null && command -v opam > /dev/null; then
  eval "$(opam env)"
fi

dune build --root . --display quiet bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
