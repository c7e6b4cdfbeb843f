#!/usr/bin/env bash
# Golden output of the paper figures: regenerate it and diff it against
# the committed bench_output.txt at the repo root.
#
#   bash bench/golden.sh            # run, filter, diff; exit 1 on any difference
#   bash bench/golden.sh --update   # rewrite bench_output.txt instead
#
# Runs bench/main.exe over every paper figure and ablation listed below,
# in order: about 9 minutes of CPU on a 2-core x86 VM. Everything it
# prints is simulated time, except the host-clock line filtered here:
# the "[<experiment> done in <t>s cpu]" line after each experiment.
# Two runs of one commit differ in nothing else.
#
# Too slow for `dune runtest`; the fast golden rule in test/golden/ is
# part of it instead.
set -euo pipefail

cd "$(dirname "$0")/.."

experiments=(table1 table2 fig7 fig8 fig8l fig8sn fig9 fig10 fig12 fig13
  plan partition repartition khop critpath serve scale)

dune build bench/main.exe

out=$(mktemp)
trap 'rm -f "$out"' EXIT

./_build/default/bench/main.exe "${experiments[@]}" |
  awk '!/^  \[[^]]* done in [0-9.]+s cpu\]$/' >"$out"

if [ "${1:-}" = "--update" ]; then
  cp "$out" bench_output.txt
  echo "bench_output.txt updated"
elif diff -u bench_output.txt "$out"; then
  echo "golden: bench_output.txt reproduced byte for byte"
else
  echo "golden: output differs from bench_output.txt" >&2
  exit 1
fi
