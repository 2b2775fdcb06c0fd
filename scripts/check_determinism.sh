#!/usr/bin/env bash
# Determinism golden check.
#
# The simulator's contract is cycle-exact reproducibility: the same inputs
# must produce byte-identical output on every run, at every sweep worker
# count, on every machine. This script verifies that in three steps:
#
#   1. tsbench quick mode twice — serial and with a 4-way worker pool —
#      must be byte-identical (parallel sweep determinism);
#   2. tssim on two fixed seeds (one hardware run, one with the full
#      memory hierarchy) — exercises single-run determinism;
#   3. the sha256 hashes of all outputs must match the goldens committed
#      under docs/goldens/ (cross-PR drift detection).
#
# Run with -update after an INTENDED simulation-semantics change to
# regenerate the goldens (and say so in the PR description).
set -euo pipefail
cd "$(dirname "$0")/.."

golden=docs/goldens/determinism.sha256
update=0
[ "${1:-}" = "-update" ] && update=1

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/tsbench" ./cmd/tsbench
go build -o "$tmp/tssim" ./cmd/tssim

# Drop the wall-clock timing lines tsbench prints per experiment.
norm() { grep -v '^('; }

"$tmp/tsbench" -experiment all -workers 1 | norm > "$tmp/bench-serial.txt"
"$tmp/tsbench" -experiment all -workers 4 | norm > "$tmp/bench-parallel.txt"
if ! cmp -s "$tmp/bench-serial.txt" "$tmp/bench-parallel.txt"; then
  echo "FAIL: serial and 4-worker sweeps differ (parallel determinism broken)" >&2
  diff "$tmp/bench-serial.txt" "$tmp/bench-parallel.txt" | head -20 >&2
  exit 1
fi

"$tmp/tssim" -workload cholesky -tasks 3000 -seed 7 -cores 64 > "$tmp/sim-cholesky-seed7.txt"
"$tmp/tssim" -workload h264 -tasks 2000 -seed 3 -cores 128 -memory > "$tmp/sim-h264-seed3.txt"
"$tmp/tssim" -workload cholesky -tasks 3000 -seed 7 -cores 64 -policy critical-path > "$tmp/sim-cholesky-cp.txt"

(cd "$tmp" && sha256sum bench-serial.txt sim-cholesky-seed7.txt sim-h264-seed3.txt sim-cholesky-cp.txt) > "$tmp/hashes"

if [ "$update" = 1 ]; then
  mkdir -p "$(dirname "$golden")"
  cp "$tmp/hashes" "$golden"
  echo "goldens updated in $golden"
  exit 0
fi

if ! diff -u "$golden" "$tmp/hashes"; then
  echo "FAIL: output drifted from the committed goldens ($golden)." >&2
  echo "If this PR intentionally changes simulation semantics, regenerate with:" >&2
  echo "  scripts/check_determinism.sh -update" >&2
  exit 1
fi
echo "determinism OK ($(wc -l < "$golden") goldens)"
