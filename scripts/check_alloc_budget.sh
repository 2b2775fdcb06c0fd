#!/usr/bin/env bash
# Allocation-regression gate.
#
# The frontend's steady-state decode path is designed to be allocation-free:
# task and version records live in sim.Arena slots (version records found
# through a sim.Table), protocol messages by value in their servers'
# queues, and delivery events and dispatch records in sim.Pool free lists
# (see docs/ARCHITECTURE.md "Memory layout"). What remains in
# the measured allocs-per-simulated-task figure is per-run machine
# construction spread over the workload, so the number is small and
# stable — and any structural regression (a map reintroduced on a hot
# path, a pooled object leaking to the heap) moves it sharply.
#
# This script fails if the freshly measured `frontend_decode` allocs/task
# or bytes/task in BENCH_engine.json exceeds the ceiling committed in
# docs/goldens/alloc_budget.txt. Bytes per task (bytes_per_op /
# tasks_per_op) guards the size of the per-window records: a record that
# grows back toward its old layout raises it without adding an
# allocation. Raise a ceiling only with a justified, reviewed change (and
# say so in the PR description).
set -euo pipefail
cd "$(dirname "$0")/.."

bench=${1:-BENCH_engine.json}
budget_file=docs/goldens/alloc_budget.txt

# The budget file commits one ceiling per line: serial decode allocations
# first, then the critical-path policy decode allocations, which add the
# one-time dependence-graph depth precompute, then serial decode bytes.
budget() { grep -v '^#' "$budget_file" | sed -n "${1}p" | tr -d '[:space:]'; }

gate() { # gate <bench-key> <allocs_per_task|bytes_per_task> <ceiling>
  local key=$1 metric=$2 limit=$3
  local actual
  actual=$(python3 - "$bench" "$key" "$metric" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    res = json.load(f)["current"]["results"][sys.argv[2]]
if sys.argv[3] == "bytes_per_task":
    print(res["bytes_per_op"] / res["tasks_per_op"])
else:
    print(res[sys.argv[3]])
EOF
  )
  echo "$key: ${actual} ${metric} (ceiling ${limit})"
  python3 - "$actual" "$limit" "$key" "$metric" <<'EOF'
import sys
actual, ceiling = float(sys.argv[1]), float(sys.argv[2])
if actual > ceiling:
    print(f"FAIL: {sys.argv[3]} measures {actual} {sys.argv[4]}, "
          f"over the committed ceiling of {ceiling}.", file=sys.stderr)
    print("If this increase is intentional, raise docs/goldens/alloc_budget.txt "
          "and justify it in the PR description.", file=sys.stderr)
    sys.exit(1)
EOF
}

gate frontend_decode allocs_per_task "$(budget 1)"
gate frontend_decode_critical_path allocs_per_task "$(budget 2)"
gate frontend_decode bytes_per_task "$(budget 3)"
echo "allocation budget OK"
