#!/usr/bin/env bash
# Allocation-regression gate.
#
# The frontend's steady-state decode path is designed to be allocation-free:
# task and version records live in sim.Arena slots (version records found
# through a sim.Table), protocol messages and dispatch records in sim.Pool
# free lists (see docs/ARCHITECTURE.md "Memory layout"). What remains in
# the measured allocs-per-simulated-task figure is per-run machine
# construction spread over the workload, so the number is small and
# stable — and any structural regression (a map reintroduced on a hot
# path, a pooled object leaking to the heap) moves it sharply.
#
# This script fails if the freshly measured `frontend_decode` allocs/task
# in BENCH_engine.json exceeds the ceiling committed in
# docs/goldens/alloc_budget.txt. Raise the ceiling only with a justified,
# reviewed change (and say so in the PR description).
set -euo pipefail
cd "$(dirname "$0")/.."

bench=${1:-BENCH_engine.json}
budget_file=docs/goldens/alloc_budget.txt

# The budget file commits one ceiling per line: serial decode first, then
# the critical-path policy decode, which adds the one-time dependence-graph
# depth precompute.
ceiling=$(grep -v '^#' "$budget_file" | sed -n 1p | tr -d '[:space:]')
cp_ceiling=$(grep -v '^#' "$budget_file" | sed -n 2p | tr -d '[:space:]')

gate() { # gate <bench-key> <ceiling>
  local key=$1 limit=$2
  local actual
  actual=$(python3 - "$bench" "$key" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
print(data["current"]["results"][sys.argv[2]]["allocs_per_task"])
EOF
  )
  echo "$key: ${actual} allocs/task (ceiling ${limit})"
  python3 - "$actual" "$limit" "$key" <<'EOF'
import sys
actual, ceiling = float(sys.argv[1]), float(sys.argv[2])
if actual > ceiling:
    print(f"FAIL: {sys.argv[3]} allocates {actual} times per simulated task, "
          f"over the committed ceiling of {ceiling}.", file=sys.stderr)
    print("If this increase is intentional, raise docs/goldens/alloc_budget.txt "
          "and justify it in the PR description.", file=sys.stderr)
    sys.exit(1)
EOF
}

gate frontend_decode "$ceiling"
gate frontend_decode_critical_path "$cp_ceiling"
echo "allocation budget OK"
