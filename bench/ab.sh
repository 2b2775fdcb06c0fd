#!/usr/bin/env bash
# Compares two revisions on one workload with identical benchmark code:
#
#   bash bench/ab.sh <rev-a> <rev-b> <workload> [pairs]
#
# rev-a is the parent, rev-b the change. Both are exported with git archive
# into a temporary directory, and both get rev-b's bench/ directory and
# BENCHMARK.json, so only the code under test differs. Every run lasts
# run_seconds from rev-b's BENCHMARK.json. Each pair runs the two sides with
# the same seed (pair i uses seed i), alternating which side goes first;
# pairs defaults to 10. For every end-to-end metric it prints each side's
# median and quartiles, the fraction of all pairs run that the change won
# (ties count for neither), and whether the comparison rule in
# bench/README.md calls it a gain, a loss or neither.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: bench/ab.sh <rev-a> <rev-b> <workload> [pairs]" >&2
	exit 2
fi
rev_a=$1 rev_b=$2 workload=$3 pairs=${4:-10}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT

for side in a b; do
	rev=rev_$side
	mkdir -p "$work/$side"
	git -C "$repo" archive "${!rev}" | tar -x -C "$work/$side"
	rm -rf "$work/$side/bench" "$work/$side/BENCHMARK.json"
	git -C "$repo" archive "$rev_b" bench BENCHMARK.json | tar -x -C "$work/$side"
done
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$work/b/BENCHMARK.json")

run() { # side seed
	(cd "$work/$1" && CARGO_TARGET_DIR="$work/$1/.bench_build" bash bench/run.sh \
		--workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) >"$work/$1.out" 2>&1 || true
	echo "$2 $(tail -n 1 "$work/$1.out")" >>"$work/$1.jsonl"
}

for side in a b; do # build both before timing anything
	(cd "$work/$side" && CARGO_TARGET_DIR="$work/$side/.bench_build" bash bench/run.sh -h) >/dev/null 2>&1 || true
done
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
	for side in $order; do
		run "$side" "$i"
	done
	echo "pair $i/$pairs done ($order)" >&2
done

python3 - "$work" "$workload" "$rev_a" "$rev_b" "$pairs" <<'EOF'
import json, statistics, sys
work, workload, rev_a, rev_b, pairs = sys.argv[1:6]
pairs = int(pairs)
spec = json.load(open(f"{work}/b/BENCHMARK.json"))

def load(side):
    """Returns the metrics of each correct run by seed, the number of runs
    that failed or were incorrect, and the failed operations of all runs."""
    runs, bad_runs, failed_ops = {}, 0, 0
    for line in open(f"{work}/{side}.jsonl"):
        seed, _, js = line.partition(" ")
        try:
            res = json.loads(js)
        except ValueError:
            res = None
        if isinstance(res, dict):
            failed_ops += res.get("failed", 0)
        if not isinstance(res, dict) or not res.get("correct"):
            print(f"{side} seed {seed}: run failed or incorrect", file=sys.stderr)
            bad_runs += 1
            continue
        runs[seed] = res["metrics"]
    return runs, bad_runs, failed_ops

(a, bad_a, fail_a), (b, bad_b, fail_b) = load("a"), load("b")
seeds = sorted(set(a) & set(b), key=int)
print(f"{workload}: {rev_a} (a) vs {rev_b} (b), {pairs} pairs run, {len(seeds)} complete")
print(f"failed or incorrect runs: a {bad_a}, b {bad_b}; failed operations: a {fail_a}, b {fail_b}")
# The rule: at least 10 pairs, every one complete, and the change fails no
# more runs or operations than the parent; wins are counted over all pairs run.
claimable = pairs >= 10 and len(seeds) == pairs and bad_b <= bad_a and fail_b <= fail_a
if not claimable:
    print("no gain or loss can be claimed: fewer than 10 pairs, an incomplete pair, or more failures on b")
print(f"{'metric':18s} {'a median [q1, q3]':>32s} {'b median [q1, q3]':>32s} {'b wins':>7s}  verdict")
for m in spec["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    if len(seeds) < 4:
        print(f"{name:18s} too few complete pairs")
        continue
    va = [a[s][name]["value"] for s in seeds]
    vb = [b[s][name]["value"] for s in seeds]
    qa, qb = statistics.quantiles(va, n=4), statistics.quantiles(vb, n=4)
    ma, mb = statistics.median(va), statistics.median(vb)
    wins = sum((y > x) if higher else (y < x) for x, y in zip(va, vb))
    losses = sum((y < x) if higher else (y > x) for x, y in zip(va, vb))
    gap, iqr_a = abs(mb - ma), qa[2] - qa[0]
    if claimable and wins >= 0.9 * pairs and gap > iqr_a:
        verdict = "gain"
    elif claimable and losses >= 0.9 * pairs and gap > iqr_a:
        verdict = "loss"
    elif (mb - ma) * (1 if higher else -1) < -m["bound"] * ma:
        verdict = "worse than bound"
    else:
        verdict = "no claim"
    print(f"{name:18s} {ma:12.5g} [{qa[0]:.5g}, {qa[2]:.5g}] {mb:12.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {wins:3d}/{pairs:<3d}  {verdict}")
EOF
