#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is started in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload cholesky-decode --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh            # every workload, each in its own process
#
# The build cache, the binary and the benchmark's temporary files (fleet
# journals and result stores) all go under $CARGO_TARGET_DIR, by default
# .bench_build in the repository root; nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp TMPDIR=$out/tmp
export GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
# The go command keeps its settings and telemetry counters under the user
# config directory; point that into the build directory too.
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go build -C bench -o "$out/tsbenchmark" .
exec "$out/tsbenchmark" "$@"
