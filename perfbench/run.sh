#!/usr/bin/env bash
# Builds the benchmark and the foldd daemon from this checkout's sources,
# then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fold-table3 --seed 1 --seconds 25 --trace 0
#
# Build products, the Go build cache, traces and foldd checkpoint
# directories all go under $CARGO_TARGET_DIR (default .bench_build), so
# the run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

(
	cd "$here"
	go build -o "$build/bin/perfbench" .
	go build -o "$build/bin/foldd" circuitfold/cmd/foldd
) >&2

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/bin/perfbench" -foldd "$build/bin/foldd" -work "$build" -commit "$commit" "$@"
