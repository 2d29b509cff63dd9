#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload bank --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. The build cache, temporary files
# and the binary stay under .bench_build/ (override with
# CARGO_TARGET_DIR); nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
