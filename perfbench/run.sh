#!/usr/bin/env bash
# Builds the SPARQL-endpoint benchmark from the source tree it sits in
# and runs it. Run from the repository root; every argument is passed
# on (see perfbench/README.md). Build caches, temporary stores and
# reports stay under .bench_build/ and .bench_out/ in the current
# directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/gotmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
