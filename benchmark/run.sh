#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. The Go
# build cache, the binary, the databases and the trace files all live under
# .bench_build/ at the root of the checkout; nothing outside it is written.
#
#   bash benchmark/run.sh --workload lookup --seed 7 --seconds 15 --trace 0
#   bash benchmark/run.sh -compare A.json B.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# The benchmark is a module of its own that builds against the engine in the
# directory above it; without the engine there is nothing to measure.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ]; then
	echo "benchmark: no engine source next to $here; run from a checkout of the repository" >&2
	exit 3
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
# XDG_CONFIG_HOME: the go command keeps its telemetry counters under the
# user's configuration directory.
(cd "$here" && XDG_CONFIG_HOME="$build/config" go build -o "$build/rxbenchmark" .)
cd "$root"
exec "$build/rxbenchmark" "$@"
