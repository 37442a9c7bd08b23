#!/usr/bin/env bash
# Builds the LOCKSS benchmark from source and runs it. Run from the root of
# the repository:
#
#   bash lockssbench/run.sh --workload sim-table1 --seed 0 --seconds 15 --trace 0
#   bash lockssbench/run.sh compare <results-dir-A> <results-dir-B>
#
# The build, the Go build cache and the benchmark's scratch files stay inside
# the checkout (.bench_build/ and .bench_out/). The last line of standard
# output is the run's JSON result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/gopath" "$build/tmp" "$build/home"

# Keep every file the go command writes (build cache, telemetry counters,
# temporaries) under .bench_build, and never reach for the network.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/lockssbench" && go build -o "$build/lockssbench" .) >&2
exec "$build/lockssbench" "$@"
