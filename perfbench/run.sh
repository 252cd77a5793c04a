#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and runs
# it with the given arguments. Run from the checkout's root:
#
#   bash perfbench/run.sh --workload uniform-vw --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (binary, Go build cache, the traced
# run's CPU profile) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

# The build, and `go tool pprof` in a traced run, use only the local toolchain
# and write only under $out.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOENV=off GOPROXY=off
# The multi-kernel's tuning switches and the Go runtime's collector settings
# would change the simulation's counters and the timings between runs.
unset DSMRACE_MK_BARRIER DSMRACE_MK_EXT DSMRACE_MK_PIPELINE GOGC GOMEMLIMIT GODEBUG GOMAXPROCS

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
