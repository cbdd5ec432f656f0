#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload live-perjob --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build, its cache and its temporary
# files stay under .bench_build in that directory. perfbench is a module of
# its own that builds the parent module from the parent directory, so
# without the repository around it the build fails and nothing is printed
# on standard output.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# Keep every file the go command writes (build cache, temporary files,
# module cache, telemetry counters) inside the checkout, and never reach
# for a network toolchain or module.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
