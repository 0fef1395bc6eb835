#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every build artefact and cache stays under .bench_build there.
#
#   bash bench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh compare base/ head/
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/bench" build -o "$build/inductbench" .
exec "$build/inductbench" "$@"
