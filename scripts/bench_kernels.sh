#!/bin/sh
# Regenerate BENCH_kernels.json: ns/op for the blocked dense kernels
# (LU, Cholesky, Mul) against their unblocked references. Run from
# anywhere in the repo.
set -e
cd "$(dirname "$0")/.."
BENCH_SNAPSHOT=1 go test -run TestBenchSnapshot -v . "$@"
