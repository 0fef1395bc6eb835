#!/bin/sh
# Regenerate BENCH_sparse.json: the dense-LU oracle against gridnoise's
# sparse Cholesky static IR at 2.3k MNA unknowns, then sparse direct
# Cholesky, Jacobi-CG and multigrid-PCG on streaming-assembled synthetic
# grids up to a million-plus nodes — one JSON row per size with
# iteration counts and tolerances alongside the timings. Also runs the 1e5-node cached-
# hierarchy transient and asserts it fits the wall-clock budget. The
# dense static-IR solve takes a while at 2.3k; that is the point.
set -e
cd "$(dirname "$0")/.."
BENCH_SPARSE=1 go test -run TestBenchSparseSnapshot -v -timeout 60m . "$@"
