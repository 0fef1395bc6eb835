#!/bin/sh
# Regenerate BENCH_extract.json: extraction timing for the
# spatial-index windowed pair search (2400-segment power grid).
# Run from anywhere in the repo.
set -e
cd "$(dirname "$0")/.."
BENCH_EXTRACT=1 go test -run TestBenchExtractSnapshot -v . "$@"
