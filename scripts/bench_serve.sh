#!/bin/sh
# Regenerate BENCH_serve.json: the extraction-service load harness —
# 1000 concurrent sweep jobs from 16 tenants, reporting throughput and p50/p99 latency and asserting
# zero dropped-but-accepted jobs. Run from anywhere in the repo.
set -e
cd "$(dirname "$0")/.."
BENCH_SERVE=1 go test -run TestBenchServeSnapshot -timeout 30m -v . "$@"
