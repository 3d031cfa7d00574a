#!/usr/bin/env bash
# Host cost of a federated run vs shard count: runs the same 100k-task
# workload under 1/2/4/8 foreman shards and writes BENCH_federation.json at
# the repo root (end-to-end driver wall seconds and their ratio to the
# 1-shard run, steal and handoff counts, plus the derived per-shard
# aggregate tasks/sec). Pass --quick for a 20k-task smoke
# run over 1,2,4 shards, or --tasks 1000000 for the paper-scale sweep.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -p lfm-bench --bin bench_federation
exec target/release/bench_federation --out BENCH_federation.json "$@"
