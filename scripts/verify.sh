#!/usr/bin/env bash
# Verification gate: format, release build of the workspace and of the
# out-of-workspace benchmark package with a smoke *run* of all six of its
# workloads, the full workspace test suite (tests/ and crates/bench are
# workspace members, so every named suite — scheduler equivalence, chaos,
# federation, recovery, serving, telemetry — runs here, once), the benchmark
# package's tests, then bench/doc/clippy, and last `scripts/loc.sh`'s table.
# The workspace vendors all external dependencies under vendor/, so
# everything runs with --offline (no registry, no network).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release --offline

# Outside the workspace, so nothing above or below compiles it; built and
# *run* here, before the long test suite, because a product change that
# breaks a benchmark build or run is what the PR gate refuses first.
echo "==> cargo build --release (benchmark package) and a smoke of every workload"
cargo build --release --offline --manifest-path lfm_benchmark/Cargo.toml
# Journal bytes per task on master_dag_chaos: 904 B with delta images (9.7 KB
# while every compaction wrote the whole run so far). The ceiling is twice
# that, so a term that grows with tasks² cannot come back unnoticed. Only
# the traced pass prints per-layer counts, so that workload runs with it.
journal_bytes_per_task_ceiling=1808
for w in master_batch master_dag_chaos federation_8shard serving_steady serving_overload paper_figs; do
    echo "    workload $w"
    trace=0
    [[ $w == master_dag_chaos ]] && trace=1
    out=$(cargo run --release --offline --quiet --manifest-path lfm_benchmark/Cargo.toml -- \
        --workload "$w" --seconds 1 --trace "$trace")
    last=$(tail -n 1 <<<"$out")
    grep -q '"correct": true' <<<"$last"
    grep -q '"failed": 0' <<<"$last"
    if [[ $w == master_dag_chaos ]]; then
        awk -v ceiling="$journal_bytes_per_task_ceiling" '
            $2 == "workqueue.journal.bytes_per_op" { seen = 1; bytes = $3 }
            END {
                if (!seen || bytes > ceiling) {
                    print "journal bytes per task " bytes " above " ceiling > "/dev/stderr"
                    exit 1
                }
            }' <<<"$out"
    fi
done

echo "==> cargo test -q"
cargo test -q --offline

echo "==> benchmark package: its tests"
cargo test --release --offline -q --manifest-path lfm_benchmark/Cargo.toml

echo "==> cargo bench --no-run"
cargo bench --no-run --offline

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --quiet

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> scripts/loc.sh (production lines and pub items, for the PR log)"
scripts/loc.sh

echo "verify: OK"
