#!/usr/bin/env bash
# Verification gate: format, release build of the workspace and of the
# out-of-workspace benchmark package with a smoke *run* of all six of its
# workloads, the `paper` figures run twice (two cores and one) and diffed,
# the full workspace test suite (tests/ is a workspace member, so every named
# suite — chaos and recovery sweeps, federation, serving, telemetry, and the
# in-crate Reference ≡ Indexed scheduler matrix, whose oracle exists only in
# `lfm-workqueue`'s test build — runs here, once), the doctests among them
# (one must fail to compile: naming the oracle from outside the crate), the
# benchmark package's tests, then doc/clippy, and last `scripts/loc.sh`'s
# table against the parent commit.
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
# the traced pass prints per-layer counts, so that workload runs with it;
# so does serving_overload, the one workload whose 2 master crashes take the
# gateway through its recovery path, which must not silently stop running;
# and master_batch, whose 256 workers each miss the two cacheable files once
# and hit them ever after — the cheapest tripwire for a file-id table that
# forgets or invents a cached file. federation_8shard is traced for its steal
# and event counts. It and paper_figs, the two multi-threaded workloads, then
# run again on one core (`taskset -c 0`: one available core, so no parallel
# windows and a one-thread sweep pool, which takes the cells in dispatch
# order): each must print the digest its two-core run did. The `paper all`
# diff below runs the same fig runners, but at one seed per figure and with
# makespans rounded to 3 decimals in the CSVs; paper_figs's digest hashes
# every point of 40 seeds at full f64 precision, so an order-dependent last
# bit that rounding hides fails here.
journal_bytes_per_task_ceiling=1808
# Fails unless workload $w, rerun on one core, prints the sim_digest its run
# in $out did.
same_digest_on_one_core() {
    local one_core digest
    one_core=$(taskset -c 0 cargo run --release --offline --quiet \
        --manifest-path lfm_benchmark/Cargo.toml -- --workload "$w" --seed 7 --seconds 1 --trace 0)
    digest=$(grep '^sim_digest' <<<"$out")
    [[ -n $digest && $digest == "$(grep '^sim_digest' <<<"$one_core")" ]] || {
        echo "$w: $digest on two cores, not on one" >&2
        exit 1
    }
}
# Fails unless the traced pass in $out printed per-layer count $1 and awk
# condition $2 holds of its value v.
layer_count() {
    awk -v name="$1" '
        $2 == name { seen = 1; v = $3 }
        END {
            if (!seen || !('"$2"')) {
                print name " = " v ", want " "'"$2"'" > "/dev/stderr"
                exit 1
            }
        }' <<<"$out"
}
for w in master_batch master_dag_chaos federation_8shard serving_steady serving_overload paper_figs; do
    echo "    workload $w"
    trace=0
    [[ $w == master_batch || $w == master_dag_chaos || $w == federation_8shard ||
        $w == serving_overload ]] && trace=1
    out=$(cargo run --release --offline --quiet --manifest-path lfm_benchmark/Cargo.toml -- \
        --workload "$w" --seed 7 --seconds 1 --trace "$trace")
    last=$(tail -n 1 <<<"$out")
    grep -q '"correct": true' <<<"$last"
    grep -q '"failed": 0' <<<"$last"
    case $w in
    master_batch)
        layer_count workqueue.master.cache_hits "v == 99488"
        layer_count workqueue.master.cache_misses "v == 512"
        ;;
    master_dag_chaos) layer_count workqueue.journal.bytes_per_op "v <= $journal_bytes_per_task_ceiling" ;;
    federation_8shard)
        layer_count workqueue.federation.steals "v == 9"
        layer_count workqueue.federation.stolen_tasks "v == 53"
        layer_count workqueue.federation.events_total "v == 100309"
        same_digest_on_one_core
        ;;
    serving_overload) layer_count serving.gateway.recoveries "v >= 1" ;;
    paper_figs) same_digest_on_one_core ;;
    esac
done

# Every figure except the host-timed table2 and pynamic is a pure function
# of its seeds: `paper all` on two cores and on one (`taskset -c 0`, so the
# sweep pool and the federation run on one thread) must print the same
# tables and write the same CSVs.
echo "==> paper all, two cores against one"
paper=$PWD/target/release/paper
runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT
for side in two one; do
    mkdir "$runs/$side"
    pin=()
    [[ $side == one ]] && pin=(taskset -c 0)
    (cd "$runs/$side" && "${pin[@]}" "$paper" all |
        awk '/^== paper / { timed = ($3 == "table2" || $3 == "pynamic") } !timed' >stdout.txt)
done
diff -r "$runs/two" "$runs/one"
# A live-streamed trace lands whole and well formed: one flat JSON object
# per line.
(cd "$runs/two" && "$paper" fig7 --trace "jsonl:stream=$runs/fig7.jsonl" >/dev/null)
awk '!/^\{"type":"[a-z]+",.*\}$/ { bad++ } END { if (bad || NR < 1000) { print NR " records, " bad+0 " malformed" > "/dev/stderr"; exit 1 } }' "$runs/fig7.jsonl"
# An unknown flag is a usage error, not a silently ignored one.
status=0
"$paper" fig6 --shard 4 2>/dev/null || status=$?
[[ $status == 2 ]] || {
    echo "paper fig6 --shard 4 exited $status, want 2" >&2
    exit 1
}

echo "==> cargo test -q"
cargo test -q --offline

echo "==> benchmark package: its tests"
cargo test --release --offline -q --manifest-path lfm_benchmark/Cargo.toml

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --quiet

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> scripts/loc.sh (production lines and pub items against the parent, for the PR log)"
if git rev-parse --verify --quiet HEAD~1 >/dev/null; then
    scripts/loc.sh --against HEAD~1
else
    scripts/loc.sh
fi

echo "verify: OK"
