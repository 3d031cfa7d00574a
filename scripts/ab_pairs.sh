#!/usr/bin/env bash
# Alternating parent/change benchmark pairs on one workload.
#
#   scripts/ab_pairs.sh <parent-checkout> <change-checkout> <workload> [pairs] [seed]
#
# Builds `lfm_benchmark` in both checkouts (each into its own
# lfm_benchmark/target), then runs `--workload W --seed S --seconds 2
# --trace 0` on both sides `pairs` times (default 10, seed default 7),
# alternating which side goes first: host speed drifts by tens of percent
# over minutes here, so two sequential runs compare the host, not the code.
# Prints every pair, then per side the median and minimum `wall_s`, the pairs
# the change won, median `peak_rss_mb` and `setup_s`, and whether every
# sim-clock metric and the `sim_digest` are identical on both sides.
set -euo pipefail

if (($# < 3)); then
    sed -n '2,14p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seed=${5:-7}

for side in "$parent" "$change"; do
    echo "==> building $side/lfm_benchmark" >&2
    cargo build --release --offline --quiet --manifest-path "$side/lfm_benchmark/Cargo.toml"
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# One measuring process; keeps its metric lines ("<workload> <metric> <value>
# <unit> <clock>") and the digest line.
run() { # <checkout> <file>
    (cd "$1" && lfm_benchmark/target/release/lfm-benchmark \
        --workload "$workload" --seed "$seed" --seconds 2 --trace 0) >"$2"
    tail -n 1 "$2" | grep -q '"correct": true' || {
        echo "$1: run not correct" >&2
        exit 1
    }
}
metric() { awk -v m="$2" '$1 != "workload" && $2 == m && NF == 5 { print $3 }' "$1"; }
# Everything the sim clock decides, as one comparable string.
sim_state() { awk '$1 == "sim_digest" || $NF == "sim"' "$1"; }

printf '%-4s %-8s %12s %12s %8s\n' pair first parent_wall change_wall ratio
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        first=parent
        run "$parent" "$out/p$i"
        run "$change" "$out/c$i"
    else
        first=change
        run "$change" "$out/c$i"
        run "$parent" "$out/p$i"
    fi
    p=$(metric "$out/p$i" wall_s)
    c=$(metric "$out/c$i" wall_s)
    printf '%-4s %-8s %12.4f %12.4f %8.3f\n' "$i" "$first" "$p" "$c" \
        "$(awk -v p="$p" -v c="$c" 'BEGIN { print c / p }')"
done

# Median, minimum, quartiles of one metric over one side's runs.
stats() { # <prefix> <metric>
    for ((i = 1; i <= pairs; i++)); do metric "$out/$1$i" "$2"; done | sort -g | awk '
        { v[NR] = $1 }
        function q(f,   h, lo) { h = (NR - 1) * f + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
        END { printf "median %.4f  min %.4f  q1 %.4f  q3 %.4f", q(0.5), v[1], q(0.25), q(0.75) }'
}
won=0
for ((i = 1; i <= pairs; i++)); do
    won=$((won + $(awk -v p="$(metric "$out/p$i" wall_s)" -v c="$(metric "$out/c$i" wall_s)" \
        'BEGIN { print (c < p) ? 1 : 0 }')))
done
same=yes
for ((i = 1; i <= pairs; i++)); do
    [[ "$(sim_state "$out/p$i")" == "$(sim_state "$out/c$i")" ]] || same=NO
done

echo
echo "$workload seed $seed, $pairs alternating pairs"
for m in wall_s setup_s peak_rss_mb; do
    echo "  $m parent  $(stats p $m)"
    echo "  $m change  $(stats c $m)"
done
echo "  change won $won of $pairs pairs on wall_s"
echo "  sim-clock metrics and sim_digest identical: $same"
[[ $same == yes ]]
