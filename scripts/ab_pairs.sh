#!/usr/bin/env bash
# Alternating parent/change benchmark pairs on one workload, or on all six.
#
#   scripts/ab_pairs.sh <parent-checkout> <change-checkout> <workload>|all [pairs] [seed]
#
# Builds `lfm_benchmark` in both checkouts (each into its own
# lfm_benchmark/target), then runs `--workload W --seed S --seconds 2
# --trace 0` on both sides `pairs` times (default 10, seed default 7),
# alternating which side goes first: host speed drifts by tens of percent
# over minutes here, so two sequential runs compare the host, not the code.
# Prints every pair with each side's repetition count (a faster side fits
# more repetitions into the 2 s, and its peak RSS grows with them), then
# per side the median, minimum and quartiles of `wall_s`, `setup_s` and
# `peak_rss_mb`, the pairs the change won on each of the three, the median
# repetition count, and whether every sim-clock metric and the
# `sim_digest` are identical on both sides. `all` does that for each
# workload BENCHMARK.json names, in turn. Either way it ends with one
# table, a row per workload: `wall_s` medians and their ratio, pairs won,
# the parent's inter-quartile distance, `setup_s` and `peak_rss_mb`
# parent -> change with the pairs won and the parent's inter-quartile
# distance on each (the bar a claimed gain on that metric must clear),
# and the median repetitions parent -> change. An end-to-end metric whose
# change median is worse than the parent's by more than the `bound`
# BENCHMARK.json gives it, and by more than its absolute floor, is named in
# the row's last column. Exits non-zero on such a row or on a sim-clock
# difference.
set -euo pipefail

if (($# < 3)); then
    sed -n '2,26p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=${4:-10}
seed=${5:-7}
spec="$change/BENCHMARK.json"
if [[ $3 == all ]]; then
    mapfile -t workloads < <(sed -n '/"workloads"/,/\]/s/.*{"name": "\([a-z0-9_]*\)".*/\1/p' "$spec")
else
    workloads=("$3")
fi
# "<metric> <lower|higher> <bound>" per end-to-end metric, from the file.
mapfile -t bounds < <(sed -n '/"end_to_end"/,/\]/s/.*"name": "\([a-z_]*\)".*"better": "\([a-z]*\)", "bound": \([0-9.]*\).*/\1 \2 \3/p' "$spec")
# Absolute floors a difference must also exceed, as `--compare` applies
# them. BENCHMARK.json does not carry these; they mirror the `floor` values
# of `END_TO_END` in lfm_benchmark/src/metrics.rs (0 for every other metric).
declare -A floors=([setup_s]=0.02 [success_fraction]=0.001)
((${#workloads[@]} > 0 && ${#bounds[@]} > 0)) || {
    echo "ab_pairs.sh: no workloads or bounds read from $spec" >&2
    exit 2
}

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
# `reps` reads the repetition count from the run's "workload ... reps N" line.
metric() {
    awk -v m="$2" '$1 != "workload" && $2 == m && NF == 5 { print $3 }
        $1 == "workload" && m == "reps" { for (i = 2; i < NF; i++) if ($i == "reps") print $(i + 1) }' "$1"
}
# Everything the sim clock decides, as one comparable string.
sim_state() { awk '$1 == "sim_digest" || $NF == "sim"' "$1"; }
# "<median> <min> <q1> <q3>" of one metric over one side's runs of $workload.
quartiles() { # <p|c> <metric>
    for ((i = 1; i <= pairs; i++)); do metric "$out/$workload.$1$i" "$2"; done | sort -g | awk '
        { v[NR] = $1 }
        function q(f,   h, lo) { h = (NR - 1) * f + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
        END { printf "%.6g %.6g %.6g %.6g\n", q(0.5), v[1], q(0.25), q(0.75) }'
}
median() { quartiles "$1" "$2" | cut -d' ' -f1; }
# The parent's q3 - q1 of one metric.
iqr() { quartiles p "$1" | awk '{ print $4 - $3 }'; }

# The host metrics whose pairs are counted; lower is better on each.
host=(wall_s setup_s peak_rss_mb)
status=0
for workload in "${workloads[@]}"; do
    printf '%-4s %-8s %12s %12s %8s %11s %11s %5s %5s\n' pair first parent_wall change_wall ratio parent_rss change_rss p_rep c_rep
    declare -A won=([wall_s]=0 [setup_s]=0 [peak_rss_mb]=0)
    same=yes
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            first=parent
            run "$parent" "$out/$workload.p$i"
            run "$change" "$out/$workload.c$i"
        else
            first=change
            run "$change" "$out/$workload.c$i"
            run "$parent" "$out/$workload.p$i"
        fi
        for m in "${host[@]}"; do
            p=$(metric "$out/$workload.p$i" "$m")
            c=$(metric "$out/$workload.c$i" "$m")
            won[$m]=$((won[$m] + $(awk -v p="$p" -v c="$c" 'BEGIN { print (c < p) ? 1 : 0 }')))
        done
        p=$(metric "$out/$workload.p$i" wall_s)
        c=$(metric "$out/$workload.c$i" wall_s)
        printf '%-4s %-8s %12.4f %12.4f %8.3f %11.1f %11.1f %5d %5d\n' "$i" "$first" "$p" "$c" \
            "$(awk -v p="$p" -v c="$c" 'BEGIN { print c / p }')" \
            "$(metric "$out/$workload.p$i" peak_rss_mb)" "$(metric "$out/$workload.c$i" peak_rss_mb)" \
            "$(metric "$out/$workload.p$i" reps)" "$(metric "$out/$workload.c$i" reps)"
        [[ "$(sim_state "$out/$workload.p$i")" == "$(sim_state "$out/$workload.c$i")" ]] || same=NO
    done

    echo
    echo "$workload seed $seed, $pairs alternating pairs"
    for m in "${host[@]}"; do
        for side in p c; do
            read -r med min q1 q3 < <(quartiles $side $m)
            echo "  $m $([[ $side == p ]] && echo parent || echo change)  median $med  min $min  q1 $q1  q3 $q3"
        done
        echo "  change won ${won[$m]} of $pairs pairs on $m"
    done
    echo "  reps parent median $(median p reps)  change median $(median c reps)"
    echo "  sim-clock metrics and sim_digest identical: $same"
    echo

    # Every end-to-end metric against its bound.
    marks=""
    for b in "${bounds[@]}"; do
        read -r m better bound <<<"$b"
        marks+=$(awk -v p="$(median p "$m")" -v c="$(median c "$m")" -v hi="$better" -v b="$bound" \
            -v f="${floors[$m]:-0}" -v m="$m" \
            'BEGIN { w = (hi == "higher") ? p - c : c - p
                     a = (p < 0) ? -p : p
                     if (w > b * a && w > f) printf " %s!", m }')
    done
    [[ $same == yes ]] || marks+=" sim_digest!"
    [[ -z $marks ]] || status=1
    pw=$(median p wall_s)
    printf '%-18s %9.4f %9.4f %6.3f %3d/%-3d %9.4f  %8.4f -> %-8.4f %3d/%-3d %8.4f  %7.1f -> %-7.1f %3d/%-3d %7.2f  %4g -> %-4g%s\n' \
        "$workload" "$pw" "$(median c wall_s)" \
        "$(awk -v p="$pw" -v c="$(median c wall_s)" 'BEGIN { print c / p }')" \
        "${won[wall_s]}" "$pairs" "$(iqr wall_s)" \
        "$(median p setup_s)" "$(median c setup_s)" "${won[setup_s]}" "$pairs" "$(iqr setup_s)" \
        "$(median p peak_rss_mb)" "$(median c peak_rss_mb)" "${won[peak_rss_mb]}" "$pairs" "$(iqr peak_rss_mb)" \
        "$(median p reps)" "$(median c reps)" "$marks" >>"$out/table"
done

echo "seed $seed, $pairs alternating pairs per workload; medians; won = pairs the change won on the metric before it; '!' = worse than the parent beyond its BENCHMARK.json bound and its floor"
printf '%-18s %9s %9s %6s %7s %9s  %-20s %7s %8s  %-18s %7s %7s  %s\n' \
    workload parent_s change_s ratio won parent_iqr 'setup_s p -> c' won p_iqr 'peak_rss_mb p -> c' won p_iqr 'reps p -> c'
cat "$out/table"
exit $status
