#!/usr/bin/env bash
# The docs name only files and targets that exist: every `scripts/…` file,
# `tests/….rs` file and `BENCH_….json` file that README.md, DESIGN.md,
# EXPERIMENTS.md or the verify skill names must be in the tree, and so must
# every `--bin X` and `--bench X` target (a `[[bin]]`/`[[bench]]` name in a
# Cargo.toml, `src/bin/X.rs` or `benches/X.rs`) — unless it sits in a
# section whose heading says "(historical)", the record of a tool since
# deleted. A glob (`tests/*.rs`) must match something. ROADMAP.md names
# files that are planned, and lfm_benchmark/ documents itself; neither is
# read.
#
# Usage: scripts/doc_refs.sh [repo-root]   (exit 1 and one line per dead name)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# "file:line:name" for every name outside a historical section. A heading
# inside a fenced code block is a shell comment, not a heading.
names() {
    awk '
        FNR == 1 { fence = 0; hist = 0 }
        /^```/ { fence = !fence; next }
        !fence && /^#+ / {
            level = length($1)
            if (hist && level <= hist) hist = 0
            if (!hist && tolower($0) ~ /\(historical\)/) hist = level
        }
        hist { next }
        {
            s = $0
            while (match(s, /([A-Za-z0-9_.-]+\/)*(scripts\/[A-Za-z0-9_.*-]+|tests\/[A-Za-z0-9_\/*-]+\.rs)|BENCH_[A-Za-z0-9_*]+\.json/)) {
                print FILENAME ":" FNR ":" substr(s, RSTART, RLENGTH)
                s = substr(s, RSTART + RLENGTH)
            }
            s = $0
            while (match(s, /--(bin|bench)[ =]+[A-Za-z0-9_-]+/)) {
                target = substr(s, RSTART + 2, RLENGTH - 2)
                sub(/[ =]+/, " ", target)
                print FILENAME ":" FNR ":--" target
                s = substr(s, RSTART + RLENGTH)
            }
        }' README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md
}

# "bin X" / "bench X" for every target in the tree.
targets() {
    git ls-files -co --exclude-standard '*Cargo.toml' | xargs awk '
        /^\[\[(bin|bench)\]\]/ { kind = substr($1, 3, length($1) - 4); next }
        /^\[/ { kind = "" }
        kind && /^name *=/ { gsub(/^name *= *"|".*$/, ""); print kind " " $0 }'
    git ls-files -co --exclude-standard |
        sed -nE 's#(^|.*/)src/bin/([^/]+)\.rs$#bin \2#p; s#(^|.*/)benches/([^/]+)\.rs$#bench \2#p'
}
all_targets=$(targets)

dead=0
while IFS=: read -r file line name; do
    while [[ $name == *. ]]; do name=${name%.}; done # a full stop ends the sentence
    if [[ $name == --* ]]; then
        found=$(grep -xF -- "${name#--}" <<<"$all_targets" || true)
    elif [[ $name == BENCH_* ]]; then
        # Named bare: anywhere in the tree.
        found=$(git ls-files | awk -F/ -v name="$name" '
            BEGIN { gsub(/\./, "\\.", name); gsub(/\*/, ".*", name) }
            $NF ~ "^" name "$" { print; exit }')
    else
        found=$(compgen -G "$name" || true)
    fi
    if [[ -z $found ]]; then
        echo "$file:$line: names $name, which does not exist" >&2
        dead=1
    fi
done < <(names)
exit $dead
