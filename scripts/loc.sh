#!/usr/bin/env bash
# Size of the production code, per crate: the two numbers ROADMAP item 2
# asks every design PR to report, before and after.
#
#   prod_lines  lines of crates/<crate>/src/**/*.rs outside `#[cfg(test)] mod`
#               blocks and outside files declared `#[cfg(test)] mod name;`
#               (blank lines and comments count: a PR that deletes comments
#               moves this number and must say by how much)
#   pub_items   `pub` / `pub(...)` items in that same code: functions
#               (associated ones too), structs, enums, traits, type aliases,
#               constants, statics, modules and re-exports. Fields are not
#               items and are not counted.
#
# Usage: scripts/loc.sh [-v] [--against <rev>] [repo-root]
#   -v               adds a row per file
#   --against <rev>  measures that git revision's crates/ too (from `git
#                    archive`, no checkout) and prints before, after and the
#                    difference per crate: the before/after a PR reports
set -euo pipefail
verbose=0
against=""
while [[ "${1:-}" == -* ]]; do
    case $1 in
    -v) verbose=1 ;;
    --against)
        against=${2:?--against needs a revision}
        shift
        ;;
    *)
        echo "loc.sh: unknown option $1" >&2
        exit 2
        ;;
    esac
    shift
done
cd "${1:-$(dirname "$0")/..}"

# "<prod_lines> <pub_items>" for one file. A test module is `#[cfg(test)]`
# followed by a `mod` item; it ends where its braces balance. Brace counting
# is textual: no test module here has a lone brace in a string.
count() {
    awk '
        function braces(line) { return gsub(/\{/, "{", line) - gsub(/\}/, "}", line) }
        skipping { depth += braces($0); if (depth <= 0) skipping = 0; next }
        pending && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/ {
            pending = 0
            prod--                      # the attribute line belongs to the module
            depth = braces($0)
            skipping = depth > 0
            next
        }
        { pending = /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/; prod++ }
        /^[[:space:]]*pub(\([a-z]+\))?[[:space:]]+((const|async|unsafe)[[:space:]]+)*(fn|struct|enum|union|trait|type|const|static|mod|use)[[:space:]]/ { pubs++ }
        END { printf "%d %d\n", prod, pubs }
    ' "$1"
}

# Files that are test modules whole: `#[cfg(test)]` then `mod name;`. In a
# crate root or a mod.rs (dir/{lib,main,mod}.rs, or a binary's dir/bin/x.rs)
# it names dir/name.rs or dir/name/mod.rs; in any other dir/foo.rs it names
# dir/foo/name.rs or dir/foo/name/mod.rs.
test_files() {
    local decl='\.rs-[0-9]+-[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod ([a-z_0-9]+);.*$'
    grep -rn -A1 --include='*.rs' '^[[:space:]]*#\[cfg(test)\][[:space:]]*$' "$1" |
        sed -nE -e "s@^(.*)/(lib|main|mod)$decl@\\1/\\5.rs \\1/\\5/mod.rs@p;t" \
            -e "s@^(.*/bin)/[^/]*$decl@\\1/\\4.rs \\1/\\4/mod.rs@p;t" \
            -e "s@^(.*)/([^/]*)$decl@\\1/\\2/\\5.rs \\1/\\2/\\5/mod.rs@p"
}

# The table for the crates/ under the current directory.
table() {
    printf '%-28s %10s %9s\n' "crate" "prod_lines" "pub_items"
    local total_lines=0 total_pubs=0 dir crate skip lines pubs rows file l p
    for dir in crates/*/src; do
        crate=$(basename "$(dirname "$dir")")
        skip=" $(test_files "$dir" | tr '\n' ' ')"
        lines=0
        pubs=0
        rows=""
        while IFS= read -r file; do
            [[ "$skip" == *" $file "* ]] && continue
            read -r l p < <(count "$file")
            lines=$((lines + l))
            pubs=$((pubs + p))
            rows+=$(printf '  %-26s %10d %9d' "${file#"$dir"/}" "$l" "$p")$'\n'
        done < <(find "$dir" -name '*.rs' | sort)
        printf '%-28s %10d %9d\n' "$crate" "$lines" "$pubs"
        ((verbose)) && printf '%s' "$rows"
        total_lines=$((total_lines + lines))
        total_pubs=$((total_pubs + pubs))
    done
    printf '%-28s %10d %9d\n' "total" "$total_lines" "$total_pubs"
}

if [[ -z $against ]]; then
    table
    exit
fi

before=$(mktemp -d)
trap 'rm -rf "$before"' EXIT
git archive "$against" crates | tar -x -C "$before"
# Both tables joined row by row on crate (and, under -v, crate/file), in
# this tree's order; a row only the revision has comes last, against zeros.
printf '%-28s %10s %10s %7s %9s %9s %6s\n' \
    "crate" "lines@$against" "now" "delta" "pubs@$against" "now" "delta"
awk '
    function row(name, bl, bp, al, ap) {
        printf "%-28s %10d %10d %+7d %9d %9d %+6d\n", name, bl, al, al - bl, bp, ap, ap - bp
    }
    FNR == 1 { side++; next } # the header of each table
    {
        name = $0
        sub(/ +[0-9]+ +[0-9]+$/, "", name)
        if (name ~ /^[^ ]/) crate = name
        key = (name == crate) ? name : crate "/" name
    }
    side == 1 { lines[key] = $(NF - 1); pubs[key] = $NF; label[++n] = name; keys[n] = key; next }
    { seen[key] = 1; row(name, lines[key], pubs[key], $(NF - 1), $NF) }
    END {
        for (i = 1; i <= n; i++)
            if (!(keys[i] in seen)) row(label[i], lines[keys[i]], pubs[keys[i]], 0, 0)
    }
' <(cd "$before" && table) <(table)
