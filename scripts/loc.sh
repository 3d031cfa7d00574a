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
# Usage: scripts/loc.sh [-v] [repo-root]     (-v adds a row per file)
set -euo pipefail
verbose=0
if [[ "${1:-}" == "-v" ]]; then
    verbose=1
    shift
fi
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

# Files that are test modules whole: `#[cfg(test)]` then `mod name;` in
# dir/{lib,mod}.rs names dir/name.rs or dir/name/mod.rs.
test_files() {
    grep -rn -A1 --include='*.rs' '^[[:space:]]*#\[cfg(test)\][[:space:]]*$' "$1" |
        sed -nE 's|^(.*)/[^/]*\.rs-[0-9]+-[[:space:]]*mod ([a-z_0-9]+);.*$|\1/\2.rs \1/\2/mod.rs|p'
}

printf '%-28s %10s %9s\n' "crate" "prod_lines" "pub_items"
total_lines=0
total_pubs=0
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
