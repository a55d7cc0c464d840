#!/usr/bin/env bash
# Non-test source lines per crate: every line of every `.rs` file under
# `crates/*/src`, minus inline `#[cfg(test)]` modules (the attribute, the
# `mod` line and everything up to its closing brace). Blank and comment
# lines count. A report only: it always exits 0.
#
# Usage: scripts/loc.sh [repo-root | git-revision]
#   no argument     count the current directory
#   a directory     count that checkout
#   a git revision  count the current directory and that revision's
#                   `crates/` (extracted with `git archive`), and print
#                   before, after and delta per crate; when the revision
#                   is unavailable, print the plain report and a note
set -uo pipefail

count() {
    awk '
        skip == 0 && /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; held = $0; next }
        pending == 1 {
            pending = 0
            if (match($0, /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+ \{[[:space:]]*$/)) {
                skip = 1
                indent = $0
                sub(/[^[:space:]].*$/, "", indent)
                next
            }
            n++    # the held attribute guarded something else
        }
        skip == 1 { if ($0 == indent "}") skip = 0; next }
        { n++ }
        END { print n + 0 }
    ' "$@"
}

# `<lines> <crate>` for every crate of the checkout at $1.
per_crate() {
    (
        cd "$1" || exit 0
        for dir in crates/*/; do
            files=$(find "${dir}src" -name '*.rs' 2>/dev/null | sort)
            [ -n "$files" ] || continue
            # shellcheck disable=SC2086 # one path per line, no spaces
            printf '%d %s\n' "$(count $files)" "$(basename "$dir")"
        done
    )
}

plain() {
    per_crate "$1" | awk '{ printf "%8d  %s\n", $1, $2; t += $1 } END { printf "%8d  total\n", t }'
}

arg=${1:-.}
if [ -d "$arg" ]; then
    plain "$arg"
    exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
if ! git rev-parse --verify --quiet "$arg^{commit}" >/dev/null 2>&1 ||
    ! git archive "$arg" crates 2>/dev/null | tar -x -C "$tmp" 2>/dev/null; then
    plain .
    echo "note: revision '$arg' is unavailable; no delta reported"
    exit 0
fi
{
    per_crate "$tmp" | sed 's/^/before /'
    per_crate . | sed 's/^/after /'
} | awk '
    { v[$3, $1] = $2; if (!($3 in seen)) { seen[$3] = 1; names[++n] = $3 } }
    END {
        printf "%8s %8s %8s  %s\n", "before", "after", "delta", "crate"
        for (i = 1; i <= n; i++) {
            c = names[i]; b = v[c, "before"] + 0; a = v[c, "after"] + 0
            printf "%8d %8d %+8d  %s\n", b, a, a - b, c
            tb += b; ta += a
        }
        printf "%8d %8d %+8d  total\n", tb, ta, ta - tb
    }'
exit 0
