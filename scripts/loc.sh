#!/usr/bin/env bash
# Non-test source lines per crate: every line of every `.rs` file under
# `crates/*/src`, minus inline `#[cfg(test)]` modules (the attribute, the
# `mod` line and everything up to its closing brace). Blank and comment
# lines count. A report only: it always exits 0.
#
# Usage: scripts/loc.sh [repo-root]   (defaults to the current directory)
set -euo pipefail
cd "${1:-.}"

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

total=0
for dir in crates/*/; do
    files=$(find "${dir}src" -name '*.rs' 2>/dev/null | sort)
    [ -n "$files" ] || continue
    lines=$(count $files)
    printf '%8d  %s\n' "$lines" "$(basename "$dir")"
    total=$((total + lines))
done
printf '%8d  total\n' "$total"
