#!/usr/bin/env bash
# The committed mutation suite: checks that the tests still catch the
# regressions in `tests/mutants/*.patch`.
#
# Each patch starts with a header (which `git apply` ignores):
#   mutant: what the patch breaks
#   test:   the cargo test arguments that must fail against it
#   status: caught | open
# For each patch, in file order, the script extracts HEAD with
# `git archive` into one temporary tree, applies the patch, builds the
# named test and runs it. Every tree shares one CARGO_TARGET_DIR
# (default `target/mutants`); files are extracted with fresh mtimes, so
# cargo never reuses a build of the previous mutant.
#
# Exit status 1 when a patch no longer applies or no longer builds, or
# when a mutant marked `caught` passes its test. A mutant marked `open`
# is reported either way and never fails the run: nothing catches it
# yet (see tests/mutants/README.md). Before any build, the detection
# table in that README is checked against the committed patches: a
# patch without a row, or a row naming no patch, also exits 1.
#
# Usage: scripts/mutants.sh [patch ...]   (default: every committed patch)
set -uo pipefail

root=$(git rev-parse --show-toplevel) || exit 1
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$root/target/mutants}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
tree=$tmp/tree

if [ $# -gt 0 ]; then
    patches=("$@")
else
    patches=("$root"/tests/mutants/*.patch)
fi

failed=0
# The detection table's rows start with the mutant's name in backticks.
rows=$(sed -n 's/^| `\([^`]*\)` |.*/\1/p' "$root/tests/mutants/README.md" | sort)
committed=$(for p in "$root"/tests/mutants/*.patch; do basename "$p" .patch; done | sort)
for name in $(comm -23 <(echo "$committed") <(echo "$rows")); do
    echo "$name: NO ROW in the detection table (tests/mutants/README.md)"
    failed=1
done
for name in $(comm -13 <(echo "$committed") <(echo "$rows")); do
    echo "$name: the detection table names a patch that does not exist"
    failed=1
done

for patch in "${patches[@]}"; do
    patch=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
    name=$(basename "$patch" .patch)
    test_args=$(sed -n 's/^test: //p' "$patch" | head -n 1)
    status=$(sed -n 's/^status: //p' "$patch" | head -n 1)
    if [ -z "$test_args" ] || { [ "$status" != caught ] && [ "$status" != open ]; }; then
        echo "$name: BAD HEADER (needs 'test:' and 'status: caught|open')"
        failed=1
        continue
    fi
    rm -rf "$tree" && mkdir -p "$tree"
    git -C "$root" archive HEAD | tar -x -m -C "$tree"
    if ! (cd "$tree" && git apply "$patch"); then
        echo "$name: DOES NOT APPLY to HEAD"
        failed=1
        continue
    fi
    # shellcheck disable=SC2086 # test_args is a word list by design
    if ! (cd "$tree" && cargo test -q $test_args --no-run >"$tmp/build.log" 2>&1); then
        echo "$name: DOES NOT BUILD"
        tail -n 20 "$tmp/build.log"
        failed=1
        continue
    fi
    # shellcheck disable=SC2086
    if (cd "$tree" && cargo test -q $test_args >"$tmp/test.log" 2>&1); then
        if [ "$status" = caught ]; then
            echo "$name: SURVIVED $test_args (marked caught)"
            failed=1
        else
            echo "$name: open, survives $test_args"
        fi
    else
        if [ "$status" = caught ]; then
            echo "$name: caught by $test_args"
        else
            echo "$name: open, but now caught by $test_args (mark it caught)"
        fi
    fi
done
exit $failed
