#!/bin/sh
# Non-test Rust lines, per file and in total: every tracked `*.rs` outside a
# `tests/` directory, counted up to its first `#[cfg(test)]` / `#![cfg(test)]`.
# Then the test lines in total: every tracked `*.rs` under a `tests/`
# directory, plus each other file from its first `#[cfg(test)]` on, so that
# code moved from one side to the other shows on both.
#
#   scripts/nontest-loc.sh          `lines path` rows, then the two totals
#   scripts/nontest-loc.sh <rev>    the checkout against revision <rev>:
#                                   `parent change path` for each file whose
#                                   count differs, then both pairs of totals
#
# Run from anywhere inside the repository. With a revision, its files are
# read through `git show <rev>:<path>`; the checkout is read as it is on disk.
set -eu
cd "$(git rev-parse --show-toplevel)"

# count [rev]: the rows and totals of the checkout, or of revision `rev`.
count() {
    if [ $# -eq 0 ]; then git ls-files '*.rs'; else git ls-tree -r --name-only "$1" | grep '\.rs$'; fi |
        while read -r f; do
            case "$f" in tests/* | */tests/*) all=1 ;; *) all=0 ;; esac
            if [ $# -eq 0 ]; then cat "$f"; else git show "$1:$f"; fi | awk -v f="$f" -v all="$all" '
                BEGIN { t = all }
                /^[[:space:]]*#!?\[cfg\(test\)\]/ { t = 1 }
                { if (t) test++; else n++ }
                END { if (!all) printf "%6d %s\n", n, f; printf "test %d\n", test }'
        done | awk '
            $1 == "test" { tests += $2; next }
            { total += $1; print }
            END { printf "%6d total\n%6d test total\n", total, tests }'
}

if [ $# -eq 0 ]; then
    count
    exit
fi
git rev-parse --verify --quiet "$1^{commit}" >/dev/null || {
    echo "nontest-loc.sh: no such revision: $1" >&2
    exit 2
}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
count "$1" >"$tmp/parent"
count >"$tmp/change"
# Rows are keyed by what follows the count: a path, `total` or `test total`.
awk '
    { n = $1; k = $0; sub(/^ *[0-9]+ /, "", k) }
    NR == FNR { parent[k] = n; keys[k] = 1; next }
    { change[k] = n; keys[k] = 1 }
    END {
        for (k in keys)
            if (k != "total" && k != "test total" && parent[k] + 0 != change[k] + 0)
                printf "%6d %6d %s\n", parent[k], change[k], k | "sort -k3"
        close("sort -k3")
        printf "%6d %6d total\n%6d %6d test total\n",
            parent["total"], change["total"], parent["test total"], change["test total"]
    }' "$tmp/parent" "$tmp/change"
