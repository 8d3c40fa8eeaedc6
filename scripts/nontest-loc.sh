#!/bin/sh
# Non-test Rust lines, per file and in total: every tracked `*.rs` outside a
# `tests/` directory, counted up to its first `#[cfg(test)]` / `#![cfg(test)]`.
# Then the test lines in total: every tracked `*.rs` under a `tests/`
# directory, plus each other file from its first `#[cfg(test)]` on, so that
# code moved from one side to the other shows on both.
# Run from anywhere inside the repository; prints `lines path` rows, then the
# two totals. Simplicity PRs report this on the parent and on the change.
set -eu
cd "$(git rev-parse --show-toplevel)"
git ls-files '*.rs' | while read -r f; do
    case "$f" in tests/* | */tests/*) all=1 ;; *) all=0 ;; esac
    awk -v f="$f" -v all="$all" '
        BEGIN { t = all }
        /^[[:space:]]*#!?\[cfg\(test\)\]/ { t = 1 }
        { if (t) test++; else n++ }
        END { if (!all) printf "%6d %s\n", n, f; printf "test %d\n", test }' "$f"
done | awk '
    $1 == "test" { tests += $2; next }
    { total += $1; print }
    END { printf "%6d total\n%6d test total\n", total, tests }'
