#!/bin/sh
# Non-test Rust lines, per file and in total: every tracked `*.rs` outside a
# `tests/` directory, counted up to its first `#[cfg(test)]` / `#![cfg(test)]`.
# Run from anywhere inside the repository; prints `lines path` rows, then the
# total. Simplicity PRs report this on the parent and on the change.
set -eu
cd "$(git rev-parse --show-toplevel)"
git ls-files '*.rs' | grep -v -E '(^|/)tests/' | while read -r f; do
    awk -v f="$f" '/^[[:space:]]*#!?\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d %s\n", n, f }' "$f"
done | awk '{ total += $1; print } END { printf "%6d total\n", total }'
