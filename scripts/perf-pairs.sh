#!/bin/sh
# Alternating wall-clock pairs of the benchmark: revision <rev> against the
# checkout, on one workload or on each in turn. A shared host drifts between
# speed levels for seconds or minutes at a time, so two builds compare only in
# interleaved runs; a claimed gain is read from ten such pairs.
#
#   scripts/perf-pairs.sh <rev> <workload> [pairs]   pairs defaults to 10
#   scripts/perf-pairs.sh <rev> all [pairs]
#
# `all` runs the pairs on every workload BENCHMARK.json declares, one
# workload after the other, and prints each workload's lines and table under
# a `== <workload>` header: "no workload got worse" in one command.
#
# Builds `perf` twice through the benchmark's own manifest
# (crates/bench/src/bin/perf/Cargo.toml): from <rev>, exported with
# `git archive` into a temporary directory and built into a target directory
# of its own, and from the checkout as it is on disk, into the package's own
# target directory. Then runs `--workload <workload> --seed 7 --seconds 30
# --trace 0` with each build in turn, <rev> first in every pair, and prints
# one line per run: its end-to-end metrics, and `failed/attempted`. Last,
# for every end-to-end metric BENCHMARK.json declares, one line:
#
#   metric  <rev> median [first quartile .. third quartile]  change median
#           better n/pairs
#
# where `better` counts the pairs in which the checkout's value beat <rev>'s
# in the metric's `better` direction (a tie is not better). A run whose
# output check fails stops the script with its output.
#
# Temporary files go under $TMPDIR (`mktemp -d`) and are removed on exit.
# Needs jq; run from anywhere inside the repository.
set -eu
if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/perf-pairs.sh <rev> <workload>|all [pairs=10]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "perf-pairs.sh: no such revision: $rev" >&2
    exit 2
}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
manifest=crates/bench/src/bin/perf/Cargo.toml

mkdir "$tmp/rev"
git archive "$rev" | tar -x -C "$tmp/rev"
CARGO_TARGET_DIR="$tmp/target" \
    cargo build --release --quiet --offline --manifest-path "$tmp/rev/$manifest"
cp "$tmp/target/release/perf" "$tmp/perf-rev"
CARGO_TARGET_DIR="$PWD/crates/bench/src/bin/perf/target" \
    cargo build --release --quiet --offline --manifest-path "$manifest"
cp crates/bench/src/bin/perf/target/release/perf "$tmp/perf-change"

names=$(jq -c '[.end_to_end[].name]' BENCHMARK.json)

# values side metric: one value per pair, in pair order.
values() {
    j=1
    while [ "$j" -le "$pairs" ]; do
        jq -r --arg m "$2" '.metrics[$m].value' "$tmp/$1.$j.json"
        j=$((j + 1))
    done
}

# quartiles: `median [q1 .. q3]` of the numbers on stdin, each the linear
# interpolation between the two nearest ranks.
quartiles() {
    sort -g | awk '
        { v[NR] = $1 }
        function q(p,   pos, lo) {
            pos = 1 + p * (NR - 1); lo = int(pos)
            return lo < NR ? v[lo] + (pos - lo) * (v[lo + 1] - v[lo]) : v[NR]
        }
        END { printf "%.6g [%.6g .. %.6g]", q(0.5), q(0.25), q(0.75) }'
}

# pairs_of workload: the alternating runs of one workload, then its table.
pairs_of() {
    i=1
    while [ "$i" -le "$pairs" ]; do
        for side in rev change; do
            if ! "$tmp/perf-$side" --workload "$1" --seed 7 --seconds 30 --trace 0 \
                >"$tmp/out" 2>&1; then
                echo "perf-pairs.sh: $1, pair $i, $side: perf failed" >&2
                cat "$tmp/out" >&2
                exit 1
            fi
            # The result object is the last line perf prints.
            tail -n 1 "$tmp/out" >"$tmp/$side.$i.json"
            jq -r --argjson names "$names" --arg pair "$i" --arg side "$side" '
                [("pair " + $pair), $side]
                + [$names[] as $m | "\($m)=\(.metrics[$m].value)"]
                + ["failed=\(.failed)/\(.attempted)"] | join(" ")' "$tmp/$side.$i.json"
        done
        i=$((i + 1))
    done

    echo
    printf '%-18s %-44s %-12s %s\n' metric "$rev median [quartiles]" change better
    jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json | while read -r metric better; do
        values rev "$metric" >"$tmp/r"
        values change "$metric" >"$tmp/c"
        if grep -qv '^[-0-9.eE+]*$' "$tmp/r" "$tmp/c"; then
            printf '%-18s not reported by %s\n' "$metric" "$1"
            continue
        fi
        wins=$(paste "$tmp/r" "$tmp/c" | awk -v b="$better" '
            (b == "lower" && $2 < $1) || (b == "higher" && $2 > $1) { n++ }
            END { print n + 0 }')
        printf '%-18s %-44s %-12s %s/%s\n' "$metric" "$(quartiles <"$tmp/r")" \
            "$(quartiles <"$tmp/c" | cut -d' ' -f1)" "$wins" "$pairs"
    done
}

if [ "$workload" = all ]; then
    for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
        echo "== $w"
        pairs_of "$w"
        echo
    done
else
    pairs_of "$workload"
fi
