#!/bin/sh
# The `perf` ledger gates: one full-scale traced pass of each workload at
# seed 7 (`--passes 1 --trace 1`), built and run through the benchmark's own
# manifest, then every count below checked against its committed value.
# The counts depend on the seed and not on the host: a change that only
# regroups the code leaves them alone, and one that moves a count on purpose
# says why and edits it here.
#
#   scripts/perf-ledgers.sh [out-dir]   writes perf-overcommit.json,
#                                       perf-serve-mix.json,
#                                       perf-long-decode.json and
#                                       perf-long-prefill.json into out-dir
#                                       (default: the current directory)
#
# Prints `workload metric value expected ok|FAIL` for every check and exits
# non-zero if any failed. `expected` is `<=N` for a ceiling, else the exact
# value. Needs `jq`; run from anywhere inside the repository.
set -eu
out=${1:-.}
mkdir -p "$out"
out=$(cd "$out" && pwd)
cd "$(git rev-parse --show-toplevel)"

# workload, file stem, then `metric op expected` triples. On `overcommit_swap`
# work done twice shows as work tokens above the scene's floor (16 884) and
# swap thrash as preemptions, cache off and on; the copy-engine counts are
# the pages the tiers moved, and the steps show when admission starts each
# request. On `serve_mix_open` the same steps, work and donated prefixes
# prove a step feeds the same tokens however the executor batches them; the
# prefix evictions count the relief ladder's first rung, and the preemptions
# and page moves what the pool did besides. On
# `long_decode` half the heads are windowed and every selecting dense head
# demotes. Every `long_prefill` prompt runs whole through the fused prefill
# layer, and its peak pool use (272 of 720 pages) shows that the layer keeps
# every page of the chunk, however it groups the rows.
ledgers='
overcommit_swap overcommit
    scheduler.steps == 782
    scheduler.work_tokens <= 16884
    scheduler.preemptions <= 0
    scheduler.work_tokens_cache_on <= 16884
    scheduler.preemptions_cache_on <= 1
    kvcache.pages_demoted == 3848
    kvcache.pages_promoted == 2582
    kvcache.pages_spilled == 0
serve_mix_open serve-mix
    scheduler.steps == 1481
    scheduler.work_tokens == 20058
    scheduler.preemptions == 0
    prefixcache.insertions == 142
    prefixcache.evictions == 128
    kvcache.pages_demoted == 81
    kvcache.pages_promoted == 61
long_decode long-decode
    scheduler.steps == 2054
    scheduler.work_tokens == 16380
    scheduler.preemptions == 0
    kvcache.pages_demoted == 47007
    kvcache.pages_promoted == 46370
long_prefill long-prefill
    scheduler.steps == 6
    scheduler.work_tokens == 8198
    kvcache.pool_peak_util == 0.37777777777777777
'

# check workload file metric op expected: one report line; fails on a miss.
check() {
    line=$(jq -r --arg w "$1" --arg m "$3" --arg op "$4" --argjson want "$5" '
        .runs[$w] | (if $m == "correct" or $m == "failed" then .[$m]
                     else .metrics[$m].value end) as $v
        | [$w, $m, ($v | tostring),
           (if $op == "<=" then "<=\($want)" else ($want | tostring) end),
           (if (if $op == "<=" then $v <= $want else $v == $want end)
            then "ok" else "FAIL" end)]
        | join(" ")' "$2")
    echo "$line"
    case "$line" in *" ok") ;; *) return 1 ;; esac
}

status=0
while read -r a b c; do
    [ -n "$a" ] || continue
    if [ -z "$c" ]; then
        workload=$a
        file=$out/perf-$b.json
        cargo run --release --quiet --offline \
            --manifest-path crates/bench/src/bin/perf/Cargo.toml -- \
            --workload "$workload" --seed 7 --passes 1 --trace 1 --out "$file" </dev/null >/dev/null ||
            status=1
        check "$workload" "$file" correct == true || status=1
        check "$workload" "$file" failed == 0 || status=1
    else
        check "$workload" "$file" "$a" "$b" "$c" || status=1
    fi
done <<EOF
$ledgers
EOF
exit $status
