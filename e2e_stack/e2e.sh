#!/usr/bin/env bash
# Run every workload listed in BENCHMARK.json through the end-to-end
# stack benchmark and merge the results into one file:
#
#   e2e_stack/e2e.sh <label> [repeats]
#
# Run from the repository root. Each workload runs in its own process
# (so peak RSS belongs to that workload alone): `repeats` untraced runs
# with seeds 1..repeats (default 5), then one traced run with seed 1,
# each measuring for BENCHMARK.json's run_seconds.
# run.py builds the Release binary on first use. The merged file is
# .bench_build/e2e_stack/results/<label>.json:
#
#   {"label": ..., "workloads": {<name>: {"runs": [<result>...],
#                                         "traced": <result>}}}
#
# where each <result> is the benchmark's JSON line plus its "seed".
# Compare two such files with e2e_stack/e2e_compare.sh.
set -euo pipefail

label=${1:?usage: e2e_stack/e2e.sh <label> [repeats]}
repeats=${2:-5}
[[ $label =~ ^[A-Za-z0-9._-]+$ ]] || { echo "bad label: $label" >&2; exit 2; }
[[ $repeats =~ ^[1-9][0-9]*$ ]] || { echo "bad repeats: $repeats" >&2; exit 2; }

out_dir=.bench_build/e2e_stack/results
mkdir -p "$out_dir"
parts=$(mktemp -d "$out_dir/.parts.XXXXXX")
trap 'rm -rf "$parts"' EXIT

run() { # workload seed trace
    local out status=0
    out=$(python3 e2e_stack/run.py --workload "$1" --seed "$2" \
        --seconds "$(jq .run_seconds BENCHMARK.json)" --trace "$3") ||
        status=$?
    printf '%s\n' "$out" >&2
    [[ $status -eq 0 ]] || return "$status"
    tail -n 1 <<< "$out" | jq -c --argjson seed "$2" '. + {seed: $seed}'
}

for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
    for seed in $(seq 1 "$repeats"); do
        run "$w" "$seed" 0
    done > "$parts/$w.runs"
    run "$w" 1 1 > "$parts/$w.traced"
    jq -s --arg w "$w" --slurpfile traced "$parts/$w.traced" \
        '{($w): {runs: ., traced: $traced[0]}}' "$parts/$w.runs" \
        > "$parts/$w.json"
done

jq -s --arg name "$label" '{"label": $name, workloads: add}' \
    "$parts"/*.json > "$out_dir/$label.json"
# Every metric: end-to-end ones as the median over the runs, per-layer
# ones from the traced run.
jq -r -L e2e_stack 'include "stats";
       .workloads | to_entries[] | .key as $w | .value
       | ((.runs[0].metrics | keys_unsorted[]) as $m
          | [$w, $m, ([.runs[].metrics[$m].value] | median),
             .runs[0].metrics[$m].unit]),
         (.traced.metrics | to_entries[]
          | [$w, .key, .value.value, .value.unit])
       | @tsv' "$out_dir/$label.json" |
    awk -F'\t' '{ printf "%-14s %-28s %14.6g %s\n", $1, $2, $3, $4 }'
echo "wrote $out_dir/$label.json"
