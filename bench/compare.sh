#!/usr/bin/env bash
# Compare two BENCH_*.json sets written by bench/run_all.sh:
#
#   bench/compare.sh <base-dir> <new-dir>
#
# For every BENCH_*.json file present in both directories, prints
# each benchmark's real_time in the base and the new run (normalised
# to ns) and the relative delta. Benchmarks present on one side only
# are listed but never gate. Exits 1 when any benchmark's real_time
# grew by more than 5%, 0 otherwise (2 on bad usage). Needs only
# bash and jq. The baseline set committed at the repo root was
# recorded on one host; real_time from another host is not
# comparable to it.
set -euo pipefail

[[ $# -eq 2 ]] || { echo "usage: $0 <base-dir> <new-dir>" >&2; exit 2; }
base_dir=$1
new_dir=$2
limit_pct=5

# One tab-separated row per benchmark name:
#   name  base_ns  new_ns  delta_pct  status
# status is ok / REGRESSION / only-base / only-new.
compare() { # base-file new-file
    jq -r -n --slurpfile base "$1" --slurpfile new "$2" \
        --argjson limit "$limit_pct" '
        def ns: .real_time
            * ({"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[.time_unit // "ns"]);
        def rows(doc): [doc[0].benchmarks[]
                        | select((.run_type // "iteration") == "iteration")
                        | {key: .name, value: ns}] | from_entries;
        rows($base) as $b | rows($new) as $n
        | (($b | keys_unsorted) + ($n | keys_unsorted | map(select($b[.] == null))))[]
        | . as $name
        | if $n[$name] == null then [$name, $b[$name], "-", "-", "only-base"]
          elif $b[$name] == null then [$name, "-", $n[$name], "-", "only-new"]
          else (($n[$name] / $b[$name] - 1) * 100) as $pct
               | [$name, $b[$name], $n[$name], $pct,
                  (if $pct > $limit then "REGRESSION" else "ok" end)]
          end
        | map(tostring) | @tsv'
}

regressions=0
compared=0
for base in "$base_dir"/BENCH_*.json; do
    [[ -e $base ]] || continue
    file=$(basename "$base")
    new=$new_dir/$file
    [[ -e $new ]] || { echo "$file: missing in $new_dir" >&2; continue; }
    compared=$((compared + 1))
    echo "== $file"
    printf '%-58s %14s %14s %9s\n' benchmark base_ns new_ns delta
    while IFS=$'\t' read -r name b n pct status; do
        [[ $pct == - ]] || pct=$(printf '%+.1f%%' "$pct")
        [[ $b == - ]] || b=$(printf '%.1f' "$b")
        [[ $n == - ]] || n=$(printf '%.1f' "$n")
        line=$(printf '%-58s %14s %14s %9s' "$name" "$b" "$n" "$pct")
        if [[ $status == ok ]]; then
            echo "$line"
        else
            echo "$line  $status"
        fi
        if [[ $status == REGRESSION ]]; then
            regressions=$((regressions + 1))
        fi
    done < <(compare "$base" "$new")
done

(( compared > 0 )) || { echo "no BENCH_*.json pairs found" >&2; exit 2; }
echo "$regressions benchmark(s) regressed by more than ${limit_pct}%"
(( regressions == 0 ))
