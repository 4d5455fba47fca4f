#!/usr/bin/env bash
# Compare two result files written by e2e_stack/e2e.sh:
#
#   e2e_stack/e2e_compare.sh BASE.json NEW.json
#
# Run from the repository root. For every workload and end-to-end
# metric in BENCHMARK.json it prints the two medians, the change in the
# metric's worse direction as a share of the base median, and a
# verdict against the metric's bound:
#   ok          within the bound;
#   unresolved  a side's spread (interquartile range over median) is
#               wider than the bound, so the runs cannot tell;
#   REGRESSION  worse by more than the bound.
# Per-layer metrics of the two traced runs follow, as plain deltas.
# Exits 1 if any metric regressed.
set -euo pipefail

[[ $# -eq 2 ]] || { echo "usage: $0 BASE.json NEW.json" >&2; exit 2; }
here=$(dirname "$0")

table=$(jq -r -L "$here" --slurpfile base "$1" --slurpfile new "$2" '
  include "stats";
  def values($side; $w; $m): [$side.workloads[$w].runs[].metrics[$m].value];
  def pct: . * 10000 | round / 100 | (if . == 0 then 0 else . end)
           | tostring + "%";
  . as $bench
  | ($bench.workloads | map(.name)) as $names
  | ["workload", "metric", "base", "new", "worse_by", "bound", "verdict"],
    ($names[] as $w | $bench.end_to_end[] as $e
     | values($base[0]; $w; $e.name) as $a
     | values($new[0]; $w; $e.name) as $b
     | ($a | median) as $ma | ($b | median) as $mb
     | (if $ma == 0 then 0 else ($mb - $ma) / ($ma | fabs) end
        * (if $e.better == "lower" then 1 else -1 end)) as $worse
     | [$w, $e.name, $ma, $mb, ($worse | pct), ($e.bound | pct),
        (if ([$a, $b][] | spread) > $e.bound then "unresolved"
         elif $worse > $e.bound then "REGRESSION"
         else "ok" end)]),
    ["workload", "per_layer", "base", "new", "delta"],
    ($names[] as $w | $bench.per_layer[] as $p
     | $base[0].workloads[$w].traced.metrics[$p.name].value as $a
     | $new[0].workloads[$w].traced.metrics[$p.name].value as $b
     | [$w, $p.name, $a, $b,
        (if $a == 0 then "-" else ($b - $a) / ($a | fabs) | pct end)])
  | @tsv' BENCHMARK.json)

awk -F'\t' 'function num(x) { return x ~ /^[-0-9.e+]+$/ ? sprintf("%.6g", x) : x }
             { printf "%-14s %-28s %14s %14s %9s %7s %s\n",
                      $1, $2, num($3), num($4), $5, $6, $7 }' <<< "$table"
! grep -q $'\tREGRESSION$' <<< "$table"
