#!/usr/bin/env bash
# Run the six Google-Benchmark binaries of a Release build and write
# their JSON, carved per layer, into one directory:
#
#   bench/run_all.sh <build-dir> <out-dir>
#
# <build-dir> must already hold the built bench_micro_solver,
# bench_micro_pipeline, bench_serving_throughput,
# bench_fleet_resilience, bench_sweep_scale and bench_weight_streaming
# targets (for example
# `cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release -DST_BUILD_TESTS=OFF`
# then `cmake --build build-rel -j`). Each binary runs once; the
# per-layer files are jq carves of those runs, never a second run.
# Written to <out-dir>:
#
#   BENCH_micro_solver.json    micro_solver, whole
#   BENCH_micro_pipeline.json  micro_pipeline, whole
#   BENCH_sim.json             "Simulate" entries of micro_pipeline
#   BENCH_partition.json       "DiePartition"/"Crossing" entries of
#                              micro_solver and micro_pipeline
#   BENCH_serving.json         "Serve" entries of serving_throughput
#   BENCH_fleet.json           "ServeReplicated" entries of
#                              fleet_resilience
#   BENCH_sweep.json           "Sweep" entries of sweep_scale
#   BENCH_weights.json         "Weight" entries of weight_streaming
set -euo pipefail

[[ $# -eq 2 ]] || { echo "usage: $0 <build-dir> <out-dir>" >&2; exit 2; }
bench_dir=$1/bench
out=$2
mkdir -p "$out"
raw=$(mktemp -d)
trap 'rm -rf "$raw"' EXIT

run() { # binary output
    echo "running $1" >&2
    "$bench_dir/$1" --benchmark_format=json > "$2"
}

# Keep the entries of one binary's JSON whose name contains $needle.
carve() { # needle input output
    jq --arg needle "$1" \
        '{context: .context,
          benchmarks: [.benchmarks[]
                       | select(.name | contains($needle))]}' \
        "$2" > "$3"
}

run micro_solver "$out/BENCH_micro_solver.json"
run micro_pipeline "$out/BENCH_micro_pipeline.json"

# Simulator benchmarks (with their sim_cycles_per_s / sim_events
# counters) already ran inside micro_pipeline.
carve Simulate "$out/BENCH_micro_pipeline.json" "$out/BENCH_sim.json"

# Die-partition and crossing-aware simulation benchmarks (with
# their `crossings` counter) are spread over both micro binaries.
jq -s '{context: .[0].context,
        benchmarks: ([.[].benchmarks[]]
                     | map(select(.name
                                  | (contains("DiePartition")
                                     or contains("Crossing")))))}' \
    "$out/BENCH_micro_solver.json" "$out/BENCH_micro_pipeline.json" \
    > "$out/BENCH_partition.json"

# BM_Serve*: served_req_per_s / preemptions / prefix_hit_rate /
# page_util pin the paged pool at a fixed budget.
run serving_throughput "$raw/serving_throughput.json"
carve Serve "$raw/serving_throughput.json" "$out/BENCH_serving.json"

# BM_ServeReplicated{NoFault,CrashOne,SlowOne}: availability /
# failovers / served_req_per_s / p99_latency_ms pin the cost of a
# crash and of a 3x slowdown against the no-fault fleet.
run fleet_resilience "$raw/fleet_resilience.json"
carve ServeReplicated "$raw/fleet_resilience.json" "$out/BENCH_fleet.json"

# BM_ServeMillionRequestSweep / BM_Sweep*: wall_req_per_s /
# peak_rss_mb / p99_ms pin the million-request harness; the
# EventCore pair guards the heap core against the LegacyScan oracle.
run sweep_scale "$raw/sweep_scale.json"
carve Sweep "$raw/sweep_scale.json" "$out/BENCH_sweep.json"

# Cold-start rows (ttft_cold_ms / stall_ms / overlap_fraction) and
# reload rows (uptime_fraction) per storage tier.
run weight_streaming "$raw/weight_streaming.json"
carve Weight "$raw/weight_streaming.json" "$out/BENCH_weights.json"

ls "$out"/BENCH_*.json
