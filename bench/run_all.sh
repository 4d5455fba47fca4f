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
# then `cmake --build build-rel -j`). Each binary runs once, with
# every benchmark repeated 5 times; every written row is the median
# of its repetitions (`<name>_median`). The per-layer files are jq
# carves of those runs, never a second run. Written to <out-dir>:
#
#   BENCH_micro_solver.json    micro_solver, whole
#   BENCH_micro_pipeline.json  micro_pipeline, whole
#   BENCH_serving.json         "Serve" entries of serving_throughput
#   BENCH_fleet.json           "ServeReplicated" entries of
#                              fleet_resilience
#   BENCH_sweep.json           "Sweep" entries of sweep_scale
#   BENCH_weights.json         "Weight" entries of weight_streaming
set -euo pipefail

[[ $# -eq 2 ]] || { echo "usage: $0 <build-dir> <out-dir>" >&2; exit 2; }
bench_dir=$1/bench
out=$2
repetitions=5
mkdir -p "$out"
raw=$(mktemp -d)
trap 'rm -rf "$raw"' EXIT

run() { # binary
    echo "running $1" >&2
    "$bench_dir/$1" --benchmark_format=json \
        --benchmark_repetitions="$repetitions" \
        --benchmark_report_aggregates_only=true > "$raw/$1.json"
}

# Keep the median rows of one binary's JSON whose name contains
# $needle (an empty needle keeps every median row).
carve() { # needle binary output
    jq --arg needle "$1" \
        '{context: .context,
          benchmarks: [.benchmarks[]
                       | select(.aggregate_name == "median"
                                and (.name | contains($needle)))]}' \
        "$raw/$2.json" > "$out/$3"
}

# BM_Simulate* (sim_cycles_per_s / sim_events) and the die-partition
# and crossing-aware benchmarks (crossings) live in these two files.
run micro_solver
carve "" micro_solver BENCH_micro_solver.json
run micro_pipeline
carve "" micro_pipeline BENCH_micro_pipeline.json

# BM_Serve*: served_req_per_s / preemptions / prefix_hit_rate /
# page_util pin the paged pool at a fixed budget.
run serving_throughput
carve Serve serving_throughput BENCH_serving.json

# BM_ServeReplicated{NoFault,CrashOne,SlowOne}: availability /
# failovers / served_req_per_s / p99_latency_ms pin the cost of a
# crash and of a 3x slowdown against the no-fault fleet.
run fleet_resilience
carve ServeReplicated fleet_resilience BENCH_fleet.json

# BM_ServeMillionRequestSweep / BM_Sweep*: wall_req_per_s /
# peak_rss_mb / p99_ms pin the million-request harness; the
# EventCore rows serve the same sweep at 20k and 100k requests, and
# OutageBacklog serves through whole-fleet outages that park
# thousands of requests in the retry buffer.
run sweep_scale
carve Sweep sweep_scale BENCH_sweep.json

# Cold-start rows (ttft_cold_ms / stall_ms / overlap_fraction) and
# reload rows (uptime_fraction) per storage tier.
run weight_streaming
carve Weight weight_streaming BENCH_weights.json

ls "$out"/BENCH_*.json
