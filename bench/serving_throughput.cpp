/**
 * @file
 * Serving-layer micro-benchmarks (google-benchmark): one
 * continuous-batching replica driven by executor-backed step
 * costs over Poisson and bursty arrival traces. Counters report
 * the *simulated* serving quality — completed requests/s and p99
 * request latency — while the benchmark time measures how fast
 * the discrete-event serving simulator itself runs (the compile
 * cache is warmed by the first iteration; steady-state iterations
 * are pure scheduling).
 */

#include <benchmark/benchmark.h>

#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/trace.h"

using namespace streamtensor;

namespace {

runtime::LlmExecutor &
gpt2Executor()
{
    static runtime::LlmExecutor executor(models::gpt2Config(),
                                         hls::u55c());
    return executor;
}

serving::TraceOptions
trafficOptions()
{
    serving::TraceOptions options;
    options.num_requests = 96;
    options.seed = 17;
    options.mean_interarrival_ms = 20.0;
    options.min_input_len = 8;
    options.max_input_len = 192;
    options.min_output_len = 4;
    options.max_output_len = 32;
    return options;
}

void
serveTrace(benchmark::State &state,
           const std::vector<serving::Request> &trace,
           int64_t kv_budget_tokens = 4096)
{
    serving::FleetOptions options;
    options.num_replicas = 1;
    options.replica.max_batch = state.range(0);
    options.replica.kv_budget_tokens = kv_budget_tokens;

    serving::FleetMetrics metrics;
    for (auto _ : state) {
        serving::ExecutorCostModel cost(gpt2Executor());
        serving::FleetScheduler scheduler(options, cost);
        auto result = scheduler.run(trace);
        metrics = std::move(result.metrics);
        // A local copy: DoNotOptimize's read-write asm operand
        // clobbers the field itself at -O2 when handed the member
        // lvalue directly, corrupting the counters read after the
        // loop.
        double makespan = metrics.makespan_ms;
        benchmark::DoNotOptimize(makespan);
    }
    state.counters["served_req_per_s"] =
        metrics.requestsPerSecond();
    state.counters["p99_latency_ms"] =
        metrics.latencyPercentileMs(99.0);
    state.counters["ttft_p95_ms"] = metrics.ttftP95Ms();
    state.counters["mean_batch"] = metrics.meanBatchSize();
    state.counters["accel_util"] = metrics.utilization();
    state.counters["preemptions"] =
        static_cast<double>(metrics.preemptions);
    state.counters["prefix_hit_rate"] = metrics.prefixHitRate();
    state.counters["page_util"] = metrics.pageUtilization();
}

// Chat-style saturated traffic at a tight KV budget: a shared
// 48-token system prompt (4 groups), short user turns, short
// generations. This is the regime where block-granular admission
// pays: headroom that a worst-case reservation would hold idle
// becomes live batch slots, at the cost of a few preemptions.
serving::TraceOptions
saturatedPrefixTraffic()
{
    serving::TraceOptions options;
    options.num_requests = 48;
    options.seed = 29;
    options.mean_interarrival_ms = 10.0;
    options.min_input_len = 8;
    options.max_input_len = 32;
    options.min_output_len = 4;
    options.max_output_len = 16;
    options.num_prefix_groups = 4;
    options.shared_prefix_len = 48;
    return options;
}

constexpr int64_t kTightKvBudget = 384; // 24 pages of 16 tokens

void
BM_ServePoissonTrace(benchmark::State &state)
{
    auto trace = serving::poissonTrace(trafficOptions());
    serveTrace(state, trace);
}
BENCHMARK(BM_ServePoissonTrace)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void
BM_ServeBurstyTrace(benchmark::State &state)
{
    auto options = trafficOptions();
    options.burst_factor = 10.0;
    options.burst_period_ms = 1000.0;
    auto trace = serving::burstyTrace(options);
    serveTrace(state, trace);
}
BENCHMARK(BM_ServeBurstyTrace)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void
BM_ServeSaturatedPaged(benchmark::State &state)
{
    auto trace =
        serving::poissonTrace(saturatedPrefixTraffic());
    serveTrace(state, trace, kTightKvBudget);
}
BENCHMARK(BM_ServeSaturatedPaged)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
