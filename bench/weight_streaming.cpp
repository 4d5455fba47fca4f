/**
 * @file
 * Weight-streaming micro-benchmarks (google-benchmark): the
 * storage→HBM leg of cold starts and crash recovery. Counters
 * report the *simulated* serving quality — cold-start TTFT per
 * storage tier with and without compute/stream overlap, the
 * stream window itself, and fleet availability when recovery is
 * charged a tier-dependent reload — while the benchmark time
 * measures how fast planning and the event loops themselves run.
 * Every benchmark name carries "Weight" so CI can carve the JSON
 * into BENCH_weights.json by name.
 */

#include <benchmark/benchmark.h>

#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/trace.h"
#include "serving/weights.h"

using namespace streamtensor;

namespace {

runtime::LlmExecutor &
gpt2Executor()
{
    static runtime::LlmExecutor executor(models::gpt2Config(),
                                         hls::u55c());
    return executor;
}

const serving::ModelArtifact &
gpt2Artifact()
{
    static serving::ModelArtifact artifact =
        serving::ModelArtifact::fromConfig(models::gpt2Config());
    return artifact;
}

serving::StorageTierProfile
tierByIndex(int64_t index)
{
    return serving::allTiers()[static_cast<size_t>(index)];
}

std::vector<serving::Request>
coldTraffic()
{
    serving::TraceOptions options;
    options.num_requests = 48;
    options.seed = 23;
    options.mean_interarrival_ms = 8.0;
    options.min_input_len = 8;
    options.max_input_len = 128;
    options.min_output_len = 4;
    options.max_output_len = 24;
    return serving::poissonTrace(options);
}

/** Cold-start serving per tier: args are (tier index, overlap).
 *  Counters put the before/after on one row — warm TTFT, cold
 *  TTFT, the stream window, and the fraction of it the schedule
 *  hid. */
void
BM_WeightColdStartTtft(benchmark::State &state)
{
    auto tier = tierByIndex(state.range(0));
    bool overlap = state.range(1) != 0;
    serving::WeightStreamOptions stream_options;
    stream_options.tier = tier;
    auto plan = serving::WeightStreamer(stream_options)
                    .plan(gpt2Artifact());
    auto trace = coldTraffic();

    auto serve = [&](bool cold) {
        serving::ExecutorCostModel cost(gpt2Executor());
        serving::FleetOptions options;
        options.num_replicas = 1;
        options.replica.max_batch = 8;
        options.replica.kv_budget_tokens = 2048;
        if (cold) {
            options.replica.cold_start.plan = plan;
            options.replica.cold_start.overlap = overlap;
        }
        serving::FleetScheduler scheduler(options, cost);
        return scheduler.run(trace);
    };

    auto warm = serve(false);
    serving::FleetMetrics metrics;
    for (auto _ : state) {
        auto result = serve(true);
        metrics = std::move(result.metrics);
        double makespan = metrics.makespan_ms;
        benchmark::DoNotOptimize(makespan);
    }
    state.SetLabel(tier.name);
    state.counters["ttft_warm_ms"] = warm.metrics.ttftMeanMs();
    state.counters["ttft_cold_ms"] = metrics.ttftMeanMs();
    state.counters["stream_ms"] = metrics.weight_stream_ms;
    state.counters["stall_ms"] = metrics.weight_stall_ms;
    state.counters["overlap_fraction"] =
        metrics.weightOverlapFraction();
}
BENCHMARK(BM_WeightColdStartTtft)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/** Crash-recovery with a tier-dependent reload window: replica 0
 *  crashes mid-run and its recovery re-streams the artifact. */
void
BM_WeightReloadRecovery(benchmark::State &state)
{
    auto tier = tierByIndex(state.range(0));
    serving::WeightStreamOptions stream_options;
    stream_options.tier = tier;
    double reload_ms = serving::WeightStreamer(stream_options)
                           .plan(gpt2Artifact())
                           .streamMs();
    auto trace = coldTraffic();

    serving::FleetOptions options;
    options.num_replicas = 2;
    options.replica.max_batch = 8;
    options.replica.kv_budget_tokens = 2048;
    options.max_retries = 3;
    options.retry_backoff_ms = 5.0;
    options.recovery_reload_ms = reload_ms;
    options.faults.events.push_back(
        {120.0, 0, serving::FaultKind::Crash, 1.0});
    options.faults.events.push_back(
        {240.0, 0, serving::FaultKind::Recover, 1.0});

    serving::FleetMetrics metrics;
    for (auto _ : state) {
        serving::ExecutorCostModel cost(gpt2Executor());
        serving::FleetScheduler fleet(options, cost);
        auto result = fleet.run(trace);
        metrics = std::move(result.metrics);
        double makespan = metrics.makespan_ms;
        benchmark::DoNotOptimize(makespan);
    }
    state.SetLabel(tier.name);
    state.counters["availability"] = metrics.availability();
    state.counters["uptime_fraction"] = metrics.uptimeFraction();
    state.counters["reload_ms"] = metrics.reload_ms_total;
    state.counters["makespan_ms"] = metrics.makespan_ms;
}
BENCHMARK(BM_WeightReloadRecovery)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

/** Plan construction itself: manifest chunking + per-reader
 *  prefix sums, the hot path of every swap/recovery decision. */
void
BM_WeightStreamPlanBuild(benchmark::State &state)
{
    serving::WeightStreamOptions options;
    options.num_readers = state.range(0);
    serving::WeightStreamer streamer(options);
    for (auto _ : state) {
        auto plan = streamer.plan(gpt2Artifact());
        benchmark::DoNotOptimize(plan.end_ms);
    }
    state.counters["readers"] =
        static_cast<double>(state.range(0));
}
BENCHMARK(BM_WeightStreamPlanBuild)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
