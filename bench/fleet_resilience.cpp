/**
 * @file
 * Fleet-resilience micro-benchmarks (google-benchmark): the
 * replicated serving tier under scripted faults. Counters report
 * the *simulated* serving quality — availability, failovers,
 * completed requests/s, p99 latency — while the benchmark time
 * measures how fast the fleet's discrete-event loop itself runs.
 * The three variants share one trace and differ only in the fault
 * plan: no faults, one replica crashing at ~25% of the no-fault
 * makespan (with a later recovery), and one replica slowed 3x
 * over the middle half of the run.
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

std::vector<serving::Request>
fleetTraffic()
{
    serving::TraceOptions options;
    options.num_requests = 96;
    options.seed = 17;
    options.mean_interarrival_ms = 10.0;
    options.min_input_len = 8;
    options.max_input_len = 192;
    options.min_output_len = 4;
    options.max_output_len = 32;
    return serving::poissonTrace(options);
}

/** No-fault makespan of fleetTraffic() on the two-replica fleet
 *  shape, measured once; the fault plans below are anchored to it
 *  (crash at 25%, recover / un-slow at 75%). Executor-backed
 *  steps run hundreds of simulated ms, so fault windows must span
 *  several steps to bite — a window shorter than one in-flight
 *  step is invisible by design (launched steps keep their
 *  cost). */
constexpr double kNominalMakespanMs = 7700.0;

serving::FleetOptions
fleetOptions(int num_replicas)
{
    serving::FleetOptions options;
    options.num_replicas = num_replicas;
    options.replica.max_batch = 8;
    options.replica.kv_budget_tokens = 2048;
    options.max_retries = 3;
    options.retry_backoff_ms = 5.0;
    return options;
}

void
serveFleet(benchmark::State &state, serving::FleetOptions options)
{
    serving::FleetMetrics metrics;
    auto trace = fleetTraffic();
    for (auto _ : state) {
        serving::ExecutorCostModel cost(gpt2Executor());
        serving::FleetScheduler fleet(options, cost);
        auto result = fleet.run(trace);
        metrics = std::move(result.metrics);
        // A local copy: DoNotOptimize's read-write asm operand
        // clobbers the field itself at -O2 when handed the member
        // lvalue directly, corrupting the counters read after the
        // loop.
        double makespan = metrics.makespan_ms;
        benchmark::DoNotOptimize(makespan);
    }
    state.counters["availability"] = metrics.availability();
    state.counters["uptime_fraction"] = metrics.uptimeFraction();
    state.counters["served_req_per_s"] =
        metrics.requestsPerSecond();
    state.counters["p99_latency_ms"] =
        metrics.latencyPercentileMs(99.0);
    state.counters["failovers"] =
        static_cast<double>(metrics.failovers);
    state.counters["requests_lost"] =
        static_cast<double>(metrics.requests_lost);
    state.counters["aborted_steps"] =
        static_cast<double>(metrics.aborted_steps);
}

void
BM_ServeReplicatedNoFault(benchmark::State &state)
{
    serveFleet(state,
               fleetOptions(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_ServeReplicatedNoFault)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_ServeReplicatedCrashOne(benchmark::State &state)
{
    auto options =
        fleetOptions(static_cast<int>(state.range(0)));
    options.faults.events.push_back(
        {0.25 * kNominalMakespanMs, 0, serving::FaultKind::Crash,
         1.0});
    options.faults.events.push_back(
        {0.75 * kNominalMakespanMs, 0,
         serving::FaultKind::Recover, 1.0});
    serveFleet(state, options);
}
BENCHMARK(BM_ServeReplicatedCrashOne)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_ServeReplicatedSlowOne(benchmark::State &state)
{
    auto options =
        fleetOptions(static_cast<int>(state.range(0)));
    options.faults.events.push_back(
        {0.25 * kNominalMakespanMs, 0,
         serving::FaultKind::SlowStart, 3.0});
    options.faults.events.push_back(
        {0.75 * kNominalMakespanMs, 0,
         serving::FaultKind::SlowEnd, 1.0});
    serveFleet(state, options);
}
BENCHMARK(BM_ServeReplicatedSlowOne)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
