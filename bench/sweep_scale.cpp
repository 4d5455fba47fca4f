/**
 * @file
 * Million-request sweep micro-benchmarks (google-benchmark): the
 * scale harness this repo's serving experiments sweep with. The
 * headline benchmark serves one million Poisson requests through a
 * four-replica fleet on the analytic cost model with streaming
 * metrics (no per-request records), and reports wall-clock
 * requests/s plus the simulated quality counters (p99 from the
 * sketch) and the process peak RSS — the numbers behind the
 * "Million-request sweeps" table in the README. The smaller
 * paired variant measures decode runs on (Heap) against off
 * (PerStep), and the outage-backlog row serves a trace through
 * repeated whole-fleet outages that park thousands of requests in
 * the retry buffer.
 */

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/trace.h"

using namespace streamtensor;

namespace {

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // ru_maxrss is KiB on Linux.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

serving::TraceOptions
sweepTrace(int64_t num_requests)
{
    serving::TraceOptions options;
    options.num_requests = num_requests;
    options.seed = 42;
    // ~85% of the 4-replica fleet's measured service rate: heavy
    // queueing (a real tail to estimate) without divergence.
    options.mean_interarrival_ms = 2.5;
    options.min_input_len = 4;
    options.max_input_len = 64;
    options.min_output_len = 1;
    options.max_output_len = 16;
    return options;
}

serving::FleetOptions
sweepFleet(serving::FleetEventCore core)
{
    serving::FleetOptions options;
    options.num_replicas = 4;
    options.replica.max_batch = 8;
    options.replica.kv_budget_tokens = 4096;
    options.replica.max_steps =
        std::numeric_limits<int64_t>::max();
    // Streaming metrics: the whole point of the sweep harness is
    // O(sketch) memory at millions of requests.
    options.replica.metrics.keep_records =
        serving::MetricsOptions::KeepRecords::Never;
    options.event_core = core;
    return options;
}

serving::FleetResult
runSweep(int64_t num_requests, serving::FleetEventCore core)
{
    serving::TraceGenerator trace(serving::TraceShape::Poisson,
                                  sweepTrace(num_requests));
    serving::AnalyticCostModel cost;
    serving::FleetScheduler fleet(sweepFleet(core), cost);
    return fleet.run(trace);
}

/** The headline: 1M requests, heap core, streaming metrics. */
void
BM_ServeMillionRequestSweep(benchmark::State &state)
{
    int64_t num_requests = state.range(0);
    serving::FleetResult result;
    for (auto _ : state)
        result = runSweep(num_requests,
                          serving::FleetEventCore::Heap);
    const serving::FleetMetrics &m = result.metrics;
    state.counters["wall_req_per_s"] = benchmark::Counter(
        static_cast<double>(num_requests) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    state.counters["sim_req_per_s"] = m.requestsPerSecond();
    state.counters["completed"] =
        static_cast<double>(m.completed);
    state.counters["p99_ms"] = m.latencyPercentileMs(99.0);
    state.counters["sketch_items"] =
        static_cast<double>(m.latency_sketch.retainedItems());
    state.counters["peak_rss_mb"] = peakRssMb();
}
BENCHMARK(BM_ServeMillionRequestSweep)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/** Decode runs on (Heap) and off (PerStep) over the same trace:
 *  the results are bit-identical, so the pair prices the rounds
 *  decode runs skip, and the run planning itself, in wall time. */
void
BM_SweepEventCore(benchmark::State &state)
{
    auto core =
        static_cast<serving::FleetEventCore>(state.range(0));
    int64_t num_requests = state.range(1);
    serving::FleetResult result;
    for (auto _ : state)
        result = runSweep(num_requests, core);
    state.counters["completed"] =
        static_cast<double>(result.metrics.completed);
}
BENCHMARK(BM_SweepEventCore)
    ->ArgsProduct(
        {{static_cast<int64_t>(serving::FleetEventCore::Heap),
          static_cast<int64_t>(serving::FleetEventCore::PerStep)},
         {20000, 100000}})
    ->Unit(benchmark::kMillisecond);

/** Five whole-fleet outages, each a tenth of the trace's horizon,
 *  with a 40 s deadline on every request: each outage parks every
 *  arrival in the retry buffer, so the rounds inside it (one per
 *  parked deadline, arrival and backoff) run against a buffer
 *  thousands deep. Guards the next-instant rule and the due-retry
 *  phase against per-round work that grows with the buffer. */
void
BM_SweepOutageBacklog(benchmark::State &state)
{
    int64_t num_requests = state.range(0);
    serving::TraceOptions trace_options = sweepTrace(num_requests);
    trace_options.deadline_slack_ms = 40000.0;
    serving::FleetOptions options =
        sweepFleet(serving::FleetEventCore::Heap);
    double horizon_ms = trace_options.mean_interarrival_ms *
                        static_cast<double>(num_requests);
    for (int k = 0; k < 5; ++k) {
        double down_ms = horizon_ms * (0.05 + 0.2 * k);
        for (int r = 0; r < options.num_replicas; ++r) {
            options.faults.events.push_back(
                {down_ms, r, serving::FaultKind::Crash, 1.0});
            options.faults.events.push_back(
                {down_ms + 0.1 * horizon_ms, r,
                 serving::FaultKind::Recover, 1.0});
        }
    }
    serving::FleetResult result;
    for (auto _ : state) {
        serving::TraceGenerator trace(serving::TraceShape::Poisson,
                                      trace_options);
        serving::AnalyticCostModel cost;
        result = serving::FleetScheduler(options, cost).run(trace);
    }
    state.counters["completed"] =
        static_cast<double>(result.metrics.completed);
    state.counters["failovers"] =
        static_cast<double>(result.metrics.failovers);
    state.counters["rounds"] = static_cast<double>(result.rounds);
}
BENCHMARK(BM_SweepOutageBacklog)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
