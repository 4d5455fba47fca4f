/**
 * @file
 * Serving lab: sweep offered traffic through the
 * continuous-batching scheduler with real compiled + simulated
 * GPT-2 block costs at a fixed, tight KV budget. The paged pool
 * admits on current need, shares prompt-prefix pages, and
 * preempts under pressure; each row shows served throughput,
 * mean batch, p99 latency, preemptions and the prefix hit rate.
 *
 * The second half is the fault sweep: the same traffic against a
 * replicated fleet of four, once fault-free and once with one
 * replica killed a quarter of the way through the run (recovering
 * at three quarters). Goodput, p99, and availability side by side
 * show what a crash actually costs when failover re-prefills the
 * evacuated requests on the survivors.
 *
 * `--scale` switches to the million-request sweep mode instead:
 * a generator-fed Poisson trace through a four-replica fleet on
 * the analytic cost model with streaming metrics (no per-request
 * records) — the scale harness exercised end to end, with wall
 * throughput, sketch percentiles, the fleet's round count (steps
 * per round shows how many decode steps each round skipped), and
 * peak RSS printed. Runs in seconds.
 *
 * `--coldstart` switches to the weight-streaming sweep: the same
 * traffic served from a cold replica whose weights stream in from
 * each storage tier, with and without compute/stream overlap, and
 * a fleet whose crash recovery is charged each tier's full
 * re-stream. The per-tier rows show what the storage bill does to
 * first-token latency and to availability after a crash.
 *
 *   ./build/examples/serving_lab [num_requests] [max_batch]
 *   ./build/examples/serving_lab --scale [num_requests]
 *   ./build/examples/serving_lab --coldstart [num_requests]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include <sys/resource.h>

#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/trace.h"
#include "serving/weights.h"

using namespace streamtensor;

namespace {

/** The million-request sweep: same shape as the scale suite and
 *  BM_ServeMillionRequestSweep, run as a printable report. */
int
scaleSweep(int64_t num_requests)
{
    serving::TraceOptions trace_options;
    trace_options.num_requests = num_requests;
    trace_options.seed = 42;
    trace_options.mean_interarrival_ms = 2.5;
    trace_options.min_input_len = 4;
    trace_options.max_input_len = 64;
    trace_options.min_output_len = 1;
    trace_options.max_output_len = 16;

    serving::FleetOptions options;
    options.num_replicas = 4;
    options.replica.max_batch = 8;
    options.replica.kv_budget_tokens = 4096;
    options.replica.max_steps =
        std::numeric_limits<int64_t>::max();
    options.replica.metrics.keep_records =
        serving::MetricsOptions::KeepRecords::Never;

    std::printf("Scale sweep: %lld Poisson requests, 4 replicas, "
                "analytic step costs, streaming metrics\n",
                static_cast<long long>(num_requests));

    serving::TraceGenerator trace(serving::TraceShape::Poisson,
                                  trace_options);
    serving::AnalyticCostModel cost;
    serving::FleetScheduler fleet(options, cost);
    auto wall_start = std::chrono::steady_clock::now();
    serving::FleetResult result = fleet.run(trace);
    double wall_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start)
            .count();

    const serving::FleetMetrics &m = result.metrics;
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage); // ru_maxrss is KiB on Linux
    std::printf("\n  completed        %lld\n",
                static_cast<long long>(m.completed));
    std::printf("  wall time        %.2f s  (%.0f req/s)\n",
                wall_s,
                static_cast<double>(num_requests) / wall_s);
    std::printf("  simulated rate   %.1f req/s over %.1f s\n",
                m.requestsPerSecond(), m.makespan_ms / 1e3);
    std::printf("  fleet rounds     %lld  (%.2f steps per round)\n",
                static_cast<long long>(result.rounds),
                static_cast<double>(m.steps) /
                    static_cast<double>(result.rounds));
    std::printf("  latency p50/p99  %.1f / %.1f ms (sketch, "
                "%lld retained items for %lld samples)\n",
                m.latencyPercentileMs(50.0),
                m.latencyPercentileMs(99.0),
                static_cast<long long>(
                    m.latency_sketch.retainedItems()),
                static_cast<long long>(m.latency_sketch.count()));
    std::printf("  peak RSS         %.1f MB\n",
                static_cast<double>(usage.ru_maxrss) / 1024.0);
    return 0;
}

/** The weight-streaming sweep: cold starts and crash recovery
 *  priced per storage tier, same shape as bench/weight_streaming
 *  but as a printable report. */
int
coldStartSweep(int64_t num_requests)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto artifact =
        serving::ModelArtifact::fromConfig(executor.config());

    serving::TraceOptions trace_options;
    trace_options.num_requests = num_requests;
    trace_options.seed = 23;
    trace_options.mean_interarrival_ms = 8.0;
    trace_options.min_input_len = 8;
    trace_options.max_input_len = 128;
    trace_options.min_output_len = 4;
    trace_options.max_output_len = 24;
    auto trace = serving::poissonTrace(trace_options);

    std::printf("Cold-start sweep: GPT-2 (%.1f MiB packed), "
                "%lld requests, 8 stream readers, 2 MiB chunks\n\n",
                static_cast<double>(artifact.total_bytes) /
                    (1024.0 * 1024.0),
                static_cast<long long>(trace.size()));

    auto serveCold = [&](const serving::WeightStreamPlan &plan,
                         bool overlap) {
        serving::FleetOptions options;
        options.num_replicas = 1;
        options.replica.max_batch = 8;
        options.replica.kv_budget_tokens = 2048;
        if (!plan.empty()) {
            options.replica.cold_start.plan = plan;
            options.replica.cold_start.overlap = overlap;
        }
        serving::ExecutorCostModel cost(executor);
        serving::FleetScheduler scheduler(options, cost);
        return scheduler.run(trace).metrics;
    };
    auto warm = serveCold({}, false);

    std::printf("%-6s %9s | %9s | %10s %10s | %9s %8s\n", "tier",
                "stream", "warm ttft", "cold ttft", "cold ttft",
                "stall", "overlap");
    std::printf("%-6s %9s | %9s | %10s %10s | %9s %8s\n", "",
                "ms", "ms", "off ms", "on ms", "on ms", "hidden");
    for (const auto &tier : serving::allTiers()) {
        serving::WeightStreamOptions stream_options;
        stream_options.tier = tier;
        auto plan = serving::WeightStreamer(stream_options)
                        .plan(artifact);
        auto off = serveCold(plan, false);
        auto on = serveCold(plan, true);
        std::printf("%-6s %9.1f | %9.1f | %10.1f %10.1f | "
                    "%9.1f %7.0f%%\n",
                    tier.name.c_str(), plan.streamMs(),
                    warm.ttftMeanMs(), off.ttftMeanMs(),
                    on.ttftMeanMs(), on.weight_stall_ms,
                    100.0 * on.weightOverlapFraction());
    }

    // ---- Crash recovery priced per tier ------------------------
    std::printf("\nCrash recovery: 2 replicas, replica 0 down at "
                "t=120 ms, recovery re-streams the artifact\n\n");
    std::printf("%-6s %10s %10s %13s %9s\n", "tier", "reload ms",
                "makespan", "availability", "uptime");
    for (const auto &tier : serving::allTiers()) {
        serving::WeightStreamOptions stream_options;
        stream_options.tier = tier;
        double reload_ms =
            serving::WeightStreamer(stream_options)
                .plan(artifact)
                .streamMs();
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
        serving::ExecutorCostModel cost(executor);
        serving::FleetScheduler fleet(options, cost);
        auto m = fleet.run(trace).metrics;
        std::printf("%-6s %10.1f %10.1f %12.1f%% %8.1f%%\n",
                    tier.name.c_str(), reload_ms, m.makespan_ms,
                    100.0 * m.availability(),
                    100.0 * m.uptimeFraction());
    }
    std::printf("\nRecovery is not free: the replica rejoins only "
                "after its tier re-delivers every weight byte, so "
                "the storage bill shows up as fleet downtime.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--scale") == 0)
        return scaleSweep(argc > 2 ? std::atoll(argv[2])
                                   : 1000000);
    if (argc > 1 && std::strcmp(argv[1], "--coldstart") == 0)
        return coldStartSweep(argc > 2 ? std::atoll(argv[2]) : 48);
    int64_t num_requests = argc > 1 ? std::atoll(argv[1]) : 48;
    int64_t max_batch = argc > 2 ? std::atoll(argv[2]) : 6;
    const int64_t kv_budget = 384; // 24 pages of 16 tokens

    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    std::printf("Serving lab: GPT-2 on %s, max batch %lld, "
                "KV budget %lld tokens, "
                "%lld requests per sweep point\n\n",
                executor.platform().name.c_str(),
                static_cast<long long>(max_batch),
                static_cast<long long>(kv_budget),
                static_cast<long long>(num_requests));
    std::printf("%-12s %8s | %8s %8s %8s %8s %8s\n", "trace",
                "offered", "served", "batch", "p99", "preempt",
                "prefix");
    std::printf("%-12s %8s | %8s %8s %8s %8s %8s\n", "", "req/s",
                "req/s", "", "ms", "", "hit");

    auto sweepPoint = [&](const char *name, bool bursty,
                          double mean_interarrival_ms) {
        serving::TraceOptions trace_options;
        trace_options.num_requests = num_requests;
        trace_options.seed = 29;
        trace_options.mean_interarrival_ms =
            mean_interarrival_ms;
        trace_options.min_input_len = 8;
        trace_options.max_input_len = 32;
        trace_options.min_output_len = 4;
        trace_options.max_output_len = 16;
        // Chat-style traffic: a shared 48-token system prompt
        // (4 groups) plus a short user turn, medium generations.
        // Narrow length spread keeps decode contexts in few shape
        // buckets, so freed batch slots actually merge into the
        // same accelerator trigger.
        trace_options.num_prefix_groups = 4;
        trace_options.shared_prefix_len = 48;
        auto trace = bursty ? serving::burstyTrace(trace_options)
                            : serving::poissonTrace(trace_options);

        serving::FleetOptions options;
        options.num_replicas = 1;
        options.replica.max_batch = max_batch;
        options.replica.kv_budget_tokens = kv_budget;
        serving::ExecutorCostModel cost(executor);
        serving::FleetScheduler scheduler(options, cost);
        auto paged = scheduler.run(trace).metrics;
        if (cost.sawDeadlock())
            std::printf("  WARNING: a costed block deadlocked\n");

        double offered = 1e3 / mean_interarrival_ms;
        std::printf("%-12s %8.2f | %8.2f %8.2f %8.1f %8lld "
                    "%7.0f%%\n",
                    name, offered, paged.requestsPerSecond(),
                    paged.meanBatchSize(),
                    paged.latencyPercentileMs(99.0),
                    static_cast<long long>(paged.preemptions),
                    100.0 * paged.prefixHitRate());
    };

    sweepPoint("poisson/300", false, 300.0);
    sweepPoint("poisson/80", false, 80.0);
    sweepPoint("poisson/40", false, 40.0);
    sweepPoint("poisson/10", false, 10.0);
    sweepPoint("bursty/40", true, 40.0);
    sweepPoint("bursty/20", true, 20.0);

    std::printf("\nPast saturation the pool holds only current "
                "contexts, so free pages become batch slots.\n"
                "Bucketed shapes compiled once and reused across "
                "the sweep: %lld compiles total.\n",
                static_cast<long long>(executor.compileCount()));

    // ---- Fault sweep: a fleet of four loses one replica --------
    const int num_replicas = 4;
    serving::TraceOptions fleet_trace_options;
    fleet_trace_options.num_requests = num_requests * 2;
    fleet_trace_options.seed = 29;
    fleet_trace_options.mean_interarrival_ms = 10.0;
    fleet_trace_options.min_input_len = 8;
    fleet_trace_options.max_input_len = 192;
    fleet_trace_options.min_output_len = 4;
    fleet_trace_options.max_output_len = 32;
    auto fleet_trace =
        serving::poissonTrace(fleet_trace_options);

    serving::FleetOptions fleet_options;
    fleet_options.num_replicas = num_replicas;
    fleet_options.replica.max_batch = max_batch;
    fleet_options.replica.kv_budget_tokens = 2048;
    fleet_options.max_retries = 3;
    fleet_options.retry_backoff_ms = 5.0;

    auto serveFleet = [&](serving::FaultPlan faults) {
        auto options = fleet_options;
        options.faults = std::move(faults);
        serving::ExecutorCostModel cost(executor);
        serving::FleetScheduler fleet(options, cost);
        return fleet.run(fleet_trace).metrics;
    };

    // Measure the fault-free fleet first; the kill instant is a
    // quarter of *its* makespan, the recovery three quarters.
    auto calm = serveFleet({});
    serving::FaultPlan plan;
    plan.events.push_back({0.25 * calm.makespan_ms, 0,
                           serving::FaultKind::Crash, 1.0});
    plan.events.push_back({0.75 * calm.makespan_ms, 0,
                           serving::FaultKind::Recover, 1.0});
    auto faulted = serveFleet(std::move(plan));

    std::printf("\nFault sweep: %d replicas, %lld requests, "
                "replica 0 killed at t=%.0f ms (25%% of the "
                "no-fault makespan), back at t=%.0f ms\n\n",
                num_replicas,
                static_cast<long long>(fleet_trace.size()),
                0.25 * calm.makespan_ms, 0.75 * calm.makespan_ms);
    std::printf("%-10s %10s %10s %12s %10s %10s %8s\n", "fleet",
                "goodput", "p99 ms", "availability", "uptime",
                "failovers", "lost");
    auto fleetRow = [](const char *name,
                       const serving::FleetMetrics &m) {
        std::printf("%-10s %10.2f %10.1f %11.1f%% %9.1f%% "
                    "%10lld %8lld\n",
                    name, m.requestsPerSecond(),
                    m.latencyPercentileMs(99.0),
                    100.0 * m.availability(),
                    100.0 * m.uptimeFraction(),
                    static_cast<long long>(m.failovers),
                    static_cast<long long>(m.requests_lost));
    };
    fleetRow("no-fault", calm);
    fleetRow("crash-one", faulted);
    std::printf("\nEvery request evacuated by the crash "
                "re-prefilled on a survivor and still emitted "
                "its full output: availability holds while "
                "goodput and p99 pay for the lost quarter of "
                "the fleet.\n");
    return 0;
}
