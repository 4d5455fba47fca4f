/** @file Long-trace scale suite (ctest label: `scale`). Runs a
 *  four-replica fleet over a generator-fed Poisson trace large
 *  enough to cross the record-retention cliff and exercise the
 *  heap core's O(log n) path at depth, then checks the streaming
 *  contract: conservation of every request, O(sketch) memory
 *  (records dropped, bounded retained items), and sketch
 *  percentiles within the documented rank error of the exact
 *  record-keeping run. Trace length defaults to 150k requests;
 *  slow jobs (sanitizers) reduce it via ST_SCALE_REQUESTS. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/trace.h"

using namespace streamtensor;

namespace {

int64_t
scaleRequests()
{
    if (const char *env = std::getenv("ST_SCALE_REQUESTS"))
        return std::max<int64_t>(std::atoll(env), 1000);
    return 150000;
}

serving::TraceOptions
scaleTrace(int64_t n)
{
    serving::TraceOptions trace;
    trace.seed = 42;
    trace.num_requests = n;
    trace.mean_interarrival_ms = 0.5;
    trace.min_input_len = 4;
    trace.max_input_len = 64;
    trace.min_output_len = 1;
    trace.max_output_len = 16;
    return trace;
}

serving::FleetOptions
scaleFleet(serving::MetricsOptions::KeepRecords keep)
{
    serving::FleetOptions options;
    options.num_replicas = 4;
    options.replica.max_batch = 8;
    options.replica.kv_budget_tokens = 4096;
    options.replica.max_steps =
        std::numeric_limits<int64_t>::max();
    options.replica.metrics.keep_records = keep;
    return options;
}

TEST(Scale, StreamingSweepConservesAndBoundsMemory)
{
    int64_t n = scaleRequests();
    serving::TraceGenerator trace(serving::TraceShape::Poisson,
                                  scaleTrace(n));
    serving::AnalyticCostModel cost;
    serving::FleetScheduler fleet(
        scaleFleet(serving::MetricsOptions::KeepRecords::Never),
        cost);
    serving::FleetResult result = fleet.run(trace);
    const serving::FleetMetrics &m = result.metrics;

    // Conservation: every request has exactly one outcome.
    EXPECT_EQ(m.completed + m.requests_lost + m.expired_deadline +
                  m.rejected_queue_full + m.rejected_too_long +
                  m.rejected_drained,
              n);
    EXPECT_FALSE(result.hit_step_limit);
    EXPECT_EQ(m.completed, n); // calm fleet: nothing is shed

    // Streaming regime: no per-request records anywhere, and the
    // sketch retains O(k log(n/k)) items, not O(n).
    EXPECT_FALSE(m.records_complete);
    EXPECT_TRUE(m.requests.empty());
    for (const auto &replica : result.replicas)
        EXPECT_TRUE(replica.metrics.requests.empty());
    EXPECT_EQ(m.latency_sketch.count(), n);
    EXPECT_LT(m.latency_sketch.retainedItems(), 16384);

    // Percentiles answer from the sketch and are ordered.
    double p50 = m.latencyPercentileMs(50.0);
    double p99 = m.latencyPercentileMs(99.0);
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, m.latency_sketch.maxValue());
    EXPECT_GT(m.requestsPerSecond(), 0.0);
}

TEST(Scale, SketchMatchesExactWithinRankError)
{
    // Cap the exact (record-keeping) reference run: its memory is
    // O(n) by design, which is the very thing the streaming path
    // exists to avoid.
    int64_t n = std::min<int64_t>(scaleRequests(), 200000);
    serving::AnalyticCostModel cost;

    serving::TraceGenerator streaming_trace(
        serving::TraceShape::Poisson, scaleTrace(n));
    serving::FleetScheduler streaming(
        scaleFleet(serving::MetricsOptions::KeepRecords::Never),
        cost);
    serving::FleetResult sketched = streaming.run(streaming_trace);

    serving::FleetScheduler exact(
        scaleFleet(serving::MetricsOptions::KeepRecords::Always),
        cost);
    serving::FleetResult kept = exact.run(
        serving::poissonTrace(scaleTrace(n)));

    // Same simulation either way — only retention differs.
    ASSERT_EQ(kept.metrics.completed, sketched.metrics.completed);
    ASSERT_TRUE(kept.metrics.records_complete);
    EXPECT_EQ(kept.metrics.makespan_ms,
              sketched.metrics.makespan_ms);

    std::vector<double> latencies;
    latencies.reserve(kept.metrics.requests.size());
    for (const auto &r : kept.metrics.requests)
        latencies.push_back(r.latencyMs());
    std::sort(latencies.begin(), latencies.end());

    auto total = static_cast<double>(latencies.size());
    for (double p : {50.0, 90.0, 99.0, 99.9}) {
        double answer = sketched.metrics.latencyPercentileMs(p);
        // Rank error of the sketch answer vs the exact sample,
        // against the documented 2% contract (quantile_sketch.h).
        double target = std::max(
            std::ceil(p / 100.0 * total), 1.0);
        auto lo = std::lower_bound(latencies.begin(),
                                   latencies.end(), answer) -
                  latencies.begin();
        auto hi = std::upper_bound(latencies.begin(),
                                   latencies.end(), answer) -
                  latencies.begin();
        double err = 0.0;
        if (target < static_cast<double>(lo) + 1.0)
            err = static_cast<double>(lo) + 1.0 - target;
        else if (target > static_cast<double>(hi))
            err = target - static_cast<double>(hi);
        EXPECT_LE(err / total, 0.02) << "p=" << p << " n=" << n;
    }
}

} // namespace
