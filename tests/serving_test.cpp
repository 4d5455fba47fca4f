/** @file Deterministic scheduler test harness: seeded traces,
 *  unit tests for the queue / trace generators / metrics /
 *  bucketing, and step-by-step replay scripts asserting exact
 *  batch composition, admission decisions, and final metrics. All
 *  time is simulated — nothing here (or in src/serving/) reads a
 *  clock, so every assertion is bit-reproducible. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "models/bucketing.h"
#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/metrics.h"
#include "serving/queue.h"
#include "serving/replica.h"
#include "serving/trace.h"
#include "support/error.h"

using namespace streamtensor;
using serving::Request;

namespace {

/** Mirror of AnalyticCostModel's arithmetic (same operation
 *  order), so replay scripts can assert step times with
 *  EXPECT_DOUBLE_EQ. */
double
analyticStepMs(
    const std::vector<std::tuple<int64_t, int64_t, int64_t>>
        &groups,
    serving::AnalyticCostOptions o = {})
{
    double ms = 0.0;
    for (const auto &[seq_len, kv_len, count] : groups) {
        double per_seq = o.per_seq_ms +
                         o.per_query_token_ms *
                             static_cast<double>(seq_len) +
                         o.per_kv_token_ms *
                             static_cast<double>(kv_len);
        ms += o.trigger_ms +
              static_cast<double>(count) * per_seq;
    }
    return ms;
}

Request
makeRequest(int64_t id, double arrival_ms, int64_t input_len,
            int64_t output_len)
{
    Request r;
    r.id = id;
    r.arrival_ms = arrival_ms;
    r.input_len = input_len;
    r.output_len = output_len;
    return r;
}

serving::ReplicaOptions
recordingOptions(int64_t max_batch, int64_t kv_budget)
{
    serving::ReplicaOptions options;
    options.max_batch = max_batch;
    options.kv_budget_tokens = kv_budget;
    options.record_steps = true;
    return options;
}

/** KV tokens a step's batch holds: active pages × page_tokens, at
 *  the default page size every replay script here runs with. */
int64_t
kvTokens(const serving::StepRecord &s)
{
    return s.pages_active * serving::ReplicaOptions{}.page_tokens;
}

/** A fleet of one replica running @p options, with no faults. */
serving::FleetOptions
oneReplica(const serving::ReplicaOptions &options)
{
    serving::FleetOptions fleet;
    fleet.num_replicas = 1;
    fleet.replica = options;
    return fleet;
}

} // namespace

// ---------------------------------------------------------------
// RequestQueue
// ---------------------------------------------------------------

TEST(RequestQueue, FifoWithinOneClass)
{
    serving::RequestQueue q;
    q.push(makeRequest(3, 0.0, 8, 1));
    q.push(makeRequest(1, 1.0, 8, 1));
    q.push(makeRequest(2, 2.0, 8, 1));
    EXPECT_EQ(q.pop().req.id, 3);
    EXPECT_EQ(q.pop().req.id, 1);
    EXPECT_EQ(q.pop().req.id, 2);
    EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, CapacityBoundRefusesPush)
{
    serving::RequestQueue q(/*max_depth=*/2);
    EXPECT_TRUE(q.push(makeRequest(0, 0.0, 8, 1)));
    EXPECT_TRUE(q.push(makeRequest(1, 0.0, 8, 1)));
    EXPECT_FALSE(q.push(makeRequest(2, 0.0, 8, 1)));
    q.pop();
    EXPECT_TRUE(q.push(makeRequest(3, 0.0, 8, 1)));
    EXPECT_EQ(q.size(), 2);
}

TEST(RequestQueue, PushFrontExemptFromCapacityBound)
{
    // pushFront() carries preempted and failed-over work whose
    // admission was already paid for — it must succeed even when
    // the queue sits at capacity, and the overshoot must be
    // attributable to front inserts: size - max_depth <=
    // frontInserts() after every insert.
    serving::RequestQueue q(/*max_depth=*/2);
    EXPECT_TRUE(q.push(makeRequest(0, 0.0, 8, 1)));
    EXPECT_TRUE(q.push(makeRequest(1, 0.0, 8, 1)));
    EXPECT_FALSE(q.push(makeRequest(2, 0.0, 8, 1)));

    q.pushFront({makeRequest(9, 0.0, 8, 1), {}});
    EXPECT_EQ(q.size(), 3);
    EXPECT_EQ(q.frontInserts(), 1);
    q.pushFront({makeRequest(8, 0.0, 8, 1), {}});
    EXPECT_EQ(q.size(), 4);
    EXPECT_EQ(q.frontInserts(), 2);

    // Bounded push stays refused while over capacity; the exempt
    // entries drain ahead of the FIFO tail.
    EXPECT_FALSE(q.push(makeRequest(3, 0.0, 8, 1)));
    EXPECT_EQ(q.pop().req.id, 8);
    EXPECT_EQ(q.pop().req.id, 9);
    EXPECT_EQ(q.pop().req.id, 0);
    EXPECT_EQ(q.pop().req.id, 1);
    EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, TracksHighWaterDepth)
{
    serving::RequestQueue q;
    for (int64_t i = 0; i < 5; ++i)
        q.push(makeRequest(i, 0.0, 8, 1));
    q.pop();
    q.pop();
    EXPECT_EQ(q.size(), 3);
    EXPECT_EQ(q.maxDepth(), 5);
}

TEST(RequestQueue, EmptyAccessorsThrow)
{
    serving::RequestQueue q;
    EXPECT_THROW(q.front(), FatalError);
    EXPECT_THROW(q.pop(), FatalError);
}

// ---------------------------------------------------------------
// Trace generators
// ---------------------------------------------------------------

TEST(Trace, PoissonIsSeedDeterministic)
{
    serving::TraceOptions options;
    options.num_requests = 40;
    options.seed = 7;
    auto a = serving::poissonTrace(options);
    auto b = serving::poissonTrace(options);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_DOUBLE_EQ(a[i].arrival_ms, b[i].arrival_ms);
        EXPECT_EQ(a[i].input_len, b[i].input_len);
        EXPECT_EQ(a[i].output_len, b[i].output_len);
    }
}

TEST(Trace, SeedsProduceDistinctTraces)
{
    serving::TraceOptions options;
    options.num_requests = 16;
    options.seed = 1;
    auto a = serving::poissonTrace(options);
    options.seed = 2;
    auto b = serving::poissonTrace(options);
    bool any_diff = false;
    for (size_t i = 0; i < a.size(); ++i)
        any_diff |= a[i].arrival_ms != b[i].arrival_ms;
    EXPECT_TRUE(any_diff);
}

TEST(Trace, ArrivalsSortedAndLengthsBounded)
{
    serving::TraceOptions options;
    options.num_requests = 64;
    options.seed = 11;
    for (auto trace : {serving::poissonTrace(options),
                       serving::burstyTrace(options)}) {
        ASSERT_EQ(trace.size(), 64u);
        for (size_t i = 0; i < trace.size(); ++i) {
            const auto &r = trace[i];
            EXPECT_EQ(r.id, static_cast<int64_t>(i));
            if (i > 0) {
                EXPECT_GE(r.arrival_ms, trace[i - 1].arrival_ms);
            }
            EXPECT_GE(r.input_len, options.min_input_len);
            EXPECT_LE(r.input_len, options.max_input_len);
            EXPECT_GE(r.output_len, options.min_output_len);
            EXPECT_LE(r.output_len, options.max_output_len);
        }
    }
}

TEST(Trace, BurstyHasHigherInterarrivalVariance)
{
    serving::TraceOptions options;
    options.num_requests = 512;
    options.seed = 3;
    options.burst_factor = 16.0;
    auto cv = [](const std::vector<Request> &trace) {
        std::vector<double> gaps;
        for (size_t i = 1; i < trace.size(); ++i)
            gaps.push_back(trace[i].arrival_ms -
                           trace[i - 1].arrival_ms);
        double mean = 0.0, var = 0.0;
        for (double g : gaps)
            mean += g;
        mean /= gaps.size();
        for (double g : gaps)
            var += (g - mean) * (g - mean);
        var /= gaps.size();
        return std::sqrt(var) / mean;
    };
    EXPECT_GT(cv(serving::burstyTrace(options)),
              cv(serving::poissonTrace(options)));
}

TEST(Trace, RejectsMalformedOptions)
{
    serving::TraceOptions options;
    options.num_requests = 0;
    EXPECT_THROW(serving::poissonTrace(options), FatalError);
    options.num_requests = 4;
    options.min_input_len = 10;
    options.max_input_len = 5;
    EXPECT_THROW(serving::poissonTrace(options), FatalError);
    options = {};
    options.burst_duty = 1.5;
    EXPECT_THROW(serving::burstyTrace(options), FatalError);

    // Non-finite doubles never pass the domain checks.
    const double inf = std::numeric_limits<double>::infinity();
    options = {};
    options.mean_interarrival_ms = inf;
    EXPECT_THROW(serving::poissonTrace(options), FatalError);
    options = {};
    options.deadline_slack_ms = inf;
    EXPECT_THROW(serving::poissonTrace(options), FatalError);
    options = {};
    options.burst_period_ms = inf;
    EXPECT_THROW(serving::burstyTrace(options), FatalError);
    options = {};
    options.burst_factor = inf;
    EXPECT_THROW(serving::burstyTrace(options), FatalError);
}

TEST(Trace, RejectsLengthsThatOverflow)
{
    // Adding the shared prefix to a drawn input length used to
    // overflow int64_t inside the generator.
    const int64_t max = std::numeric_limits<int64_t>::max();
    serving::TraceOptions options;
    options.min_input_len = max - 2;
    options.max_input_len = max - 1;
    options.num_prefix_groups = 2;
    options.shared_prefix_len = 16;
    EXPECT_THROW(serving::poissonTrace(options), FatalError);
    EXPECT_THROW(
        serving::TraceGenerator(serving::TraceShape::Bursty, options),
        FatalError);
    // Without a prefix the output length alone still overflows.
    options.num_prefix_groups = 0;
    options.shared_prefix_len = 0;
    EXPECT_THROW(serving::poissonTrace(options), FatalError);
    // The largest lengths that fit are accepted.
    options.min_input_len = 1;
    options.max_input_len = max - 16 - options.max_output_len;
    options.num_prefix_groups = 2;
    options.shared_prefix_len = 16;
    EXPECT_EQ(serving::poissonTrace(options).size(),
              static_cast<size_t>(options.num_requests));
}

// ---------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------

TEST(Metrics, NearestRankPercentile)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(*serving::percentile(v, 50.0), 50.0);
    EXPECT_DOUBLE_EQ(*serving::percentile(v, 95.0), 95.0);
    EXPECT_DOUBLE_EQ(*serving::percentile(v, 99.0), 99.0);
    EXPECT_DOUBLE_EQ(*serving::percentile(v, 100.0), 100.0);
    EXPECT_DOUBLE_EQ(*serving::percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(*serving::percentile({3.0, 1.0, 2.0}, 50.0),
                     2.0);
    EXPECT_THROW(serving::percentile(v, 101.0), FatalError);
}

TEST(Metrics, PercentileEmptyWindowIsEmptyOptional)
{
    // An empty sample has no percentile — nullopt, not a silent
    // 0.0 that reads like a measured latency.
    EXPECT_FALSE(serving::percentile({}, 50.0).has_value());
    EXPECT_FALSE(serving::percentile({}, 95.0).has_value());
    EXPECT_FALSE(serving::percentile({}, 99.0).has_value());
    EXPECT_FALSE(serving::percentile({}, 0.0).has_value());
    EXPECT_FALSE(serving::percentile({}, 100.0).has_value());
}

TEST(Metrics, PercentileSingleSampleIsThatSample)
{
    // Every rank of a one-element window is the element.
    for (double p : {0.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(*serving::percentile({7.5}, p), 7.5);
}

TEST(Metrics, EmptyRunPercentileAccessorsAreNaN)
{
    // The ServingMetrics accessors document NaN as their explicit
    // empty-window sentinel (satellite of the std::optional
    // percentile change).
    serving::ServingMetrics metrics;
    EXPECT_TRUE(std::isnan(metrics.ttftP95Ms()));
    EXPECT_TRUE(std::isnan(metrics.latencyPercentileMs(50.0)));
    EXPECT_TRUE(std::isnan(metrics.latencyPercentileMs(99.0)));
}

TEST(Metrics, RequestDerivedQuantities)
{
    serving::RequestMetrics r;
    r.arrival_ms = 10.0;
    r.first_token_ms = 30.0;
    r.finish_ms = 70.0;
    r.output_len = 5;
    EXPECT_DOUBLE_EQ(r.ttftMs(), 20.0);
    EXPECT_DOUBLE_EQ(r.latencyMs(), 60.0);
    EXPECT_DOUBLE_EQ(r.tbtMs(), 10.0);
    r.output_len = 1;
    EXPECT_DOUBLE_EQ(r.tbtMs(), 0.0);
}

// ---------------------------------------------------------------
// Replay scripts: exact step-by-step schedules.
// ---------------------------------------------------------------

TEST(SchedulerReplay, ContinuousBatchingScript)
{
    // R0, R1 arrive together and batch; R2 arrives mid-step and
    // joins as soon as a slot frees (continuous batching).
    serving::AnalyticCostModel cost;
    serving::FleetScheduler scheduler(
        oneReplica(recordingOptions(2, 4096)), cost);
    auto result = scheduler.run({
        makeRequest(0, 0.0, 10, 2),
        makeRequest(1, 0.0, 20, 2),
        makeRequest(2, 1.0, 10, 1),
    });

    ASSERT_EQ(result.replicas[0].steps.size(), 3u);
    EXPECT_FALSE(result.hit_step_limit);
    EXPECT_TRUE(result.rejected.empty());

    // Step 1: both prefill. Buckets: 10+2 -> 16, 20+2 -> 32.
    const auto &s0 = result.replicas[0].steps[0];
    EXPECT_DOUBLE_EQ(s0.start_ms, 0.0);
    EXPECT_EQ(s0.prefill_ids, (std::vector<int64_t>{0, 1}));
    EXPECT_TRUE(s0.decode_ids.empty());
    EXPECT_EQ(kvTokens(s0), 16 + 32);
    EXPECT_EQ(s0.queue_depth, 0);
    double step1 = analyticStepMs({{16, 16, 1}, {32, 32, 1}});
    EXPECT_DOUBLE_EQ(s0.step_ms, step1);

    // Step 2: both decode (contexts 12 and 22 -> kv buckets 16 and
    // 32); R2 arrived at 1.0 and waits (batch full).
    const auto &s1 = result.replicas[0].steps[1];
    EXPECT_DOUBLE_EQ(s1.start_ms, step1);
    EXPECT_TRUE(s1.prefill_ids.empty());
    EXPECT_EQ(s1.decode_ids, (std::vector<int64_t>{0, 1}));
    EXPECT_EQ(s1.queue_depth, 1);
    double step2 = analyticStepMs({{1, 16, 1}, {1, 32, 1}});
    EXPECT_DOUBLE_EQ(s1.step_ms, step2);

    // Step 3: R0/R1 finished; R2 prefills alone and, with
    // output_len 1, completes at its prefill.
    const auto &s2 = result.replicas[0].steps[2];
    EXPECT_DOUBLE_EQ(s2.start_ms, step1 + step2);
    EXPECT_EQ(s2.prefill_ids, (std::vector<int64_t>{2}));
    EXPECT_TRUE(s2.decode_ids.empty());
    EXPECT_EQ(kvTokens(s2), 16);
    double step3 = analyticStepMs({{16, 16, 1}});
    EXPECT_DOUBLE_EQ(s2.step_ms, step3);

    // Final metrics, exactly.
    const auto &m = result.metrics;
    EXPECT_EQ(m.completed, 3);
    EXPECT_EQ(m.steps, 3);
    EXPECT_EQ(m.total_output_tokens, 5);
    EXPECT_EQ(m.total_batched_seqs, 5);
    EXPECT_EQ(m.max_queue_depth, 2);
    EXPECT_DOUBLE_EQ(m.makespan_ms, step1 + step2 + step3);
    EXPECT_DOUBLE_EQ(m.busy_ms, m.makespan_ms);
    EXPECT_DOUBLE_EQ(m.utilization(), 1.0);

    ASSERT_EQ(m.requests.size(), 3u);
    EXPECT_EQ(m.requests[0].id, 0);
    EXPECT_EQ(m.requests[1].id, 1);
    EXPECT_EQ(m.requests[2].id, 2);
    EXPECT_DOUBLE_EQ(m.requests[0].first_token_ms, step1);
    EXPECT_DOUBLE_EQ(m.requests[0].finish_ms, step1 + step2);
    EXPECT_DOUBLE_EQ(m.requests[2].ttftMs(),
                     step1 + step2 + step3 - 1.0);
}

TEST(SchedulerReplay, KvBudgetHeadOfLineAdmission)
{
    // Budget 32: R0 (reserve 16) runs alone because head R1 needs
    // the full budget; R2 (reserve 16) must not jump the blocked
    // head — strict FIFO admission.
    serving::AnalyticCostModel cost;
    serving::FleetScheduler scheduler(
        oneReplica(recordingOptions(4, 32)), cost);
    auto result = scheduler.run({
        makeRequest(0, 0.0, 10, 2), // bucket(12)  = 16
        makeRequest(1, 0.0, 20, 4), // bucket(24)  = 32
        makeRequest(2, 0.0, 5, 3),  // bucket(8)   = 16
    });

    EXPECT_TRUE(result.rejected.empty());
    ASSERT_GE(result.replicas[0].steps.size(), 3u);

    // R0 prefills alone; both others queued behind the blocked
    // head.
    EXPECT_EQ(result.replicas[0].steps[0].prefill_ids,
              (std::vector<int64_t>{0}));
    EXPECT_EQ(result.replicas[0].steps[0].queue_depth, 2);
    EXPECT_EQ(kvTokens(result.replicas[0].steps[0]), 16);

    // R0 decodes alone (R1 still does not fit: 16 + 32 > 32).
    EXPECT_EQ(result.replicas[0].steps[1].decode_ids,
              (std::vector<int64_t>{0}));
    EXPECT_TRUE(result.replicas[0].steps[1].prefill_ids.empty());

    // R0 retired; R1 admitted alone (32 fills the budget).
    EXPECT_EQ(result.replicas[0].steps[2].prefill_ids,
              (std::vector<int64_t>{1}));
    EXPECT_EQ(kvTokens(result.replicas[0].steps[2]), 32);

    // R2 only enters once R1 has fully finished.
    for (const auto &s : result.replicas[0].steps) {
        EXPECT_LE(kvTokens(s), 32);
        bool has1 = false, has2 = false;
        for (int64_t id : s.prefill_ids) {
            has1 |= id == 1;
            has2 |= id == 2;
        }
        for (int64_t id : s.decode_ids) {
            has1 |= id == 1;
            has2 |= id == 2;
        }
        EXPECT_FALSE(has1 && has2);
    }
    EXPECT_EQ(result.metrics.completed, 3);
}

TEST(SchedulerReplay, QueueFullRejectsArrivals)
{
    serving::AnalyticCostModel cost;
    serving::ReplicaOptions options = recordingOptions(1, 4096);
    options.max_queue_depth = 1;
    serving::FleetScheduler scheduler(oneReplica(options), cost);
    auto result = scheduler.run({
        makeRequest(0, 0.0, 8, 1),
        makeRequest(1, 0.0, 8, 1),
        makeRequest(2, 0.0, 8, 1),
    });
    ASSERT_EQ(result.rejected.size(), 2u);
    EXPECT_EQ(result.rejected[0].id, 1);
    EXPECT_EQ(result.rejected[1].id, 2);
    for (const auto &r : result.rejected)
        EXPECT_EQ(r.reason, serving::RejectReason::QueueFull);
    EXPECT_EQ(result.metrics.completed, 1);
    EXPECT_EQ(result.metrics.rejected_queue_full, 2);
    EXPECT_EQ(result.metrics.rejected_too_long, 0);
}

TEST(SchedulerReplay, MidStepDeadlineFreesQueueSlot)
{
    // The loop wakes at every arrival instant, not only at step
    // boundaries (the event loop in fleet.h). Unit step
    // cost, max_batch = 1 and a one-slot queue: R0 runs steps
    // [0,1) .. [3,4); R1 arrives at 0.5 and holds the queue slot
    // with a deadline of 1.2. R2 arrives mid-step at 1.5 and is too
    // long to ever serve; its arrival instant also sweeps R1's
    // expired deadline, so R3, arriving at 1.7 before the step
    // ends at 2, finds the slot free and is queued — not
    // rejected QueueFull at the step boundary.
    serving::AnalyticCostOptions unit;
    unit.trigger_ms = 0.0;
    unit.per_seq_ms = 1.0;
    unit.per_query_token_ms = 0.0;
    unit.per_kv_token_ms = 0.0;
    serving::AnalyticCostModel cost(unit);

    serving::ReplicaOptions options = recordingOptions(1, 4096);
    options.max_queue_depth = 1;

    Request r0 = makeRequest(0, 0.0, 8, 4);
    Request r1 = makeRequest(1, 0.5, 8, 2);
    r1.deadline_ms = 1.2;
    Request r2 = makeRequest(2, 1.5, 900, 200); // beyond the ladder
    Request r3 = makeRequest(3, 1.7, 8, 1);

    serving::FleetScheduler scheduler(oneReplica(options), cost);
    auto result = scheduler.run({r0, r1, r2, r3});

    const auto &m = result.metrics;
    EXPECT_EQ(m.rejected_queue_full, 0);
    EXPECT_EQ(m.rejected_too_long, 1);
    EXPECT_EQ(m.expired_deadline, 1);
    EXPECT_EQ(m.completed, 2);
    EXPECT_EQ(m.steps, 5);
    EXPECT_DOUBLE_EQ(m.makespan_ms, 5.0);

    // Both rejections are stamped at R2's arrival instant, in
    // (at_ms, id) order.
    ASSERT_EQ(result.rejected.size(), 2u);
    EXPECT_EQ(result.rejected[0].id, 1);
    EXPECT_EQ(result.rejected[0].reason,
              serving::RejectReason::DeadlineExpired);
    EXPECT_DOUBLE_EQ(result.rejected[0].at_ms, 1.5);
    EXPECT_EQ(result.rejected[1].id, 2);
    EXPECT_EQ(result.rejected[1].reason,
              serving::RejectReason::TooLong);
    EXPECT_DOUBLE_EQ(result.rejected[1].at_ms, 1.5);

    // R3 waited in the freed slot and ran once R0 retired.
    ASSERT_EQ(result.replicas[0].steps.size(), 5u);
    EXPECT_EQ(result.replicas[0].steps[4].prefill_ids,
              (std::vector<int64_t>{3}));
    EXPECT_DOUBLE_EQ(result.replicas[0].steps[4].start_ms, 4.0);
}

TEST(SchedulerReplay, OversizedRequestsRejectedUpFront)
{
    serving::AnalyticCostModel cost;
    // Budget 64 tokens: a 50+50 request buckets to 128 and can
    // never be admitted; a 900+200 one exceeds the bucket ladder.
    serving::FleetScheduler scheduler(
        oneReplica(recordingOptions(4, 64)), cost);
    auto result = scheduler.run({
        makeRequest(0, 0.0, 10, 2),
        makeRequest(1, 0.0, 50, 50),
        makeRequest(2, 0.0, 900, 200),
    });
    ASSERT_EQ(result.rejected.size(), 2u);
    EXPECT_EQ(result.rejected[0].id, 1);
    EXPECT_EQ(result.rejected[0].reason,
              serving::RejectReason::TooLong);
    EXPECT_EQ(result.rejected[1].id, 2);
    EXPECT_EQ(result.rejected[1].reason,
              serving::RejectReason::TooLong);
    EXPECT_EQ(result.metrics.completed, 1);
    EXPECT_EQ(result.metrics.rejected_too_long, 2);
}

TEST(SchedulerReplay, IdleGapJumpsToNextArrival)
{
    serving::AnalyticCostModel cost;
    serving::FleetScheduler scheduler(
        oneReplica(recordingOptions(2, 4096)), cost);
    auto result = scheduler.run({
        makeRequest(0, 100.0, 8, 1),
    });
    ASSERT_EQ(result.replicas[0].steps.size(), 1u);
    EXPECT_DOUBLE_EQ(result.replicas[0].steps[0].start_ms, 100.0);
    double step = analyticStepMs({{16, 16, 1}});
    EXPECT_DOUBLE_EQ(result.metrics.makespan_ms, 100.0 + step);
    EXPECT_DOUBLE_EQ(result.metrics.busy_ms, step);
    EXPECT_LT(result.metrics.utilization(), 1.0);
    // Mirror the accumulation (100 + step) - 100 so the equality
    // is exact in floating point.
    EXPECT_DOUBLE_EQ(result.metrics.requests[0].ttftMs(),
                     (100.0 + step) - 100.0);
}

TEST(SchedulerReplay, UnsortedTraceIsServedInArrivalOrder)
{
    serving::AnalyticCostModel cost;
    serving::FleetScheduler a(
        oneReplica(recordingOptions(1, 4096)), cost);
    serving::FleetScheduler b(
        oneReplica(recordingOptions(1, 4096)), cost);
    std::vector<Request> sorted = {
        makeRequest(0, 0.0, 8, 1),
        makeRequest(1, 5.0, 8, 1),
        makeRequest(2, 9.0, 8, 1),
    };
    std::vector<Request> shuffled = {sorted[2], sorted[0],
                                     sorted[1]};
    auto ra = a.run(sorted).replicas[0].steps;
    auto rb = b.run(shuffled).replicas[0].steps;
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].prefill_ids, rb[i].prefill_ids);
        EXPECT_DOUBLE_EQ(ra[i].start_ms, rb[i].start_ms);
    }
}

TEST(SchedulerReplay, SeededTraceReplaysBitIdentically)
{
    serving::TraceOptions trace_options;
    trace_options.num_requests = 48;
    trace_options.seed = 42;
    trace_options.mean_interarrival_ms = 3.0;
    auto trace = serving::burstyTrace(trace_options);

    auto runOnce = [&] {
        serving::AnalyticCostModel cost;
        serving::ReplicaOptions options =
            recordingOptions(4, 1024);
        serving::FleetScheduler scheduler(oneReplica(options), cost);
        return scheduler.run(trace);
    };
    auto a = runOnce();
    auto b = runOnce();

    const auto &sa = a.replicas[0].steps;
    const auto &sb = b.replicas[0].steps;
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].prefill_ids, sb[i].prefill_ids);
        EXPECT_EQ(sa[i].decode_ids, sb[i].decode_ids);
        EXPECT_DOUBLE_EQ(sa[i].start_ms, sb[i].start_ms);
        EXPECT_DOUBLE_EQ(sa[i].step_ms, sb[i].step_ms);
        EXPECT_EQ(kvTokens(sa[i]), kvTokens(sb[i]));
    }
    EXPECT_DOUBLE_EQ(a.metrics.makespan_ms, b.metrics.makespan_ms);
    EXPECT_DOUBLE_EQ(a.metrics.latencyPercentileMs(99.0),
                     b.metrics.latencyPercentileMs(99.0));
    EXPECT_DOUBLE_EQ(a.metrics.ttftMeanMs(), b.metrics.ttftMeanMs());
    EXPECT_EQ(a.metrics.completed, b.metrics.completed);
}

TEST(SchedulerReplay, BatchingBeatsSerialServingOnMakespan)
{
    // The whole point of continuous batching: same trace, larger
    // max_batch, strictly earlier completion.
    serving::TraceOptions trace_options;
    trace_options.num_requests = 32;
    trace_options.seed = 5;
    trace_options.mean_interarrival_ms = 1.0;
    auto trace = serving::poissonTrace(trace_options);

    auto makespan = [&](int64_t max_batch) {
        serving::AnalyticCostModel cost;
        serving::ReplicaOptions options;
        options.max_batch = max_batch;
        options.kv_budget_tokens = 1 << 20;
        serving::FleetScheduler scheduler(oneReplica(options), cost);
        return scheduler.run(trace).metrics.makespan_ms;
    };
    double serial = makespan(1);
    double batched = makespan(8);
    EXPECT_LT(batched, serial);
}

TEST(Scheduler, RejectsMalformedTracesAndOptions)
{
    serving::AnalyticCostModel cost;
    serving::FleetScheduler scheduler(
        oneReplica(recordingOptions(2, 4096)), cost);
    EXPECT_THROW(scheduler.run({makeRequest(0, 0.0, 0, 1)}),
                 FatalError);
    EXPECT_THROW(scheduler.run({makeRequest(0, -1.0, 8, 1)}),
                 FatalError);
    EXPECT_THROW(scheduler.run({makeRequest(0, 0.0, 8, 1),
                                makeRequest(0, 1.0, 8, 1)}),
                 FatalError);
    serving::ReplicaOptions bad;
    bad.max_batch = 0;
    EXPECT_THROW(serving::FleetScheduler(oneReplica(bad), cost), FatalError);

    // Non-finite instants: +inf used to pass the >= 0 checks and
    // serve the request at t = inf (makespan inf).
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(scheduler.run({makeRequest(1, 0.0, 8, 1),
                                makeRequest(2, inf, 8, 1)}),
                 FatalError);
    EXPECT_THROW(scheduler.run({makeRequest(0, std::nan(""), 8, 1)}),
                 FatalError);
    Request endless = makeRequest(0, 0.0, 8, 1);
    endless.deadline_ms = inf;
    EXPECT_THROW(scheduler.run({endless}), FatalError);
}

TEST(Scheduler, RejectsBadPageGeometryInEveryEntryPoint)
{
    // The page checks run before the pool is sized from
    // kv_budget_tokens / page_tokens, so a zero page size throws
    // instead of dividing by zero — also when a ReplicaEngine is
    // built directly, without a fleet validating first.
    serving::AnalyticCostModel cost;
    serving::ReplicaOptions zero_page = recordingOptions(2, 4096);
    zero_page.page_tokens = 0;
    serving::ReplicaOptions sub_page = recordingOptions(2, 8);
    for (const auto &bad : {zero_page, sub_page}) {
        EXPECT_THROW(serving::ReplicaEngine(bad, cost), FatalError);
        serving::FleetOptions fleet;
        fleet.replica = bad;
        EXPECT_THROW(serving::FleetScheduler(fleet, cost),
                     FatalError);
    }
}

TEST(Scheduler, HostileBucketPolicyIsFatal)
{
    // The bucket ladder is built when the engine or fleet is
    // constructed, so a malformed or over-long policy throws there
    // instead of at the first step (or, for an over-long one,
    // allocating millions of rungs).
    serving::AnalyticCostModel cost;
    serving::ReplicaOptions shrinking = recordingOptions(2, 4096);
    shrinking.buckets.growth_num = 1;
    serving::ReplicaOptions endless = recordingOptions(2, 4096);
    endless.buckets.min_len = 1;
    endless.buckets.growth_den = int64_t{1} << 40;
    endless.buckets.growth_num = endless.buckets.growth_den + 1;
    endless.buckets.align = 1;
    endless.buckets.max_len = int64_t{1} << 40;
    for (const auto &bad : {shrinking, endless}) {
        EXPECT_THROW(serving::ReplicaEngine(bad, cost), FatalError);
        EXPECT_THROW(serving::FleetScheduler(oneReplica(bad), cost),
                     FatalError);
    }

    // A ratio whose product overflowed int64_t saturates at
    // max_len: the fleet builds and serves.
    serving::ReplicaOptions huge = recordingOptions(2, 4096);
    huge.buckets.growth_num = std::numeric_limits<int64_t>::max() / 4;
    huge.buckets.growth_den = 1;
    huge.buckets.max_len = std::numeric_limits<int64_t>::max() / 2;
    serving::FleetScheduler scheduler(oneReplica(huge), cost);
    auto result = scheduler.run({makeRequest(0, 0.0, 8, 2)});
    EXPECT_EQ(result.metrics.completed, 1);
}

TEST(Scheduler, KvPoolBeyondInt32PagesIsRejected)
{
    // KvPool ids its pages by int32_t; a budget with more pages
    // is refused before the pool is sized.
    serving::AnalyticCostModel cost;
    serving::ReplicaOptions huge = recordingOptions(2, 4096);
    huge.page_tokens = 1;
    huge.kv_budget_tokens =
        int64_t{std::numeric_limits<int32_t>::max()} + 1;
    EXPECT_THROW(serving::ReplicaEngine(huge, cost), FatalError);
    EXPECT_THROW(serving::FleetScheduler(oneReplica(huge), cost),
                 FatalError);
}

TEST(Scheduler, HugeContextIsRejectedTooLong)
{
    // input_len + output_len - 1 overflows int64_t here; the
    // servability check must still answer TooLong.
    serving::AnalyticCostModel cost;
    serving::FleetScheduler scheduler(
        oneReplica(recordingOptions(2, 4096)), cost);
    auto result = scheduler.run(
        {makeRequest(0, 0.0, std::numeric_limits<int64_t>::max(), 2),
         makeRequest(1, 0.0, 8, std::numeric_limits<int64_t>::max())});
    ASSERT_EQ(result.rejected.size(), 2u);
    for (const auto &r : result.rejected)
        EXPECT_EQ(r.reason, serving::RejectReason::TooLong);
    EXPECT_EQ(result.metrics.rejected_too_long, 2);
    EXPECT_EQ(result.metrics.completed, 0);
}

TEST(Scheduler, EmptyTraceYieldsEmptyMetrics)
{
    serving::AnalyticCostModel cost;
    serving::FleetScheduler scheduler(
        oneReplica(recordingOptions(2, 4096)), cost);
    auto result = scheduler.run({});
    EXPECT_EQ(result.metrics.completed, 0);
    EXPECT_EQ(result.metrics.steps, 0);
    EXPECT_DOUBLE_EQ(result.metrics.makespan_ms, 0.0);
    EXPECT_DOUBLE_EQ(result.metrics.requestsPerSecond(), 0.0);
    EXPECT_DOUBLE_EQ(result.metrics.utilization(), 0.0);
}

// ---------------------------------------------------------------
// Paged KV admission: preemption and prefix sharing, scripted.
// ---------------------------------------------------------------

namespace {

Request
makePrefixRequest(int64_t id, double arrival_ms, int64_t input_len,
                  int64_t output_len, int64_t prefix_id,
                  int64_t prefix_len)
{
    Request r = makeRequest(id, arrival_ms, input_len, output_len);
    r.prefix_id = prefix_id;
    r.prefix_len = prefix_len;
    return r;
}

} // namespace

TEST(SchedulerReplay, PagedPreemptionScript)
{
    // Pool of 4 pages (budget 64, page 16). Two identical
    // sequences (input 30, output 4) hold 2 pages each until
    // their 4th step's context (33 tokens) needs a 3rd page:
    // the most recently admitted (R1) is preempted back to the
    // queue, R0 finishes, and R1 readmits with a recompute
    // prefill over its full 33-token context that emits its final
    // token — same token count, preemption cost paid in time.
    serving::AnalyticCostModel cost;
    serving::FleetScheduler scheduler(
        oneReplica(recordingOptions(2, 64)), cost);
    auto result = scheduler.run({
        makeRequest(0, 0.0, 30, 4),
        makeRequest(1, 0.0, 30, 4),
    });

    ASSERT_EQ(result.replicas[0].steps.size(), 5u);
    EXPECT_TRUE(result.rejected.empty());

    // Steps 1-3: both resident, 2 pages each (contexts 30..32).
    EXPECT_EQ(result.replicas[0].steps[0].prefill_ids,
              (std::vector<int64_t>{0, 1}));
    EXPECT_EQ(result.replicas[0].steps[0].pages_active, 4);
    EXPECT_EQ(kvTokens(result.replicas[0].steps[0]), 64);
    double s0 = analyticStepMs({{32, 32, 2}});
    EXPECT_DOUBLE_EQ(result.replicas[0].steps[0].step_ms, s0);
    double s1 = analyticStepMs({{1, 32, 2}});
    for (size_t i : {1u, 2u}) {
        EXPECT_EQ(result.replicas[0].steps[i].decode_ids,
                  (std::vector<int64_t>{0, 1}));
        EXPECT_TRUE(result.replicas[0].steps[i].preempted_ids.empty());
        EXPECT_DOUBLE_EQ(result.replicas[0].steps[i].step_ms, s1);
    }

    // Step 4: R0's growth to 3 pages evicts R1 (most recently
    // admitted); R1 is not readmitted in the same iteration.
    const auto &s3 = result.replicas[0].steps[3];
    EXPECT_EQ(s3.preempted_ids, (std::vector<int64_t>{1}));
    EXPECT_EQ(s3.decode_ids, (std::vector<int64_t>{0}));
    EXPECT_TRUE(s3.prefill_ids.empty());
    EXPECT_EQ(s3.pages_active, 3);
    EXPECT_EQ(s3.pages_free, 1);
    double s3ms = analyticStepMs({{1, 48, 1}});
    EXPECT_DOUBLE_EQ(s3.step_ms, s3ms);

    // Step 5: R1 readmits and recomputes — a prefill-shaped pass
    // over input + 3 generated = 33 tokens (bucket 48) that also
    // emits its last token.
    const auto &s4 = result.replicas[0].steps[4];
    EXPECT_EQ(s4.prefill_ids, (std::vector<int64_t>{1}));
    EXPECT_TRUE(s4.decode_ids.empty());
    EXPECT_EQ(s4.pages_active, 3);
    double s4ms = analyticStepMs({{48, 48, 1}});
    EXPECT_DOUBLE_EQ(s4.step_ms, s4ms);

    const auto &m = result.metrics;
    EXPECT_EQ(m.completed, 2);
    EXPECT_EQ(m.preemptions, 1);
    EXPECT_EQ(m.total_output_tokens, 8);
    ASSERT_EQ(m.requests.size(), 2u);
    EXPECT_EQ(m.requests[0].id, 0);
    EXPECT_EQ(m.requests[0].preemptions, 0);
    EXPECT_EQ(m.requests[1].id, 1);
    EXPECT_EQ(m.requests[1].preemptions, 1);
    // Preemption never resets the first token: R1's TTFT is still
    // the end of the shared prefill step.
    EXPECT_DOUBLE_EQ(m.requests[1].first_token_ms, s0);
    EXPECT_DOUBLE_EQ(m.requests[1].finish_ms,
                     m.makespan_ms);
    EXPECT_EQ(m.peak_pages_active, 4);
}

// ---------------------------------------------------------------
// What the engine hands the step-cost oracle.
// ---------------------------------------------------------------

namespace {

/** Analytic costs, plus a copy of every group list the engine
 *  hands the oracle. */
class RecordingCostModel : public serving::StepCostModel
{
  public:
    double
    stepMs(const std::vector<runtime::StepGroup> &groups) override
    {
        calls.push_back(groups);
        return analytic_.stepMs(groups);
    }

    std::vector<std::vector<runtime::StepGroup>> calls;

  private:
    serving::AnalyticCostModel analytic_;
};

bool
sameGroups(const std::vector<runtime::StepGroup> &a,
           const std::vector<runtime::StepGroup> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const runtime::StepGroup &x,
                         const runtime::StepGroup &y) {
                          return x.count == y.count &&
                                 x.shapes == y.shapes;
                      });
}

/** Each step's groups, rebuilt from its record: a request that ran
 *  g steps before attends over input_len + g tokens, in a
 *  prefill-shaped pass when it is in prefill_ids and a decode pass
 *  otherwise; groups ascend by shapes. */
std::vector<std::vector<runtime::StepGroup>>
groupsFromRecords(const std::vector<Request> &trace,
                  const std::vector<serving::StepRecord> &steps,
                  const models::BucketPolicy &policy)
{
    std::map<int64_t, const Request *> by_id;
    for (const Request &r : trace)
        by_id[r.id] = &r;
    std::map<int64_t, int64_t> ran;
    std::vector<std::vector<runtime::StepGroup>> out;
    for (const auto &step : steps) {
        std::vector<runtime::StepGroup> groups;
        auto add = [&](int64_t id, bool prefill) {
            const Request &r = *by_id.at(id);
            int64_t bucket =
                models::bucketLen(r.input_len + ran[id]++, policy);
            models::BlockShapes shapes =
                prefill ? models::prefillShapes(bucket)
                        : models::decodeShapes(bucket);
            auto pos = std::find_if(
                groups.begin(), groups.end(),
                [&](const runtime::StepGroup &g) {
                    return !(g.shapes < shapes);
                });
            if (pos != groups.end() && pos->shapes == shapes)
                ++pos->count;
            else
                groups.insert(pos, {shapes, 1});
        };
        for (int64_t id : step.prefill_ids)
            add(id, true);
        for (int64_t id : step.decode_ids)
            add(id, false);
        out.push_back(std::move(groups));
    }
    return out;
}

/** The oracle's calls are the per-step groups rebuilt from the
 *  records with consecutive repeats removed — a step repeating the
 *  previous step's groups reuses its cost. Stores, for each step,
 *  the index of the call that costed it in @p call_of_step. Each
 *  call's shapes strictly ascend (hence are distinct) and its
 *  counts sum to the batch of every step it costed. */
void
expectOracleCalls(const RecordingCostModel &cost,
                  const std::vector<Request> &trace,
                  const std::vector<serving::StepRecord> &steps,
                  std::vector<size_t> *call_of_step)
{
    const auto per_step =
        groupsFromRecords(trace, steps, models::BucketPolicy{});
    call_of_step->clear();
    size_t calls = 0;
    for (size_t i = 0; i < per_step.size(); ++i) {
        if (i == 0 || !sameGroups(per_step[i], per_step[i - 1]))
            ++calls;
        call_of_step->push_back(calls - 1);
    }
    ASSERT_EQ(cost.calls.size(), calls);
    for (size_t i = 0; i < steps.size(); ++i) {
        const auto &groups = cost.calls[(*call_of_step)[i]];
        EXPECT_TRUE(sameGroups(groups, per_step[i])) << "step " << i;
        ASSERT_FALSE(groups.empty()) << "step " << i;
        int64_t seqs = 0;
        for (size_t g = 0; g < groups.size(); ++g) {
            EXPECT_GE(groups[g].count, 1) << "step " << i;
            seqs += groups[g].count;
            if (g > 0) {
                EXPECT_TRUE(groups[g - 1].shapes < groups[g].shapes)
                    << "step " << i << " group " << g;
            }
        }
        EXPECT_EQ(seqs,
                  static_cast<int64_t>(steps[i].prefill_ids.size() +
                                       steps[i].decode_ids.size()))
            << "step " << i;
    }
}

} // namespace

TEST(SchedulerReplay, OracleSeesSortedGroupsInMixedBatches)
{
    serving::TraceOptions trace_options;
    trace_options.num_requests = 64;
    trace_options.seed = 5;
    trace_options.mean_interarrival_ms = 2.0;
    RecordingCostModel cost;
    serving::FleetScheduler scheduler(
        oneReplica(recordingOptions(8, 4096)), cost);
    const auto trace = serving::burstyTrace(trace_options);
    auto result = scheduler.run(trace);
    const auto &steps = result.replicas[0].steps;
    std::vector<size_t> call_of;
    ASSERT_NO_FATAL_FAILURE(
        expectOracleCalls(cost, trace, steps, &call_of));

    // The trace really mixes: some step carries prefills and
    // decodes together, and some group merges several sequences.
    bool mixed = false;
    bool merged = false;
    for (size_t i = 0; i < steps.size(); ++i) {
        mixed = mixed || (!steps[i].prefill_ids.empty() &&
                          !steps[i].decode_ids.empty());
        for (const auto &g : cost.calls[call_of[i]])
            merged = merged || g.count > 1;
    }
    EXPECT_TRUE(mixed);
    EXPECT_TRUE(merged);
}

TEST(SchedulerReplay, OracleSeesSortedGroupsAfterPreemption)
{
    // The PagedPreemptionScript trace: step 4 preempts R1, and
    // step 5 readmits it for a recompute prefill.
    RecordingCostModel cost;
    serving::FleetScheduler scheduler(
        oneReplica(recordingOptions(2, 64)), cost);
    const std::vector<Request> trace = {
        makeRequest(0, 0.0, 30, 4),
        makeRequest(1, 0.0, 30, 4),
    };
    auto result = scheduler.run(trace);
    const auto &steps = result.replicas[0].steps;
    std::vector<size_t> call_of;
    ASSERT_NO_FATAL_FAILURE(
        expectOracleCalls(cost, trace, steps, &call_of));
    ASSERT_EQ(steps.size(), 5u);
    ASSERT_EQ(steps[3].preempted_ids, (std::vector<int64_t>{1}));
    const auto &preempting = cost.calls[call_of[3]];
    ASSERT_EQ(preempting.size(), 1u);
    EXPECT_TRUE(preempting[0].shapes == models::decodeShapes(48));
    EXPECT_EQ(preempting[0].count, 1);
    const auto &readmitting = cost.calls[call_of[4]];
    ASSERT_EQ(readmitting.size(), 1u);
    EXPECT_TRUE(readmitting[0].shapes == models::prefillShapes(48));

    // A tight pool under a bursty trace preempts repeatedly, with
    // survivors of several shapes left in the preempting steps.
    serving::TraceOptions trace_options;
    trace_options.num_requests = 48;
    trace_options.seed = 9;
    trace_options.mean_interarrival_ms = 2.0;
    RecordingCostModel tight;
    serving::FleetScheduler pressured(
        oneReplica(recordingOptions(8, 512)), tight);
    const auto tight_trace = serving::burstyTrace(trace_options);
    auto pressured_result = pressured.run(tight_trace);
    const auto &tight_steps = pressured_result.replicas[0].steps;
    std::vector<size_t> tight_call_of;
    ASSERT_NO_FATAL_FAILURE(expectOracleCalls(
        tight, tight_trace, tight_steps, &tight_call_of));
    EXPECT_GT(pressured_result.metrics.preemptions, 0);
    bool multi_group_after_preempt = false;
    for (size_t i = 0; i < tight_steps.size(); ++i)
        multi_group_after_preempt =
            multi_group_after_preempt ||
            (!tight_steps[i].preempted_ids.empty() &&
             tight.calls[tight_call_of[i]].size() > 1);
    EXPECT_TRUE(multi_group_after_preempt);
}

TEST(SchedulerReplay, PagedPrefixSharingScript)
{
    // Two concurrent requests share a 32-token prefix (2 full
    // pages): 4 physical pages instead of 6. A third request with
    // the same prefix arrives after both finished and revives the
    // retained prefix pages from cache.
    serving::AnalyticCostModel cost;
    serving::FleetScheduler scheduler(
        oneReplica(recordingOptions(2, 256)), cost);
    auto result = scheduler.run({
        makePrefixRequest(0, 0.0, 40, 2, /*prefix_id=*/1,
                          /*prefix_len=*/32),
        makePrefixRequest(1, 0.0, 40, 2, 1, 32),
        makePrefixRequest(2, 100.0, 40, 1, 1, 32),
    });

    ASSERT_EQ(result.replicas[0].steps.size(), 3u);
    // Shared prefill: 3 pages each, 2 of them one physical copy.
    EXPECT_EQ(result.replicas[0].steps[0].prefill_ids,
              (std::vector<int64_t>{0, 1}));
    EXPECT_EQ(result.replicas[0].steps[0].pages_active, 4);
    EXPECT_EQ(kvTokens(result.replicas[0].steps[0]), 64);

    // After both retire the prefix pages are retained, not freed:
    // R2's prefill revives them and allocates only its private
    // page.
    const auto &s2 = result.replicas[0].steps[2];
    EXPECT_DOUBLE_EQ(s2.start_ms, 100.0);
    EXPECT_EQ(s2.prefill_ids, (std::vector<int64_t>{2}));
    EXPECT_EQ(s2.pages_active, 3);

    const auto &m = result.metrics;
    EXPECT_EQ(m.completed, 3);
    EXPECT_EQ(m.preemptions, 0);
    // R0 allocates the 2 prefix pages (misses); R1 shares them
    // live (2 hits); R2 revives them from cache (2 more hits).
    EXPECT_EQ(m.prefix_miss_pages, 2);
    EXPECT_EQ(m.prefix_hit_pages, 4);
    EXPECT_DOUBLE_EQ(m.prefixHitRate(), 4.0 / 6.0);
}

TEST(SchedulerReplay, PagedAdmitsWhatReserveBlocks)
{
    // Reserving bucketLen(input + output - 1) at admission would
    // serialize two (30, 40) requests on a 128-token budget (each
    // would hold 80 > 128/2). The paged pool admits on current
    // need and runs them concurrently until actual pressure
    // builds.
    serving::AnalyticCostModel cost;
    serving::FleetScheduler scheduler(
        oneReplica(recordingOptions(2, 128)), cost);
    auto paged = scheduler.run({
        makeRequest(0, 0.0, 30, 40),
        makeRequest(1, 0.0, 30, 40),
    });
    EXPECT_EQ(paged.metrics.completed, 2);
    // Both prefill together.
    EXPECT_EQ(paged.replicas[0].steps[0].prefill_ids,
              (std::vector<int64_t>{0, 1}));
}

TEST(SchedulerReplay, RejectionOrderInterleavesReasonsAtOneInstant)
{
    // Five arrivals at t = 0, ingested in one round: TooLong and
    // QueueFull rejections must land in result.rejected in
    // (arrival, id) order — interleaved by id, not grouped by
    // reason or by ingest batching.
    serving::AnalyticCostModel cost;
    serving::ReplicaOptions options = recordingOptions(1, 64);
    options.max_queue_depth = 1;
    serving::FleetScheduler scheduler(oneReplica(options), cost);
    auto result = scheduler.run({
        makeRequest(0, 0.0, 8, 1),    // admitted
        makeRequest(1, 0.0, 100, 60), // TooLong (10 pages > 4)
        makeRequest(2, 0.0, 8, 1),    // QueueFull
        makeRequest(3, 0.0, 200, 60), // TooLong
        makeRequest(4, 0.0, 8, 1),    // QueueFull
    });
    ASSERT_EQ(result.rejected.size(), 4u);
    EXPECT_EQ(result.rejected[0].id, 1);
    EXPECT_EQ(result.rejected[0].reason,
              serving::RejectReason::TooLong);
    EXPECT_EQ(result.rejected[1].id, 2);
    EXPECT_EQ(result.rejected[1].reason,
              serving::RejectReason::QueueFull);
    EXPECT_EQ(result.rejected[2].id, 3);
    EXPECT_EQ(result.rejected[2].reason,
              serving::RejectReason::TooLong);
    EXPECT_EQ(result.rejected[3].id, 4);
    EXPECT_EQ(result.rejected[3].reason,
              serving::RejectReason::QueueFull);
    for (const auto &r : result.rejected)
        EXPECT_DOUBLE_EQ(r.arrival_ms, 0.0);
    EXPECT_EQ(result.metrics.rejected_too_long, 2);
    EXPECT_EQ(result.metrics.rejected_queue_full, 2);
}

// ---------------------------------------------------------------
// Metrics edge cases (partial runs, degenerate decode windows).
// ---------------------------------------------------------------

TEST(Metrics, TbtMeanSkipsSingleTokenRequests)
{
    serving::ServingMetrics m;
    serving::RequestMetrics multi;
    multi.output_len = 3;
    multi.first_token_ms = 10.0;
    multi.finish_ms = 30.0;
    serving::RequestMetrics single;
    single.output_len = 1;
    single.first_token_ms = 5.0;
    single.finish_ms = 5.0; // no decode window, by construction
    serving::MetricsOptions keep;
    m.recordCompletion(multi, keep);
    m.recordCompletion(single, keep);
    // 20 ms over 2 gaps; the single-token request contributes
    // neither window nor gaps.
    EXPECT_DOUBLE_EQ(m.tbtMeanMs(), 10.0);
}

TEST(Metrics, TbtMeanRefusesSingleTokenDecodeWindow)
{
    // A single-token request with finish != first token would
    // silently inflate every other request's mean — it is an
    // internal invariant violation, not a user error.
    serving::ServingMetrics m;
    serving::RequestMetrics bad;
    bad.output_len = 1;
    bad.first_token_ms = 5.0;
    bad.finish_ms = 9.0;
    EXPECT_THROW(m.recordCompletion(bad, serving::MetricsOptions{}),
                 PanicError);
}

TEST(Scheduler, StepLimitSplitsAccountingViews)
{
    // A run cut off by max_steps reports the in-flight sequences
    // it still held; per-request metrics cover completions only,
    // while step aggregates cover every executed step.
    serving::AnalyticCostModel cost;
    serving::ReplicaOptions options = recordingOptions(4, 4096);
    options.max_steps = 3;
    serving::FleetScheduler scheduler(oneReplica(options), cost);
    std::vector<Request> trace;
    for (int64_t i = 0; i < 10; ++i)
        trace.push_back(makeRequest(i, 0.0, 8, 8));
    auto result = scheduler.run(trace);

    EXPECT_TRUE(result.hit_step_limit);
    const auto &m = result.metrics;
    EXPECT_EQ(m.steps, 3);
    EXPECT_EQ(m.completed, 0); // nobody reached 8 tokens
    EXPECT_TRUE(m.requests.empty());
    EXPECT_EQ(m.in_flight, 4); // the resident batch
    // Step-derived aggregates still cover the in-flight work.
    EXPECT_EQ(m.total_batched_seqs, 12);
    EXPECT_DOUBLE_EQ(m.meanBatchSize(), 4.0);
    double busy = 0.0;
    for (const auto &s : result.replicas[0].steps)
        busy += s.step_ms;
    EXPECT_DOUBLE_EQ(m.busy_ms, busy);
    EXPECT_DOUBLE_EQ(m.utilization(), 1.0);
    // A drained rerun of the same trace reports no in-flight
    // work.
    options.max_steps = 1 << 20;
    serving::FleetScheduler drained(oneReplica(options), cost);
    EXPECT_EQ(drained.run(trace).metrics.in_flight, 0);
}

// ---------------------------------------------------------------
// Preemption under a bounded queue; drain / deadline / step-limit
// interaction (the doc contract in ReplicaOptions).
// ---------------------------------------------------------------

TEST(SchedulerReplay, PreemptionLandsWhileQueueAtCapacity)
{
    // Regression: the PagedPreemptionScript scenario with a
    // max_queue_depth of 2 that two later arrivals have already
    // filled when R1 is preempted. The preemption re-entry is a
    // front insert exempt from the capacity bound — R1 must land
    // back in the queue (not be dropped or trip the invariant)
    // and nobody gets rejected.
    serving::AnalyticCostModel cost;
    serving::ReplicaOptions options = recordingOptions(2, 64);
    options.max_queue_depth = 2;
    serving::FleetScheduler scheduler(oneReplica(options), cost);
    auto result = scheduler.run({
        makeRequest(0, 0.0, 30, 4),
        makeRequest(1, 0.0, 30, 4),
        // Arrive mid-run and fill the queue to capacity before
        // the step-4 preemption; small enough to coexist with R1
        // afterwards.
        makeRequest(2, 3.0, 8, 1),
        makeRequest(3, 3.1, 8, 1),
    });

    EXPECT_TRUE(result.rejected.empty());
    ASSERT_EQ(result.replicas[0].steps.size(), 6u);
    const auto &s3 = result.replicas[0].steps[3];
    EXPECT_EQ(s3.preempted_ids, (std::vector<int64_t>{1}));
    // Queue depth at launch exceeds the bound: R2 and R3 at
    // capacity plus the exempt preemption re-entry.
    EXPECT_EQ(s3.queue_depth, 3);
    // R1 re-entered at the front of its class (earlier arrival),
    // so readmission order is R1, then R2, then R3.
    EXPECT_EQ(result.replicas[0].steps[4].prefill_ids,
              (std::vector<int64_t>{1, 2}));
    EXPECT_EQ(result.replicas[0].steps[5].prefill_ids,
              (std::vector<int64_t>{3}));

    const auto &m = result.metrics;
    EXPECT_EQ(m.completed, 4);
    EXPECT_EQ(m.preemptions, 1);
    EXPECT_EQ(m.total_output_tokens, 10);
}

TEST(Scheduler, DeadlineStepLimitInteraction)
{
    // Pins the ordering of the two stopping mechanisms. Unit step
    // cost: one millisecond per resident sequence, so with
    // max_batch = 1 the loop iterates at exactly t = 0, 1, 2, 3, 4.
    serving::AnalyticCostOptions unit;
    unit.trigger_ms = 0.0;
    unit.per_seq_ms = 1.0;
    unit.per_query_token_ms = 0.0;
    unit.per_kv_token_ms = 0.0;
    serving::AnalyticCostModel cost(unit);

    serving::ReplicaOptions options = recordingOptions(1, 4096);

    Request r0 = makeRequest(0, 0.0, 8, 4);
    r0.deadline_ms = 2.0; // resident: never expired, counts a miss
    Request r1 = makeRequest(1, 0.0, 8, 2);
    r1.deadline_ms = 1.5; // queued: expires at the t = 2 sweep

    serving::FleetScheduler scheduler(oneReplica(options), cost);
    auto result = scheduler.run({r0, r1});

    // No step-limit trip, no in-flight work, R0 ran its 4 steps
    // to completion.
    EXPECT_FALSE(result.hit_step_limit);
    const auto &m = result.metrics;
    EXPECT_EQ(m.steps, 4);
    EXPECT_EQ(m.in_flight, 0);
    EXPECT_EQ(m.completed, 1);
    EXPECT_DOUBLE_EQ(m.makespan_ms, 4.0);

    // R0 finished at t = 4 against a deadline of 2: a miss, not
    // an expiry — residents are never evicted by the sweep.
    EXPECT_EQ(m.deadline_misses, 1);
    ASSERT_EQ(m.requests.size(), 1u);
    EXPECT_TRUE(m.requests[0].missedDeadline());

    // R1's deadline is swept at the t = 2 iteration, the first at
    // or after it.
    EXPECT_EQ(m.expired_deadline, 1);
    ASSERT_EQ(result.rejected.size(), 1u);
    EXPECT_EQ(result.rejected[0].id, 1);
    EXPECT_EQ(result.rejected[0].reason,
              serving::RejectReason::DeadlineExpired);
    EXPECT_DOUBLE_EQ(result.rejected[0].at_ms, 2.0);

    // The step limit sits above deadlines: capped at 2 steps the
    // same run reports in-flight work.
    options.max_steps = 2;
    serving::FleetScheduler capped(oneReplica(options), cost);
    auto cut = capped.run({r0, r1});
    EXPECT_TRUE(cut.hit_step_limit);
    EXPECT_EQ(cut.metrics.steps, 2);
    EXPECT_EQ(cut.metrics.completed, 0);
    EXPECT_EQ(cut.metrics.in_flight, 1);
}

// ---- Percentile-cache invalidation (metrics.h): the sorted
// ---- caches key on (record revision, window size), so a query
// ---- between completions — or between fleet merges — must never
// ---- serve a stale distribution. ----

namespace {

serving::RequestMetrics
completedRecord(int64_t id, double arrival_ms,
                double first_token_ms, double finish_ms,
                int64_t output_len)
{
    serving::RequestMetrics r;
    r.id = id;
    r.input_len = 8;
    r.output_len = output_len;
    r.arrival_ms = arrival_ms;
    r.first_token_ms = first_token_ms;
    r.finish_ms = finish_ms;
    return r;
}

} // namespace

TEST(ServingMetricsTest, PercentileSeesLaterCompletions)
{
    serving::ServingMetrics m;
    serving::MetricsOptions keep; // Always
    keep.keep_records = serving::MetricsOptions::KeepRecords::Always;

    m.recordCompletion(completedRecord(0, 0.0, 10.0, 10.0, 1),
                       keep);
    m.recordCompletion(completedRecord(1, 0.0, 20.0, 20.0, 1),
                       keep);
    EXPECT_DOUBLE_EQ(m.latencyPercentileMs(100.0), 20.0);
    EXPECT_DOUBLE_EQ(m.ttftP95Ms(), 20.0);

    // A later completion with a worse tail must surface on the
    // very next query (query-record-query regression).
    m.recordCompletion(completedRecord(2, 0.0, 90.0, 90.0, 1),
                       keep);
    EXPECT_DOUBLE_EQ(m.latencyPercentileMs(100.0), 90.0);
    EXPECT_DOUBLE_EQ(m.ttftP95Ms(), 90.0);
    EXPECT_DOUBLE_EQ(m.latencyPercentileMs(50.0), 20.0);
}

TEST(FleetMetricsTest, PercentileSeesMergedRecords)
{
    // Percentiles answer from the records as they are at the
    // query: a same-size content change followed by a merge must
    // re-answer from the updated window.
    serving::MetricsOptions keep;
    keep.keep_records = serving::MetricsOptions::KeepRecords::Always;
    serving::ServingMetrics replica;
    replica.recordCompletion(completedRecord(0, 0.0, 10.0, 10.0, 1),
                             keep);
    replica.recordCompletion(completedRecord(1, 0.0, 30.0, 30.0, 1),
                             keep);
    serving::FleetMetrics fm;
    fm.merge(replica);
    EXPECT_DOUBLE_EQ(fm.latencyPercentileMs(100.0), 30.0);

    fm.requests[1].finish_ms = 500.0; // same size, new content
    fm.requests[1].first_token_ms = 500.0;
    fm.merge(serving::ServingMetrics{}); // adds no records
    EXPECT_DOUBLE_EQ(fm.latencyPercentileMs(100.0), 500.0);
    EXPECT_DOUBLE_EQ(fm.latencyPercentileMs(0.0), 10.0);
}

// ---- ServingMetrics::merge: two replicas' accumulators merged
// ---- equal one accumulator fed the union of their work. ----

namespace {

/** The step accounting ReplicaEngine::completeStep commits. */
void
feedStep(serving::ServingMetrics &m, double busy_ms, int64_t batch,
         int64_t pages_active)
{
    m.busy_ms += busy_ms;
    ++m.steps;
    m.total_batched_seqs += batch;
    m.page_step_sum += pages_active;
}

/** Every field and accessor, compared exactly. All sums in the
 *  merge test are dyadic, so summation order cannot round. */
void
expectSameAggregates(const serving::ServingMetrics &a,
                     const serving::ServingMetrics &b)
{
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].id, b.requests[i].id);
        EXPECT_EQ(a.requests[i].finish_ms, b.requests[i].finish_ms);
    }
    EXPECT_EQ(a.records_complete, b.records_complete);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected_queue_full, b.rejected_queue_full);
    EXPECT_EQ(a.rejected_too_long, b.rejected_too_long);
    EXPECT_EQ(a.expired_deadline, b.expired_deadline);
    EXPECT_EQ(a.rejected_drained, b.rejected_drained);
    EXPECT_EQ(a.deadline_misses, b.deadline_misses);
    EXPECT_EQ(a.total_output_tokens, b.total_output_tokens);
    EXPECT_EQ(a.in_flight, b.in_flight);
    EXPECT_EQ(a.replicas, b.replicas);
    EXPECT_EQ(a.makespan_ms, b.makespan_ms);
    EXPECT_EQ(a.busy_ms, b.busy_ms);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.total_batched_seqs, b.total_batched_seqs);
    EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
    EXPECT_EQ(a.pool_pages, b.pool_pages);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.prefix_hit_pages, b.prefix_hit_pages);
    EXPECT_EQ(a.prefix_miss_pages, b.prefix_miss_pages);
    EXPECT_EQ(a.peak_pages_active, b.peak_pages_active);
    EXPECT_EQ(a.page_step_sum, b.page_step_sum);
    EXPECT_EQ(a.latency_sketch.count(), b.latency_sketch.count());
    EXPECT_EQ(a.ttft_sketch.count(), b.ttft_sketch.count());
    EXPECT_EQ(a.ttft_sum_ms, b.ttft_sum_ms);
    EXPECT_EQ(a.decode_sum_ms, b.decode_sum_ms);
    EXPECT_EQ(a.decode_gaps, b.decode_gaps);
    EXPECT_EQ(a.weight_stream_ms, b.weight_stream_ms);
    EXPECT_EQ(a.weight_bytes_streamed, b.weight_bytes_streamed);
    EXPECT_EQ(a.weight_stall_ms, b.weight_stall_ms);

    EXPECT_EQ(a.requestsPerSecond(), b.requestsPerSecond());
    EXPECT_EQ(a.tokensPerSecond(), b.tokensPerSecond());
    EXPECT_EQ(a.utilization(), b.utilization());
    EXPECT_EQ(a.meanBatchSize(), b.meanBatchSize());
    EXPECT_EQ(a.pageUtilization(), b.pageUtilization());
    EXPECT_EQ(a.prefixHitRate(), b.prefixHitRate());
    EXPECT_EQ(a.ttftMeanMs(), b.ttftMeanMs());
    EXPECT_EQ(a.ttftP95Ms(), b.ttftP95Ms());
    EXPECT_EQ(a.tbtMeanMs(), b.tbtMeanMs());
    for (double p : {0.0, 50.0, 90.0, 99.0, 100.0})
        EXPECT_EQ(a.latencyPercentileMs(p),
                  b.latencyPercentileMs(p));
    EXPECT_EQ(a.weightOverlapFraction(), b.weightOverlapFraction());
}

} // namespace

TEST(ServingMetricsTest, MergeEqualsOneAccumulatorFedTheUnion)
{
    serving::MetricsOptions keep;
    keep.keep_records = serving::MetricsOptions::KeepRecords::Always;
    auto replica = [] {
        serving::ServingMetrics m;
        m.replicas = 1;
        m.pool_pages = 8;
        m.makespan_ms = 40.0;
        return m;
    };
    serving::RequestMetrics late = completedRecord(0, 0.0, 2.0, 6.0, 3);
    late.deadline_ms = 5.0; // a deadline miss
    serving::RequestMetrics single = completedRecord(1, 1.0, 4.0, 4.0, 1);
    serving::RequestMetrics other = completedRecord(2, 2.0, 3.0, 11.0, 5);

    serving::ServingMetrics a = replica();
    feedStep(a, 4.0, 2, 3);
    feedStep(a, 8.0, 1, 5);
    a.recordCompletion(late, keep);
    a.recordCompletion(single, keep);
    a.countRejection(serving::RejectReason::QueueFull);
    a.countRejection(serving::RejectReason::TooLong);
    a.in_flight = 1;
    a.max_queue_depth = 3;
    a.peak_pages_active = 5;
    a.preemptions = 1;
    a.prefix_hit_pages = 2;
    a.prefix_miss_pages = 4;
    a.weight_stream_ms = 16.0;
    a.weight_stall_ms = 4.0;
    a.weight_bytes_streamed = 1024;

    serving::ServingMetrics b = replica();
    feedStep(b, 2.0, 3, 6);
    b.recordCompletion(other, keep);
    b.countRejection(serving::RejectReason::DeadlineExpired);
    b.countRejection(serving::RejectReason::QueueFull);
    b.max_queue_depth = 5;
    b.peak_pages_active = 6;
    b.preemptions = 2;
    b.prefix_hit_pages = 1;
    b.prefix_miss_pages = 1;
    b.weight_stream_ms = 16.0;
    b.weight_stall_ms = 8.0;
    b.weight_bytes_streamed = 1024;

    // The union: the same work, in replica order, accounted as two
    // replicas sharing one makespan.
    serving::ServingMetrics u = replica();
    u.replicas = 2;
    feedStep(u, 4.0, 2, 3);
    feedStep(u, 8.0, 1, 5);
    feedStep(u, 2.0, 3, 6);
    for (const auto &r : {late, single, other})
        u.recordCompletion(r, keep);
    for (auto reason : {serving::RejectReason::QueueFull,
                        serving::RejectReason::TooLong,
                        serving::RejectReason::DeadlineExpired,
                        serving::RejectReason::QueueFull})
        u.countRejection(reason);
    u.in_flight = 1;
    u.max_queue_depth = 5;
    u.peak_pages_active = 6;
    u.preemptions = 3;
    u.prefix_hit_pages = 3;
    u.prefix_miss_pages = 5;
    u.weight_stream_ms = 32.0;
    u.weight_stall_ms = 12.0;
    u.weight_bytes_streamed = 2048;

    // One replica merged into an empty fleet accumulator is that
    // replica, field for field.
    serving::FleetMetrics one;
    one.merge(a);
    expectSameAggregates(one, a);

    serving::FleetMetrics merged;
    merged.merge(a);
    merged.merge(b);
    expectSameAggregates(merged, u);
    // Accessors keep their per-replica meaning: busy time over
    // 2 × 40 ms of replica time, active pages over 3 steps × 8.
    EXPECT_DOUBLE_EQ(merged.utilization(), 14.0 / 80.0);
    EXPECT_DOUBLE_EQ(merged.pageUtilization(), 14.0 / 24.0);
    EXPECT_DOUBLE_EQ(merged.weightOverlapFraction(), 1.0 - 12.0 / 32.0);
    EXPECT_EQ(merged.deadline_misses, 1);

    // One replica that dropped its records makes the merge
    // incomplete, and the percentiles answer from the sketch.
    serving::MetricsOptions never;
    never.keep_records = serving::MetricsOptions::KeepRecords::Never;
    serving::ServingMetrics c = replica();
    c.recordCompletion(completedRecord(3, 0.0, 1.0, 12.0, 2), never);
    merged.merge(c);
    EXPECT_FALSE(merged.records_complete);
    EXPECT_EQ(merged.completed, 4);
    EXPECT_EQ(merged.latency_sketch.count(), 4);
    EXPECT_DOUBLE_EQ(merged.latencyPercentileMs(100.0), 12.0);
}

TEST(ServingMetricsTest, RetentionDoesNotMoveTheMeans)
{
    // The means read the running sums under either retention mode,
    // so dropping the records cannot move them by a single bit —
    // even on a merged fleet, where the record order differs from
    // the summation order.
    serving::AnalyticCostModel cost;
    for (uint64_t seed : {1u, 2u, 3u}) {
        serving::TraceOptions trace;
        trace.seed = seed;
        trace.num_requests = 120;
        trace.mean_interarrival_ms = 2.0;
        auto run = [&](serving::MetricsOptions::KeepRecords keep) {
            serving::FleetOptions options;
            options.num_replicas = 4;
            options.replica.max_batch = 4;
            options.replica.kv_budget_tokens = 1024;
            options.replica.metrics.keep_records = keep;
            serving::FleetScheduler fleet(options, cost);
            return fleet.run(serving::poissonTrace(trace)).metrics;
        };
        serving::FleetMetrics always =
            run(serving::MetricsOptions::KeepRecords::Always);
        serving::FleetMetrics never =
            run(serving::MetricsOptions::KeepRecords::Never);
        ASSERT_TRUE(always.records_complete);
        ASSERT_FALSE(never.records_complete);
        ASSERT_EQ(always.completed, trace.num_requests);
        EXPECT_EQ(always.ttftMeanMs(), never.ttftMeanMs())
            << "seed " << seed;
        EXPECT_EQ(always.tbtMeanMs(), never.tbtMeanMs())
            << "seed " << seed;
    }
}

TEST(ServingMetricsTest, MergeRejectsMismatchedPoolGeometry)
{
    serving::ServingMetrics a, b;
    a.pool_pages = 8;
    b.pool_pages = 16;
    EXPECT_THROW(a.merge(b), FatalError);
}

// ---- Cold-start weight gating (replica.h ColdStartOptions):
// ---- steps launched before the stream finishes stretch by the
// ---- exact residency wait; once it lands, steps match warm
// ---- bit-for-bit. ----

TEST(ServingSchedulerTest, ColdStartGatingExactAgainstWarm)
{
    serving::AnalyticCostModel cost;
    auto base = [] {
        serving::ReplicaOptions o;
        o.max_batch = 2;
        o.kv_budget_tokens = 256;
        o.record_steps = true;
        return o;
    };
    std::vector<Request> trace = {makeRequest(0, 0.0, 8, 3),
                                  makeRequest(1, 0.0, 8, 3)};

    serving::FleetScheduler warm(oneReplica(base()), cost);
    auto warm_result = warm.run(trace);
    ASSERT_FALSE(warm_result.replicas[0].steps.empty());
    EXPECT_DOUBLE_EQ(warm_result.metrics.weight_stream_ms, 0.0);
    EXPECT_DOUBLE_EQ(warm_result.metrics.weight_stall_ms, 0.0);
    EXPECT_DOUBLE_EQ(
        warm_result.metrics.weightOverlapFraction(), 1.0);
    for (const auto &s : warm_result.replicas[0].steps)
        EXPECT_DOUBLE_EQ(s.weights_wait_ms, 0.0);

    // A handcrafted two-layer plan finishing at t=20: layer 0
    // lands at 10, layer 1 at 20.
    serving::WeightStreamPlan plan;
    plan.model = "handcrafted";
    plan.tier = "test";
    plan.layer_ready_ms = {10.0, 20.0};
    plan.end_ms = 20.0;
    plan.bytes_total = 4096;
    plan.chunks = 2;
    plan.readers = 1;

    auto runCold = [&](bool overlap) {
        auto o = base();
        o.cold_start.plan = plan;
        o.cold_start.overlap = overlap;
        serving::FleetScheduler cold(oneReplica(o), cost);
        return cold.run(trace);
    };
    auto off = runCold(false);
    auto on = runCold(true);

    // Every step's wait is exactly what the plan's gate derives
    // from the warm step's start and duration — replayed here
    // with the same double arithmetic.
    auto checkWaits = [&](const serving::FleetResult &cold,
                          bool overlap) {
        const auto &warm_steps = warm_result.replicas[0].steps;
        const auto &cold_steps = cold.replicas[0].steps;
        ASSERT_EQ(cold_steps.size(), warm_steps.size());
        double drift = 0.0; // cold start so far delays launches
        double stall = 0.0;
        for (size_t i = 0; i < cold_steps.size(); ++i) {
            const auto &w = warm_steps[i];
            const auto &c = cold_steps[i];
            double start = w.start_ms + drift;
            EXPECT_DOUBLE_EQ(c.start_ms, start);
            double wait = 0.0;
            if (start < plan.end_ms) {
                double gated = plan.gatedComputeEndMs(
                    start, w.step_ms, overlap);
                wait = std::max(0.0,
                                gated - (start + w.step_ms));
            }
            EXPECT_DOUBLE_EQ(c.weights_wait_ms, wait);
            EXPECT_DOUBLE_EQ(c.step_ms, w.step_ms + wait);
            drift += wait;
            stall += wait;
        }
        EXPECT_DOUBLE_EQ(cold.metrics.weight_stall_ms, stall);
        EXPECT_DOUBLE_EQ(cold.metrics.weight_stream_ms, 20.0);
        EXPECT_EQ(cold.metrics.weight_bytes_streamed, 4096);
    };
    checkWaits(off, false);
    checkWaits(on, true);

    // Overlap hides part of the stream: strictly less stall and
    // an earlier makespan than overlap-off, never better than
    // warm.
    EXPECT_LT(on.metrics.weight_stall_ms,
              off.metrics.weight_stall_ms);
    EXPECT_LT(on.metrics.makespan_ms, off.metrics.makespan_ms);
    EXPECT_GT(on.metrics.makespan_ms,
              warm_result.metrics.makespan_ms);
    EXPECT_GT(on.metrics.weightOverlapFraction(),
              off.metrics.weightOverlapFraction());

    // Cold-start runs replay bit-identically.
    auto again = runCold(true);
    const auto &sa = again.replicas[0].steps;
    const auto &so = on.replicas[0].steps;
    ASSERT_EQ(sa.size(), so.size());
    for (size_t i = 0; i < so.size(); ++i) {
        EXPECT_DOUBLE_EQ(sa[i].start_ms, so[i].start_ms);
        EXPECT_DOUBLE_EQ(sa[i].step_ms, so[i].step_ms);
        EXPECT_DOUBLE_EQ(sa[i].weights_wait_ms, so[i].weights_wait_ms);
    }
}
