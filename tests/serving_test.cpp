/** @file Deterministic scheduler test harness: seeded traces,
 *  unit tests for the queue / trace generators / metrics /
 *  bucketing, and step-by-step replay scripts asserting exact
 *  batch composition, admission decisions, and final metrics. All
 *  time is simulated — nothing here (or in src/serving/) reads a
 *  clock, so every assertion is bit-reproducible. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "models/bucketing.h"
#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/metrics.h"
#include "serving/queue.h"
#include "serving/scheduler.h"
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
            int64_t output_len, int priority = 0)
{
    Request r;
    r.id = id;
    r.arrival_ms = arrival_ms;
    r.input_len = input_len;
    r.output_len = output_len;
    r.priority = priority;
    return r;
}

serving::SchedulerOptions
recordingOptions(int64_t max_batch, int64_t kv_budget)
{
    serving::SchedulerOptions options;
    options.max_batch = max_batch;
    options.kv_budget_tokens = kv_budget;
    options.record_steps = true;
    return options;
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
    EXPECT_EQ(q.pop().id, 3);
    EXPECT_EQ(q.pop().id, 1);
    EXPECT_EQ(q.pop().id, 2);
    EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, LowerPriorityClassValueServedFirst)
{
    serving::RequestQueue q;
    q.push(makeRequest(0, 0.0, 8, 1, /*priority=*/2));
    q.push(makeRequest(1, 0.0, 8, 1, /*priority=*/0));
    q.push(makeRequest(2, 0.0, 8, 1, /*priority=*/1));
    q.push(makeRequest(3, 0.0, 8, 1, /*priority=*/0));
    EXPECT_EQ(q.front().id, 1);
    EXPECT_EQ(q.pop().id, 1);
    EXPECT_EQ(q.pop().id, 3); // FIFO within class 0
    EXPECT_EQ(q.pop().id, 2);
    EXPECT_EQ(q.pop().id, 0);
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

    q.pushFront(makeRequest(9, 0.0, 8, 1));
    EXPECT_EQ(q.size(), 3);
    EXPECT_EQ(q.frontInserts(), 1);
    q.pushFront(makeRequest(8, 0.0, 8, 1));
    EXPECT_EQ(q.size(), 4);
    EXPECT_EQ(q.frontInserts(), 2);

    // Bounded push stays refused while over capacity; the exempt
    // entries drain ahead of the FIFO tail.
    EXPECT_FALSE(q.push(makeRequest(3, 0.0, 8, 1)));
    EXPECT_EQ(q.pop().id, 8);
    EXPECT_EQ(q.pop().id, 9);
    EXPECT_EQ(q.pop().id, 0);
    EXPECT_EQ(q.pop().id, 1);
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
        EXPECT_EQ(a[i].priority, b[i].priority);
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
    options.num_priorities = 3;
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
            EXPECT_GE(r.priority, 0);
            EXPECT_LT(r.priority, options.num_priorities);
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
    serving::Scheduler scheduler(recordingOptions(2, 4096), cost);
    auto result = scheduler.run({
        makeRequest(0, 0.0, 10, 2),
        makeRequest(1, 0.0, 20, 2),
        makeRequest(2, 1.0, 10, 1),
    });

    ASSERT_EQ(result.steps.size(), 3u);
    EXPECT_FALSE(result.hit_step_limit);
    EXPECT_TRUE(result.rejected.empty());

    // Step 1: both prefill. Buckets: 10+2 -> 16, 20+2 -> 32.
    const auto &s0 = result.steps[0];
    EXPECT_DOUBLE_EQ(s0.start_ms, 0.0);
    EXPECT_EQ(s0.prefill_ids, (std::vector<int64_t>{0, 1}));
    EXPECT_TRUE(s0.decode_ids.empty());
    EXPECT_EQ(s0.kv_reserved, 16 + 32);
    EXPECT_EQ(s0.queue_depth, 0);
    double step1 = analyticStepMs({{16, 16, 1}, {32, 32, 1}});
    EXPECT_DOUBLE_EQ(s0.step_ms, step1);

    // Step 2: both decode (contexts 12 and 22 -> kv buckets 16 and
    // 32); R2 arrived at 1.0 and waits (batch full).
    const auto &s1 = result.steps[1];
    EXPECT_DOUBLE_EQ(s1.start_ms, step1);
    EXPECT_TRUE(s1.prefill_ids.empty());
    EXPECT_EQ(s1.decode_ids, (std::vector<int64_t>{0, 1}));
    EXPECT_EQ(s1.queue_depth, 1);
    double step2 = analyticStepMs({{1, 16, 1}, {1, 32, 1}});
    EXPECT_DOUBLE_EQ(s1.step_ms, step2);

    // Step 3: R0/R1 finished; R2 prefills alone and, with
    // output_len 1, completes at its prefill.
    const auto &s2 = result.steps[2];
    EXPECT_DOUBLE_EQ(s2.start_ms, step1 + step2);
    EXPECT_EQ(s2.prefill_ids, (std::vector<int64_t>{2}));
    EXPECT_TRUE(s2.decode_ids.empty());
    EXPECT_EQ(s2.kv_reserved, 16);
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
    serving::Scheduler scheduler(recordingOptions(4, 32), cost);
    auto result = scheduler.run({
        makeRequest(0, 0.0, 10, 2), // bucket(12)  = 16
        makeRequest(1, 0.0, 20, 4), // bucket(24)  = 32
        makeRequest(2, 0.0, 5, 3),  // bucket(8)   = 16
    });

    EXPECT_TRUE(result.rejected.empty());
    ASSERT_GE(result.steps.size(), 3u);

    // R0 prefills alone; both others queued behind the blocked
    // head.
    EXPECT_EQ(result.steps[0].prefill_ids,
              (std::vector<int64_t>{0}));
    EXPECT_EQ(result.steps[0].queue_depth, 2);
    EXPECT_EQ(result.steps[0].kv_reserved, 16);

    // R0 decodes alone (R1 still does not fit: 16 + 32 > 32).
    EXPECT_EQ(result.steps[1].decode_ids,
              (std::vector<int64_t>{0}));
    EXPECT_TRUE(result.steps[1].prefill_ids.empty());

    // R0 retired; R1 admitted alone (32 fills the budget).
    EXPECT_EQ(result.steps[2].prefill_ids,
              (std::vector<int64_t>{1}));
    EXPECT_EQ(result.steps[2].kv_reserved, 32);

    // R2 only enters once R1 has fully finished.
    for (const auto &s : result.steps) {
        EXPECT_LE(s.kv_reserved, 32);
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

TEST(SchedulerReplay, PriorityClassesJumpTheQueue)
{
    // max_batch 1 forces full serialization: class 0 is served
    // before the earlier-arrived class-1 requests, FIFO inside
    // each class.
    serving::AnalyticCostModel cost;
    serving::Scheduler scheduler(recordingOptions(1, 4096), cost);
    auto result = scheduler.run({
        makeRequest(0, 0.0, 8, 1, /*priority=*/1),
        makeRequest(1, 0.0, 8, 1, /*priority=*/1),
        makeRequest(2, 0.0, 8, 1, /*priority=*/0),
    });
    ASSERT_EQ(result.steps.size(), 3u);
    EXPECT_EQ(result.steps[0].prefill_ids,
              (std::vector<int64_t>{2}));
    EXPECT_EQ(result.steps[1].prefill_ids,
              (std::vector<int64_t>{0}));
    EXPECT_EQ(result.steps[2].prefill_ids,
              (std::vector<int64_t>{1}));
}

TEST(SchedulerReplay, QueueFullRejectsArrivals)
{
    serving::AnalyticCostModel cost;
    serving::SchedulerOptions options = recordingOptions(1, 4096);
    options.max_queue_depth = 1;
    serving::Scheduler scheduler(options, cost);
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
    // boundaries (the timing rule in scheduler.h). Unit step
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

    serving::SchedulerOptions options = recordingOptions(1, 4096);
    options.max_queue_depth = 1;

    Request r0 = makeRequest(0, 0.0, 8, 4);
    Request r1 = makeRequest(1, 0.5, 8, 2);
    r1.deadline_ms = 1.2;
    Request r2 = makeRequest(2, 1.5, 900, 200); // beyond the ladder
    Request r3 = makeRequest(3, 1.7, 8, 1);

    serving::Scheduler scheduler(options, cost);
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
    ASSERT_EQ(result.steps.size(), 5u);
    EXPECT_EQ(result.steps[4].prefill_ids,
              (std::vector<int64_t>{3}));
    EXPECT_DOUBLE_EQ(result.steps[4].start_ms, 4.0);
}

TEST(SchedulerReplay, OversizedRequestsRejectedUpFront)
{
    serving::AnalyticCostModel cost;
    // Budget 64 tokens: a 50+50 request buckets to 128 and can
    // never be admitted; a 900+200 one exceeds the bucket ladder.
    serving::Scheduler scheduler(recordingOptions(4, 64), cost);
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
    serving::Scheduler scheduler(recordingOptions(2, 4096), cost);
    auto result = scheduler.run({
        makeRequest(0, 100.0, 8, 1),
    });
    ASSERT_EQ(result.steps.size(), 1u);
    EXPECT_DOUBLE_EQ(result.steps[0].start_ms, 100.0);
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
    serving::Scheduler a(recordingOptions(1, 4096), cost);
    serving::Scheduler b(recordingOptions(1, 4096), cost);
    std::vector<Request> sorted = {
        makeRequest(0, 0.0, 8, 1),
        makeRequest(1, 5.0, 8, 1),
        makeRequest(2, 9.0, 8, 1),
    };
    std::vector<Request> shuffled = {sorted[2], sorted[0],
                                     sorted[1]};
    auto ra = a.run(sorted);
    auto rb = b.run(shuffled);
    ASSERT_EQ(ra.steps.size(), rb.steps.size());
    for (size_t i = 0; i < ra.steps.size(); ++i) {
        EXPECT_EQ(ra.steps[i].prefill_ids,
                  rb.steps[i].prefill_ids);
        EXPECT_DOUBLE_EQ(ra.steps[i].start_ms,
                         rb.steps[i].start_ms);
    }
}

TEST(SchedulerReplay, SeededTraceReplaysBitIdentically)
{
    serving::TraceOptions trace_options;
    trace_options.num_requests = 48;
    trace_options.seed = 42;
    trace_options.mean_interarrival_ms = 3.0;
    trace_options.num_priorities = 2;
    auto trace = serving::burstyTrace(trace_options);

    auto runOnce = [&] {
        serving::AnalyticCostModel cost;
        serving::SchedulerOptions options =
            recordingOptions(4, 1024);
        serving::Scheduler scheduler(options, cost);
        return scheduler.run(trace);
    };
    auto a = runOnce();
    auto b = runOnce();

    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (size_t i = 0; i < a.steps.size(); ++i) {
        EXPECT_EQ(a.steps[i].prefill_ids, b.steps[i].prefill_ids);
        EXPECT_EQ(a.steps[i].decode_ids, b.steps[i].decode_ids);
        EXPECT_DOUBLE_EQ(a.steps[i].start_ms,
                         b.steps[i].start_ms);
        EXPECT_DOUBLE_EQ(a.steps[i].step_ms, b.steps[i].step_ms);
        EXPECT_EQ(a.steps[i].kv_reserved, b.steps[i].kv_reserved);
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
        serving::SchedulerOptions options;
        options.max_batch = max_batch;
        options.kv_budget_tokens = 1 << 20;
        serving::Scheduler scheduler(options, cost);
        return scheduler.run(trace).metrics.makespan_ms;
    };
    double serial = makespan(1);
    double batched = makespan(8);
    EXPECT_LT(batched, serial);
}

TEST(Scheduler, RejectsMalformedTracesAndOptions)
{
    serving::AnalyticCostModel cost;
    serving::Scheduler scheduler(recordingOptions(2, 4096), cost);
    EXPECT_THROW(scheduler.run({makeRequest(0, 0.0, 0, 1)}),
                 FatalError);
    EXPECT_THROW(scheduler.run({makeRequest(0, -1.0, 8, 1)}),
                 FatalError);
    EXPECT_THROW(scheduler.run({makeRequest(0, 0.0, 8, 1),
                                makeRequest(0, 1.0, 8, 1)}),
                 FatalError);
    serving::SchedulerOptions bad;
    bad.max_batch = 0;
    EXPECT_THROW(serving::Scheduler(bad, cost), FatalError);

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
    // built directly, without a Scheduler or fleet validating
    // first.
    serving::AnalyticCostModel cost;
    serving::SchedulerOptions zero_page = recordingOptions(2, 4096);
    zero_page.page_tokens = 0;
    serving::SchedulerOptions sub_page = recordingOptions(2, 8);
    for (const auto &bad : {zero_page, sub_page}) {
        EXPECT_THROW(serving::Scheduler(bad, cost), FatalError);
        EXPECT_THROW(serving::ReplicaEngine(bad, cost), FatalError);
        serving::FleetOptions fleet;
        fleet.replica = bad;
        EXPECT_THROW(serving::FleetScheduler(fleet, cost),
                     FatalError);
    }
}

TEST(Scheduler, EmptyTraceYieldsEmptyMetrics)
{
    serving::AnalyticCostModel cost;
    serving::Scheduler scheduler(recordingOptions(2, 4096), cost);
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
    serving::Scheduler scheduler(recordingOptions(2, 64), cost);
    auto result = scheduler.run({
        makeRequest(0, 0.0, 30, 4),
        makeRequest(1, 0.0, 30, 4),
    });

    ASSERT_EQ(result.steps.size(), 5u);
    EXPECT_TRUE(result.rejected.empty());

    // Steps 1-3: both resident, 2 pages each (contexts 30..32).
    EXPECT_EQ(result.steps[0].prefill_ids,
              (std::vector<int64_t>{0, 1}));
    EXPECT_EQ(result.steps[0].pages_active, 4);
    EXPECT_EQ(result.steps[0].kv_reserved, 64);
    double s0 = analyticStepMs({{32, 32, 2}});
    EXPECT_DOUBLE_EQ(result.steps[0].step_ms, s0);
    double s1 = analyticStepMs({{1, 32, 2}});
    for (size_t i : {1u, 2u}) {
        EXPECT_EQ(result.steps[i].decode_ids,
                  (std::vector<int64_t>{0, 1}));
        EXPECT_TRUE(result.steps[i].preempted_ids.empty());
        EXPECT_DOUBLE_EQ(result.steps[i].step_ms, s1);
    }

    // Step 4: R0's growth to 3 pages evicts R1 (most recently
    // admitted); R1 is not readmitted in the same iteration.
    const auto &s3 = result.steps[3];
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
    const auto &s4 = result.steps[4];
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

TEST(SchedulerReplay, PagedPrefixSharingScript)
{
    // Two concurrent requests share a 32-token prefix (2 full
    // pages): 4 physical pages instead of 6. A third request with
    // the same prefix arrives after both finished and revives the
    // retained prefix pages from cache.
    serving::AnalyticCostModel cost;
    serving::Scheduler scheduler(recordingOptions(2, 256), cost);
    auto result = scheduler.run({
        makePrefixRequest(0, 0.0, 40, 2, /*prefix_id=*/1,
                          /*prefix_len=*/32),
        makePrefixRequest(1, 0.0, 40, 2, 1, 32),
        makePrefixRequest(2, 100.0, 40, 1, 1, 32),
    });

    ASSERT_EQ(result.steps.size(), 3u);
    // Shared prefill: 3 pages each, 2 of them one physical copy.
    EXPECT_EQ(result.steps[0].prefill_ids,
              (std::vector<int64_t>{0, 1}));
    EXPECT_EQ(result.steps[0].pages_active, 4);
    EXPECT_EQ(result.steps[0].kv_reserved, 64);

    // After both retire the prefix pages are retained, not freed:
    // R2's prefill revives them and allocates only its private
    // page.
    const auto &s2 = result.steps[2];
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
    serving::Scheduler scheduler(recordingOptions(2, 128), cost);
    auto paged = scheduler.run({
        makeRequest(0, 0.0, 30, 40),
        makeRequest(1, 0.0, 30, 40),
    });
    EXPECT_EQ(paged.metrics.completed, 2);
    // Both prefill together.
    EXPECT_EQ(paged.steps[0].prefill_ids,
              (std::vector<int64_t>{0, 1}));
}

TEST(SchedulerReplay, RejectionOrderInterleavesReasonsAtOneInstant)
{
    // Five arrivals at t = 0, ingested in one round: TooLong and
    // QueueFull rejections must land in result.rejected in
    // (arrival, id) order — interleaved by id, not grouped by
    // reason or by ingest batching.
    serving::AnalyticCostModel cost;
    serving::SchedulerOptions options = recordingOptions(1, 64);
    options.max_queue_depth = 1;
    serving::Scheduler scheduler(options, cost);
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
    m.requests = {multi, single};
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
    m.requests = {bad};
    EXPECT_THROW(m.tbtMeanMs(), PanicError);
}

TEST(Scheduler, StepLimitSplitsAccountingViews)
{
    // A run cut off by max_steps reports the in-flight sequences
    // it still held; per-request metrics cover completions only,
    // while step aggregates cover every executed step.
    serving::AnalyticCostModel cost;
    serving::SchedulerOptions options = recordingOptions(4, 4096);
    options.max_steps = 3;
    serving::Scheduler scheduler(options, cost);
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
    for (const auto &s : result.steps)
        busy += s.step_ms;
    EXPECT_DOUBLE_EQ(m.busy_ms, busy);
    EXPECT_DOUBLE_EQ(m.utilization(), 1.0);
    // A drained rerun of the same trace reports no in-flight
    // work.
    options.max_steps = 1 << 20;
    serving::Scheduler drained(options, cost);
    EXPECT_EQ(drained.run(trace).metrics.in_flight, 0);
}

// ---------------------------------------------------------------
// Preemption under a bounded queue; drain / deadline / step-limit
// interaction (the doc contract in SchedulerOptions).
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
    serving::SchedulerOptions options = recordingOptions(2, 64);
    options.max_queue_depth = 2;
    serving::Scheduler scheduler(options, cost);
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
    ASSERT_EQ(result.steps.size(), 6u);
    const auto &s3 = result.steps[3];
    EXPECT_EQ(s3.preempted_ids, (std::vector<int64_t>{1}));
    // Queue depth at launch exceeds the bound: R2 and R3 at
    // capacity plus the exempt preemption re-entry.
    EXPECT_EQ(s3.queue_depth, 3);
    // R1 re-entered at the front of its class (earlier arrival),
    // so readmission order is R1, then R2, then R3.
    EXPECT_EQ(result.steps[4].prefill_ids,
              (std::vector<int64_t>{1, 2}));
    EXPECT_EQ(result.steps[5].prefill_ids,
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

    serving::SchedulerOptions options = recordingOptions(1, 4096);

    Request r0 = makeRequest(0, 0.0, 8, 4);
    r0.deadline_ms = 2.0; // resident: never expired, counts a miss
    Request r1 = makeRequest(1, 0.0, 8, 2);
    r1.deadline_ms = 1.5; // queued: expires at the t = 2 sweep

    serving::Scheduler scheduler(options, cost);
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
    serving::Scheduler capped(options, cost);
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

TEST(ServingMetricsTest, PercentileCacheSeesLaterCompletions)
{
    serving::ServingMetrics m;
    serving::MetricsOptions keep; // Always
    keep.keep_records = serving::MetricsOptions::KeepRecords::Always;

    m.recordCompletion(completedRecord(0, 0.0, 10.0, 10.0, 1),
                       keep);
    m.recordCompletion(completedRecord(1, 0.0, 20.0, 20.0, 1),
                       keep);
    // Prime both sorted caches.
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

TEST(FleetMetricsTest, PercentileCacheKeysOnRevisionNotJustSize)
{
    // The fleet merge path mutates `requests` wholesale; the
    // documented contract is that any such mutation bumps
    // record_revision. A same-size content change must re-answer
    // from the updated window — a size-keyed cache would serve
    // the stale sort.
    serving::FleetMetrics fm;
    fm.requests.push_back(
        completedRecord(0, 0.0, 10.0, 10.0, 1));
    fm.requests.push_back(
        completedRecord(1, 0.0, 30.0, 30.0, 1));
    ++fm.record_revision;
    EXPECT_DOUBLE_EQ(fm.latencyPercentileMs(100.0), 30.0);

    fm.requests[1].finish_ms = 500.0; // same size, new content
    fm.requests[1].first_token_ms = 500.0;
    ++fm.record_revision;
    EXPECT_DOUBLE_EQ(fm.latencyPercentileMs(100.0), 500.0);
    EXPECT_DOUBLE_EQ(fm.latencyPercentileMs(0.0), 10.0);
}

// ---- Cold-start weight gating (scheduler.h ColdStartOptions):
// ---- steps launched before the stream finishes stretch by the
// ---- exact residency wait; once it lands, steps match warm
// ---- bit-for-bit. ----

TEST(ServingSchedulerTest, ColdStartGatingExactAgainstWarm)
{
    serving::AnalyticCostModel cost;
    auto base = [] {
        serving::SchedulerOptions o;
        o.max_batch = 2;
        o.kv_budget_tokens = 256;
        o.record_steps = true;
        return o;
    };
    std::vector<Request> trace = {makeRequest(0, 0.0, 8, 3),
                                  makeRequest(1, 0.0, 8, 3)};

    serving::Scheduler warm(base(), cost);
    auto warm_result = warm.run(trace);
    ASSERT_FALSE(warm_result.steps.empty());
    EXPECT_DOUBLE_EQ(warm_result.metrics.weight_stream_ms, 0.0);
    EXPECT_DOUBLE_EQ(warm_result.metrics.weight_stall_ms, 0.0);
    EXPECT_DOUBLE_EQ(
        warm_result.metrics.weightOverlapFraction(), 1.0);
    for (const auto &s : warm_result.steps)
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
        serving::Scheduler cold(o, cost);
        return cold.run(trace);
    };
    auto off = runCold(false);
    auto on = runCold(true);

    // Every step's wait is exactly what the plan's gate derives
    // from the warm step's start and duration — replayed here
    // with the same double arithmetic.
    auto checkWaits = [&](const serving::ServingResult &cold,
                          bool overlap) {
        ASSERT_EQ(cold.steps.size(), warm_result.steps.size());
        double drift = 0.0; // cold start so far delays launches
        double stall = 0.0;
        for (size_t i = 0; i < cold.steps.size(); ++i) {
            const auto &w = warm_result.steps[i];
            const auto &c = cold.steps[i];
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
    ASSERT_EQ(again.steps.size(), on.steps.size());
    for (size_t i = 0; i < on.steps.size(); ++i) {
        EXPECT_DOUBLE_EQ(again.steps[i].start_ms,
                         on.steps[i].start_ms);
        EXPECT_DOUBLE_EQ(again.steps[i].step_ms,
                         on.steps[i].step_ms);
        EXPECT_DOUBLE_EQ(again.steps[i].weights_wait_ms,
                         on.steps[i].weights_wait_ms);
    }
}
