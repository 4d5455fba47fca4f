/** @file Scripted tests for the fault-tolerant fleet tier: the
 *  fault injector and seeded plans, least-KV-load routing, and
 *  exact-schedule FleetScheduler scenarios — crash-mid-decode
 *  failover (token-exact completion on a survivor), graceful
 *  drain hand-off, retry-budget exhaustion, total-outage parking,
 *  slowdown and link-degradation cost changes. All arithmetic
 *  uses a unit step cost (per_seq_ms = 1, everything else 0) so
 *  every step costs exactly the batch size in milliseconds and
 *  schedules are hand-computable. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

#include "serving/cost_model.h"
#include "serving/fault.h"
#include "serving/fleet.h"
#include "serving/weights.h"
#include "support/error.h"

using namespace streamtensor;
using serving::FaultEvent;
using serving::FaultKind;
using serving::Request;

namespace {

/** Unit cost: one millisecond per batched sequence per step. */
serving::AnalyticCostOptions
unitCost()
{
    serving::AnalyticCostOptions o;
    o.trigger_ms = 0.0;
    o.per_seq_ms = 1.0;
    o.per_query_token_ms = 0.0;
    o.per_kv_token_ms = 0.0;
    return o;
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

serving::FleetOptions
fleetOptions(int num_replicas)
{
    serving::FleetOptions o;
    o.num_replicas = num_replicas;
    o.replica.max_batch = 4;
    o.replica.kv_budget_tokens = 4096;
    o.replica.record_steps = true;
    o.max_retries = 3;
    o.retry_backoff_ms = 2.0;
    return o;
}

/** Committed step appearances of @p id on replica @p replica. */
int64_t
appearancesOn(const serving::FleetResult &result, size_t replica,
              int64_t id)
{
    int64_t count = 0;
    for (const auto &s : result.replicas[replica].steps) {
        for (int64_t x : s.prefill_ids)
            count += x == id ? 1 : 0;
        for (int64_t x : s.decode_ids)
            count += x == id ? 1 : 0;
    }
    return count;
}

// ---------------------------------------------------------------
// FaultInjector and seeded plans
// ---------------------------------------------------------------

TEST(FaultInjector, OrdersByTimeKeepingAuthoringOrderAtTies)
{
    serving::FaultPlan plan;
    plan.events.push_back({50.0, 1, FaultKind::Recover, 1.0});
    plan.events.push_back({10.0, 0, FaultKind::Crash, 1.0});
    plan.events.push_back({10.0, 1, FaultKind::DrainStart, 1.0});
    serving::FaultInjector injector(std::move(plan));

    EXPECT_FALSE(injector.exhausted());
    EXPECT_DOUBLE_EQ(injector.nextAtMs(), 10.0);
    auto due = injector.drainDue(10.0);
    ASSERT_EQ(due.size(), 2u);
    // Authoring order preserved at the tied instant.
    EXPECT_EQ(due[0].kind, FaultKind::Crash);
    EXPECT_EQ(due[1].kind, FaultKind::DrainStart);
    EXPECT_DOUBLE_EQ(injector.nextAtMs(), 50.0);
    EXPECT_EQ(injector.drainDue(100.0).size(), 1u);
    EXPECT_TRUE(injector.exhausted());
    EXPECT_TRUE(std::isinf(injector.nextAtMs()));
}

TEST(FaultInjector, RejectsMalformedEvents)
{
    {
        serving::FaultPlan plan;
        plan.events.push_back({-1.0, 0, FaultKind::Crash, 1.0});
        EXPECT_THROW(serving::FaultInjector{std::move(plan)},
                     FatalError);
    }
    {
        serving::FaultPlan plan;
        plan.events.push_back(
            {1.0, 0, FaultKind::SlowStart, 0.0});
        EXPECT_THROW(serving::FaultInjector{std::move(plan)},
                     FatalError);
    }
    const double inf = std::numeric_limits<double>::infinity();
    for (double at : {inf, std::nan("")}) {
        serving::FaultPlan plan;
        plan.events.push_back({at, 0, FaultKind::Crash, 1.0});
        EXPECT_THROW(serving::FaultInjector{std::move(plan)},
                     FatalError);
    }
    for (double factor : {inf, std::nan("")}) {
        serving::FaultPlan plan;
        plan.events.push_back(
            {1.0, 0, FaultKind::SlowStart, factor});
        EXPECT_THROW(serving::FaultInjector{std::move(plan)},
                     FatalError);
    }
}

TEST(SeededFaultPlan, DeterministicAndInsideTheHorizon)
{
    serving::SeededFaultOptions o;
    o.seed = 42;
    o.num_replicas = 4;
    o.horizon_ms = 500.0;
    o.crash_prob = 1.0;
    o.slow_prob = 1.0;
    o.drain_prob = 1.0;
    o.degrade_prob = 1.0;

    serving::FaultPlan a = serving::seededFaultPlan(o);
    serving::FaultPlan b = serving::seededFaultPlan(o);
    ASSERT_EQ(a.events.size(), b.events.size());
    // Every window enabled: 8 events per replica.
    EXPECT_EQ(a.events.size(), 4u * 8u);
    for (size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.events[i].at_ms, b.events[i].at_ms);
        EXPECT_EQ(a.events[i].replica, b.events[i].replica);
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_DOUBLE_EQ(a.events[i].factor, b.events[i].factor);
    }
    for (const auto &e : a.events) {
        EXPECT_GE(e.at_ms, 0.0);
        EXPECT_LE(e.at_ms, o.horizon_ms);
        EXPECT_GE(e.replica, 0);
        EXPECT_LT(e.replica, o.num_replicas);
        if (e.kind == FaultKind::SlowStart) {
            EXPECT_GE(e.factor, o.min_slow_factor);
            EXPECT_LE(e.factor, o.max_slow_factor);
        }
    }

    o.seed = 43;
    serving::FaultPlan c = serving::seededFaultPlan(o);
    bool differs = c.events.size() != a.events.size();
    for (size_t i = 0; !differs && i < a.events.size(); ++i)
        differs = c.events[i].at_ms != a.events[i].at_ms;
    EXPECT_TRUE(differs) << "seed had no effect on the plan";
}

// ---------------------------------------------------------------
// FleetScheduler scripted scenarios
// ---------------------------------------------------------------

/** The acceptance scenario: a replica crashes mid-decode and its
 *  in-flight request finishes on the survivor with exactly
 *  output_len tokens, a recorded failover, and a hand-computed
 *  schedule. Unit cost: steps at [0,1), [1,2), ... */
TEST(Fleet, CrashMidDecodeFailsOverTokenExact)
{
    auto options = fleetOptions(2);
    // Crash replica 0 at t = 3.5 — strictly inside its fourth
    // step [3, 4), which is therefore aborted.
    options.faults.events.push_back(
        {3.5, 0, FaultKind::Crash, 1.0});

    serving::AnalyticCostModel cost(unitCost());
    serving::FleetScheduler fleet(options, cost);
    // LeastKvLoad on an idle fleet ties to replica 0.
    auto result = fleet.run({makeRequest(0, 0.0, 8, 8)});
    const auto &fm = result.metrics;

    EXPECT_EQ(fm.completed, 1);
    EXPECT_EQ(fm.crashes, 1);
    EXPECT_EQ(fm.failovers, 1);
    EXPECT_EQ(fm.aborted_steps, 1);
    EXPECT_EQ(fm.requests_lost, 0);
    EXPECT_DOUBLE_EQ(fm.availability(), 1.0);

    // Replica 0 committed prefill [0,1) + decodes [1,2), [2,3):
    // 3 tokens. The evacuated request waits out one backoff
    // (2 ms), recompute-prefills on replica 1 at [5.5, 6.5), and
    // decodes the remaining 4 tokens — finish at 10.5.
    ASSERT_EQ(result.replicas[0].steps.size(), 3u);
    EXPECT_DOUBLE_EQ(result.replicas[0].steps.back().start_ms +
                         result.replicas[0].steps.back().step_ms,
                     3.0);
    ASSERT_EQ(result.replicas[1].steps.size(), 5u);
    EXPECT_DOUBLE_EQ(result.replicas[1].steps[0].start_ms, 5.5);
    ASSERT_EQ(result.replicas[1].steps[0].prefill_ids.size(), 1u);
    EXPECT_EQ(result.replicas[1].steps[0].prefill_ids[0], 0);

    EXPECT_EQ(appearancesOn(result, 0, 0) +
                  appearancesOn(result, 1, 0),
              8);

    ASSERT_EQ(fm.requests.size(), 1u);
    const auto &done = fm.requests[0];
    EXPECT_EQ(done.replica, 1);
    EXPECT_EQ(done.failovers, 1);
    EXPECT_EQ(done.preemptions, 0);
    // The first token was emitted on replica 0 before the crash;
    // failover re-derives KV, not the already-emitted token.
    EXPECT_DOUBLE_EQ(done.first_token_ms, 1.0);
    EXPECT_DOUBLE_EQ(done.finish_ms, 10.5);
    EXPECT_DOUBLE_EQ(fm.makespan_ms, 10.5);

    // Bit-identical across two executions.
    serving::AnalyticCostModel cost2(unitCost());
    serving::FleetScheduler fleet2(options, cost2);
    auto again = fleet2.run({makeRequest(0, 0.0, 8, 8)});
    ASSERT_EQ(again.metrics.requests.size(), 1u);
    EXPECT_DOUBLE_EQ(again.metrics.requests[0].finish_ms, 10.5);
    ASSERT_EQ(again.replicas[1].steps.size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
        EXPECT_DOUBLE_EQ(again.replicas[1].steps[i].start_ms,
                         result.replicas[1].steps[i].start_ms);
        EXPECT_EQ(again.replicas[1].steps[i].decode_ids,
                  result.replicas[1].steps[i].decode_ids);
    }
}

TEST(Fleet, LeastKvLoadBreaksTiesByQueueThenId)
{
    // Every t = 0 arrival routes before the first launch, so a
    // replica's KV load is exactly its queued input tokens.
    std::vector<Request> trace{
        makeRequest(0, 0.0, 64, 4), // 3-way tie -> r0 (lowest id)
        makeRequest(1, 0.0, 16, 4), // r1/r2 tie -> r1 (lowest id)
        makeRequest(2, 0.0, 32, 4), // least load -> r2
        makeRequest(3, 0.0, 16, 4), // least load -> r1
        // r1 and r2 both hold 32 tokens; r2's queue is shallower
        // (1 vs 2), so it wins despite the higher id.
        makeRequest(4, 0.0, 8, 4),
    };
    serving::AnalyticCostModel cost(unitCost());
    {
        serving::FleetScheduler fleet(fleetOptions(3), cost);
        auto result = fleet.run(trace);
        std::map<int64_t, int> on;
        for (const auto &r : result.metrics.requests)
            on[r.id] = r.replica;
        EXPECT_EQ(on, (std::map<int64_t, int>{
                          {0, 0}, {1, 1}, {2, 2}, {3, 1}, {4, 2}}));
    }

    // Down and draining replicas are skipped however light their
    // load: at t = 0.5 r1 crashes and r2 drains, so the arrival and
    // r1's two failed-over residents all land on r0, the most
    // loaded replica.
    auto options = fleetOptions(3);
    options.faults.events.push_back({0.5, 1, FaultKind::Crash, 1.0});
    options.faults.events.push_back(
        {0.5, 2, FaultKind::DrainStart, 1.0});
    trace.push_back(makeRequest(5, 0.5, 8, 4));
    serving::FleetScheduler fleet(options, cost);
    auto result = fleet.run(trace);
    EXPECT_EQ(result.metrics.completed, 6);
    std::map<int64_t, int> on;
    for (const auto &r : result.metrics.requests)
        on[r.id] = r.replica;
    EXPECT_EQ(on, (std::map<int64_t, int>{
                      {0, 0}, {1, 0}, {2, 2}, {3, 0}, {4, 2}, {5, 0}}));
}

TEST(Fleet, DrainHandsQueueOverWithoutRetryPenalty)
{
    auto options = fleetOptions(2);
    options.replica.max_batch = 1;
    // Drain replica 0 at t = 1.5 while it still queues id 2.
    options.faults.events.push_back(
        {1.5, 0, FaultKind::DrainStart, 1.0});

    serving::AnalyticCostModel cost(unitCost());
    serving::FleetScheduler fleet(options, cost);
    // Least KV load: 0 -> r0, 1 -> r1, 2 -> r0 (equal load and
    // queue depth, lowest id; queued behind 0).
    auto result = fleet.run({makeRequest(0, 0.0, 8, 4),
                             makeRequest(1, 0.0, 8, 4),
                             makeRequest(2, 0.0, 8, 4)});
    const auto &fm = result.metrics;

    EXPECT_EQ(fm.completed, 3);
    EXPECT_EQ(fm.drains, 1);
    EXPECT_EQ(fm.crashes, 0);
    // Graceful: the hand-off consumed no retry attempt.
    EXPECT_EQ(fm.failovers, 0);
    EXPECT_EQ(fm.requests_lost, 0);
    EXPECT_DOUBLE_EQ(fm.availability(), 1.0);

    std::map<int64_t, int> finished_on;
    for (const auto &r : fm.requests) {
        finished_on[r.id] = r.replica;
        EXPECT_EQ(r.failovers, 0);
    }
    // Residents finish where they ran; the evacuated queue entry
    // finishes on the survivor.
    EXPECT_EQ(finished_on.at(0), 0);
    EXPECT_EQ(finished_on.at(1), 1);
    EXPECT_EQ(finished_on.at(2), 1);
}

/** Two replicas, four 4-token pages each. Replica 1 drains over
 *  [0, 1), so both t = 0 arrivals (ids 0 and 1, 4 prompt tokens, 8
 *  output tokens) land on replica 0. They prefill together in
 *  [0, 2) and decode in 2 ms steps until the step at t = 10, whose
 *  9-token contexts need 3 pages each: id 1, the later admission,
 *  is preempted back to the queue with 5 tokens generated, and
 *  stays there — its recompute needs 3 pages while id 0 holds 3 of
 *  the 4 — while id 0 decodes alone in [10, 11), [11, 12),
 *  [12, 13). From t = 10 id 1's progress lives only in its queue
 *  entry. */
serving::FleetOptions
preemptedOnReplicaZero()
{
    auto options = fleetOptions(2);
    options.replica.page_tokens = 4;
    options.replica.kv_budget_tokens = 16;
    options.faults.events.push_back(
        {0.0, 1, FaultKind::DrainStart, 1.0});
    options.faults.events.push_back(
        {1.0, 1, FaultKind::DrainEnd, 1.0});
    return options;
}

const std::vector<Request> kPreemptedTrace{
    makeRequest(0, 0.0, 4, 8), makeRequest(1, 0.0, 4, 8)};

/** The completion record of @p id. */
const serving::RequestMetrics &
completionOf(const serving::FleetResult &result, int64_t id)
{
    for (const auto &r : result.metrics.requests)
        if (r.id == id)
            return r;
    throw std::runtime_error("request did not complete");
}

TEST(Fleet, PreemptedProgressSurvivesCrash)
{
    auto options = preemptedOnReplicaZero();
    // Crash replica 0 inside id 0's step [11, 12): id 0 leaves with
    // 6 tokens, id 1 with the 5 its queue entry holds. Both wait
    // out one backoff (ready 13.5) and move to replica 1, where id
    // 0 recomputes first and id 1 waits in the queue again until
    // id 0 finishes at 15.5.
    options.faults.events.push_back(
        {11.5, 0, FaultKind::Crash, 1.0});
    serving::AnalyticCostModel cost(unitCost());
    auto result =
        serving::FleetScheduler(options, cost).run(kPreemptedTrace);
    const auto &fm = result.metrics;

    EXPECT_EQ(fm.completed, 2);
    EXPECT_EQ(fm.preemptions, 1);
    EXPECT_EQ(fm.failovers, 2);
    EXPECT_EQ(fm.requests_lost, 0);

    const auto &moved = completionOf(result, 1);
    EXPECT_EQ(moved.replica, 1);
    EXPECT_EQ(moved.preemptions, 1);
    EXPECT_EQ(moved.failovers, 1);
    EXPECT_DOUBLE_EQ(moved.first_token_ms, 2.0);
    EXPECT_DOUBLE_EQ(moved.finish_ms, 18.5);
    // 5 tokens on replica 0, the other 3 (recompute prefill and two
    // decodes) on replica 1.
    EXPECT_EQ(appearancesOn(result, 0, 1), 5);
    EXPECT_EQ(appearancesOn(result, 1, 1), 3);
}

TEST(Fleet, PreemptedProgressSurvivesDrain)
{
    auto options = preemptedOnReplicaZero();
    // Drain replica 0 while id 1 is queued there: id 0 finishes in
    // place, id 1's queue entry moves to replica 1 at once, with no
    // attempt consumed, and recomputes from its 5 tokens at 11.5.
    options.faults.events.push_back(
        {11.5, 0, FaultKind::DrainStart, 1.0});
    serving::AnalyticCostModel cost(unitCost());
    auto result =
        serving::FleetScheduler(options, cost).run(kPreemptedTrace);
    const auto &fm = result.metrics;

    EXPECT_EQ(fm.completed, 2);
    EXPECT_EQ(fm.preemptions, 1);
    EXPECT_EQ(fm.failovers, 0);
    EXPECT_EQ(completionOf(result, 0).replica, 0);

    const auto &moved = completionOf(result, 1);
    EXPECT_EQ(moved.replica, 1);
    EXPECT_EQ(moved.preemptions, 1);
    EXPECT_EQ(moved.failovers, 0);
    EXPECT_DOUBLE_EQ(moved.first_token_ms, 2.0);
    EXPECT_DOUBLE_EQ(moved.finish_ms, 14.5);
    EXPECT_EQ(appearancesOn(result, 0, 1), 5);
    EXPECT_EQ(appearancesOn(result, 1, 1), 3);
}

TEST(Fleet, PreemptedRequestExpiresOnceWhileQueued)
{
    auto options = preemptedOnReplicaZero();
    auto trace = kPreemptedTrace;
    // Passes while id 1 sits preempted in replica 0's queue; the
    // sweep at the next round, t = 12, sheds it.
    trace[1].deadline_ms = 11.5;
    serving::AnalyticCostModel cost(unitCost());
    auto result = serving::FleetScheduler(options, cost).run(trace);
    const auto &fm = result.metrics;

    EXPECT_EQ(fm.completed, 1);
    EXPECT_EQ(fm.preemptions, 1);
    EXPECT_EQ(fm.expired_deadline, 1);
    EXPECT_EQ(fm.requests_lost, 0);
    ASSERT_EQ(result.rejected.size(), 1u);
    EXPECT_EQ(result.rejected[0].id, 1);
    EXPECT_EQ(result.rejected[0].reason,
              serving::RejectReason::DeadlineExpired);
    EXPECT_DOUBLE_EQ(result.rejected[0].at_ms, 12.0);
    EXPECT_DOUBLE_EQ(completionOf(result, 0).finish_ms, 13.0);
}

TEST(Fleet, RetryExhaustionLosesTheRequest)
{
    auto options = fleetOptions(1);
    options.max_retries = 0; // first evacuation is fatal
    options.faults.events.push_back(
        {1.5, 0, FaultKind::Crash, 1.0});

    serving::AnalyticCostModel cost(unitCost());
    serving::FleetScheduler fleet(options, cost);
    auto result = fleet.run({makeRequest(0, 0.0, 8, 8)});
    const auto &fm = result.metrics;

    EXPECT_EQ(fm.completed, 0);
    EXPECT_EQ(fm.crashes, 1);
    EXPECT_EQ(fm.failovers, 1);
    EXPECT_EQ(fm.requests_lost, 1);
    ASSERT_EQ(result.lost.size(), 1u);
    EXPECT_EQ(result.lost[0].id, 0);
    EXPECT_EQ(result.lost[0].attempts, 1);
    EXPECT_DOUBLE_EQ(result.lost[0].at_ms, 1.5);
    EXPECT_DOUBLE_EQ(fm.availability(), 0.0);
}

TEST(Fleet, TotalOutageParksArrivalsUntilRecovery)
{
    auto options = fleetOptions(1);
    options.faults.events.push_back(
        {1.0, 0, FaultKind::Crash, 1.0});
    options.faults.events.push_back(
        {10.0, 0, FaultKind::Recover, 1.0});

    serving::AnalyticCostModel cost(unitCost());
    serving::FleetScheduler fleet(options, cost);
    // Arrives mid-outage; no replica is eligible until t = 10.
    auto result = fleet.run({makeRequest(0, 2.0, 8, 3)});
    const auto &fm = result.metrics;

    EXPECT_EQ(fm.completed, 1);
    EXPECT_EQ(fm.crashes, 1);
    EXPECT_EQ(fm.recoveries, 1);
    EXPECT_EQ(fm.requests_lost, 0);
    EXPECT_EQ(fm.failovers, 0); // parked, never evacuated
    ASSERT_EQ(fm.requests.size(), 1u);
    // Prefill launches at the recovery instant: [10, 11).
    EXPECT_DOUBLE_EQ(fm.requests[0].first_token_ms, 11.0);
    EXPECT_DOUBLE_EQ(fm.requests[0].finish_ms, 13.0);
    // Availability counts the request served; uptime shows the
    // 9 ms hole: up 1 + 3 of 13.
    EXPECT_DOUBLE_EQ(fm.availability(), 1.0);
    EXPECT_NEAR(fm.uptimeFraction(), 4.0 / 13.0, 1e-12);
}

TEST(Fleet, StrandedRequestsAreLostNotWedged)
{
    auto options = fleetOptions(1);
    options.faults.events.push_back(
        {1.5, 0, FaultKind::Crash, 1.0}); // no recovery, ever

    serving::AnalyticCostModel cost(unitCost());
    serving::FleetScheduler fleet(options, cost);
    auto result = fleet.run(
        {makeRequest(0, 0.0, 8, 8), makeRequest(1, 5.0, 8, 2)});
    const auto &fm = result.metrics;

    // Request 0 was evacuated (one attempt), request 1 arrived
    // into a dead fleet (zero attempts); both strand and are
    // recorded lost instead of hanging the run.
    EXPECT_EQ(fm.completed, 0);
    EXPECT_EQ(fm.requests_lost, 2);
    ASSERT_EQ(result.lost.size(), 2u);
    EXPECT_DOUBLE_EQ(fm.availability(), 0.0);
}

TEST(Fleet, SlowdownScalesOnlyStepsLaunchedInTheWindow)
{
    auto options = fleetOptions(1);
    options.faults.events.push_back(
        {0.5, 0, FaultKind::SlowStart, 3.0});

    serving::AnalyticCostModel cost(unitCost());
    serving::FleetScheduler fleet(options, cost);
    auto result = fleet.run({makeRequest(0, 0.0, 8, 4)});
    const auto &fm = result.metrics;

    EXPECT_EQ(fm.slowdowns, 1);
    ASSERT_EQ(result.replicas[0].steps.size(), 4u);
    // The prefill launched at t = 0 keeps its nominal cost; every
    // decode launches inside the window at 3x.
    EXPECT_DOUBLE_EQ(result.replicas[0].steps[0].step_ms, 1.0);
    for (size_t i = 1; i < 4; ++i)
        EXPECT_DOUBLE_EQ(result.replicas[0].steps[i].step_ms,
                         3.0);
    EXPECT_DOUBLE_EQ(fm.makespan_ms, 10.0);
}

TEST(Fleet, DegradationSwapsTheCostOracle)
{
    auto options = fleetOptions(1);
    options.faults.events.push_back(
        {1.5, 0, FaultKind::DegradeStart, 1.0});
    options.faults.events.push_back(
        {3.0, 0, FaultKind::DegradeEnd, 1.0});

    serving::AnalyticCostModel cost(unitCost());
    auto degraded_options = unitCost();
    degraded_options.per_seq_ms = 2.0; // a halved link
    serving::AnalyticCostModel degraded(degraded_options);
    serving::FleetScheduler fleet(options, cost, &degraded);
    auto result = fleet.run({makeRequest(0, 0.0, 8, 4)});
    const auto &fm = result.metrics;

    EXPECT_EQ(fm.degrades, 1);
    ASSERT_EQ(result.replicas[0].steps.size(), 4u);
    // [0,1) and [1,2) nominal; [2,4) costed by the degraded
    // model; DegradeEnd at 3.0 restores the oracle before the
    // final launch at 4.0.
    EXPECT_DOUBLE_EQ(result.replicas[0].steps[0].step_ms, 1.0);
    EXPECT_DOUBLE_EQ(result.replicas[0].steps[1].step_ms, 1.0);
    EXPECT_DOUBLE_EQ(result.replicas[0].steps[2].step_ms, 2.0);
    EXPECT_DOUBLE_EQ(result.replicas[0].steps[3].step_ms, 1.0);
    EXPECT_DOUBLE_EQ(fm.makespan_ms, 5.0);

    // Without a degraded oracle the window is a no-op.
    serving::AnalyticCostModel cost2(unitCost());
    serving::FleetScheduler plain(options, cost2);
    auto calm = plain.run({makeRequest(0, 0.0, 8, 4)});
    EXPECT_EQ(calm.metrics.degrades, 0);
    EXPECT_DOUBLE_EQ(calm.metrics.makespan_ms, 4.0);
}

TEST(Fleet, ArrivalAtCrashInstantRoutesToSurvivor)
{
    auto options = fleetOptions(2);
    options.faults.events.push_back(
        {2.0, 0, FaultKind::Crash, 1.0});

    serving::AnalyticCostModel cost(unitCost());
    serving::FleetScheduler fleet(options, cost);
    // Faults fire before arrivals at an equal instant, so the
    // t = 2 arrival must see replica 0 down.
    auto result = fleet.run({makeRequest(0, 2.0, 8, 2)});
    ASSERT_EQ(result.metrics.requests.size(), 1u);
    EXPECT_EQ(result.metrics.requests[0].replica, 1);
    EXPECT_EQ(result.metrics.crashes, 1);
    EXPECT_EQ(result.metrics.failovers, 0);
}

TEST(Fleet, ReplicaQueueFullStillRejects)
{
    auto options = fleetOptions(1);
    options.replica.max_batch = 1;
    options.replica.max_queue_depth = 1;

    serving::AnalyticCostModel cost(unitCost());
    serving::FleetScheduler fleet(options, cost);
    // id 0 resident by t = 0.5, id 1 queued, id 2 over capacity.
    auto result = fleet.run({makeRequest(0, 0.0, 8, 4),
                             makeRequest(1, 0.5, 8, 4),
                             makeRequest(2, 0.6, 8, 4)});
    EXPECT_EQ(result.metrics.completed, 2);
    EXPECT_EQ(result.metrics.rejected_queue_full, 1);
    ASSERT_EQ(result.rejected.size(), 1u);
    EXPECT_EQ(result.rejected[0].id, 2);
    EXPECT_EQ(result.rejected[0].reason,
              serving::RejectReason::QueueFull);
}

TEST(Fleet, RejectsFaultPlanNamingUnknownReplica)
{
    auto options = fleetOptions(2);
    options.faults.events.push_back(
        {1.0, 5, FaultKind::Crash, 1.0});
    serving::AnalyticCostModel cost(unitCost());
    EXPECT_THROW(serving::FleetScheduler(options, cost),
                 FatalError);
}

TEST(Fleet, RejectsNonFiniteOptions)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::nan("");
    serving::AnalyticCostModel cost(unitCost());
    auto expectRejected = [&](auto mutate) {
        auto options = fleetOptions(2);
        mutate(options);
        EXPECT_THROW(serving::FleetScheduler(options, cost),
                     FatalError);
    };
    for (double bad : {inf, nan}) {
        expectRejected([&](auto &o) { o.retry_backoff_ms = bad; });
        expectRejected(
            [&](auto &o) { o.recovery_reload_ms = bad; });
    }
}

TEST(Fleet, RejectsNonFiniteArrivalInsteadOfDroppingIt)
{
    // Regression: request 2 arriving at +inf passed the >= 0
    // check and silently vanished from the accounting
    // (completed 1, rejected 0, lost 0).
    serving::AnalyticCostModel cost(unitCost());
    serving::FleetScheduler fleet(fleetOptions(2), cost);
    std::vector<Request> trace = {
        makeRequest(1, 0.0, 4, 2),
        makeRequest(2, std::numeric_limits<double>::infinity(), 4,
                    2)};
    EXPECT_THROW(fleet.run(trace), FatalError);
    Request late_deadline = makeRequest(3, 0.0, 4, 2);
    late_deadline.deadline_ms =
        std::numeric_limits<double>::infinity();
    EXPECT_THROW(fleet.run({late_deadline}), FatalError);
}

TEST(Fleet, FarFutureArrivalFailsInsteadOfStayingInFlight)
{
    // Regression: at 1e16 ms a sub-millisecond step rounds away
    // (now + step_ms == now), so its completion event looked
    // already handled and the run returned with the request still
    // in flight and no error. The contract for hostile input is a
    // valid result or a FatalError.
    serving::AnalyticCostModel cost;
    serving::FleetScheduler fleet(fleetOptions(1), cost);
    for (double at : {1e16, 1e17})
        EXPECT_THROW(fleet.run({makeRequest(1, at, 8, 4)}), FatalError)
            << at;
    auto served = fleet.run({makeRequest(1, 1e15, 8, 4)});
    EXPECT_EQ(served.metrics.completed, 1);
    EXPECT_EQ(served.metrics.in_flight, 0);
}

} // namespace

TEST(Fleet, RecoveryReloadDefersEligibility)
{
    // Replica 0 crashes at t=4 and recovers at t=10 with a 20 ms
    // weight-reload window: it must take no step before t=30,
    // and the window counts as down time.
    serving::AnalyticCostModel cost(unitCost());
    auto options = fleetOptions(2);
    options.recovery_reload_ms = 20.0;
    options.faults.events.push_back(
        {4.0, 0, FaultKind::Crash, 1.0});
    options.faults.events.push_back(
        {10.0, 0, FaultKind::Recover, 1.0});

    // Arrivals keep coming through the outage and past the
    // reload end, so the rejoined replica has work to attract.
    std::vector<Request> trace;
    for (int64_t i = 0; i < 24; ++i)
        trace.push_back(
            makeRequest(i, 4.0 * static_cast<double>(i), 4, 40));

    serving::FleetScheduler fleet(options, cost);
    auto result = fleet.run(trace);
    const auto &fm = result.metrics;

    EXPECT_EQ(fm.crashes, 1);
    EXPECT_EQ(fm.recoveries, 1);
    EXPECT_EQ(fm.reloads, 1);
    EXPECT_DOUBLE_EQ(fm.reload_ms_total, 20.0);
    EXPECT_EQ(fm.completed, 24);

    // No step on replica 0 starts inside [4, 30).
    for (const auto &s : result.replicas[0].steps)
        EXPECT_TRUE(s.start_ms < 4.0 || s.start_ms >= 30.0)
            << s.start_ms;
    // It does rejoin: work launches at (or after) reload end.
    bool stepped_after = false;
    for (const auto &s : result.replicas[0].steps)
        stepped_after = stepped_after || s.start_ms >= 30.0;
    EXPECT_TRUE(stepped_after);

    // Down time spans crash -> reload end, not crash -> recover.
    EXPECT_LE(fm.replica_up_ms[0], fm.makespan_ms - 26.0);

    // A zero-window fleet (the default) recovers at t=10 exactly
    // as before the reload feature existed — strictly more up
    // time, no reloads charged.
    auto instant = options;
    instant.recovery_reload_ms = 0.0;
    serving::AnalyticCostModel cost2(unitCost());
    serving::FleetScheduler fleet2(instant, cost2);
    auto result2 = fleet2.run(trace);
    EXPECT_EQ(result2.metrics.reloads, 0);
    EXPECT_DOUBLE_EQ(result2.metrics.reload_ms_total, 0.0);
    bool stepped_in_window = false;
    for (const auto &s : result2.replicas[0].steps)
        stepped_in_window =
            stepped_in_window ||
            (s.start_ms >= 10.0 && s.start_ms < 30.0);
    EXPECT_TRUE(stepped_in_window);
}

TEST(Fleet, RecoveryReloadScalesWithStorageTier)
{
    // The reload window is derived from a real artifact stream:
    // slower tiers keep the recovering replica out longer, which
    // shows up directly in fleet up-time.
    auto artifact = serving::ModelArtifact::fromConfig(
        models::gpt2Config());
    auto runWithTier =
        [&](const serving::StorageTierProfile &tier) {
            serving::WeightStreamOptions so;
            so.tier = tier;
            double reload_ms = serving::WeightStreamer(so)
                                   .plan(artifact)
                                   .streamMs();
            serving::AnalyticCostModel cost(unitCost());
            auto options = fleetOptions(2);
            options.recovery_reload_ms = reload_ms;
            options.faults.events.push_back(
                {4.0, 0, FaultKind::Crash, 1.0});
            options.faults.events.push_back(
                {8.0, 0, FaultKind::Recover, 1.0});
            std::vector<Request> trace;
            for (int64_t i = 0; i < 16; ++i)
                trace.push_back(makeRequest(i, 0.0, 4, 200));
            serving::FleetScheduler fleet(options, cost);
            return fleet.run(trace);
        };
    auto gp3 = runWithTier(serving::gp3Tier());
    auto io2 = runWithTier(serving::io2Tier());
    auto s3 = runWithTier(serving::s3Tier());

    EXPECT_GT(gp3.metrics.reload_ms_total,
              io2.metrics.reload_ms_total);
    EXPECT_GT(s3.metrics.reload_ms_total,
              gp3.metrics.reload_ms_total);
    EXPECT_GT(io2.metrics.replica_up_ms[0],
              gp3.metrics.replica_up_ms[0]);
}

TEST(Fleet, HotSwapReStreamsUnderLiveTraffic)
{
    // Scripted hot swap: replica 0 is gracefully evacuated at
    // t=10, charged the swap reload window, and rejoins
    // automatically — no Recover event, no retry attempts
    // consumed, and the fleet keeps serving on replica 1
    // throughout.
    serving::AnalyticCostModel cost(unitCost());
    auto options = fleetOptions(2);
    options.recovery_reload_ms = 25.0;
    options.faults.events.push_back(
        {10.0, 0, FaultKind::Swap, 1.0});

    // Live traffic before, during, and after the swap window.
    std::vector<Request> trace;
    for (int64_t i = 0; i < 24; ++i)
        trace.push_back(
            makeRequest(i, 3.0 * static_cast<double>(i), 4, 30));

    auto run = [&]() {
        serving::AnalyticCostModel c(unitCost());
        serving::FleetScheduler fleet(options, c);
        return fleet.run(trace);
    };
    auto result = run();
    const auto &fm = result.metrics;

    EXPECT_EQ(fm.swaps, 1);
    EXPECT_EQ(fm.crashes, 0);
    EXPECT_EQ(fm.recoveries, 0);
    EXPECT_EQ(fm.reloads, 1);
    EXPECT_DOUBLE_EQ(fm.reload_ms_total, 25.0);

    // Graceful: evacuated requests consume no retry attempt and
    // nothing is lost — every request completes in full.
    EXPECT_EQ(fm.failovers, 0);
    EXPECT_EQ(fm.requests_lost, 0);
    EXPECT_EQ(fm.completed, 24);
    EXPECT_DOUBLE_EQ(fm.availability(), 1.0);
    for (const auto &r : fm.requests)
        EXPECT_EQ(r.failovers, 0);

    // No step on replica 0 inside the swap window [10, 35); it
    // rejoins after, with no Recover event in the plan.
    for (const auto &s : result.replicas[0].steps)
        EXPECT_TRUE(s.start_ms < 10.0 || s.start_ms >= 35.0)
            << s.start_ms;
    bool rejoined = false;
    for (const auto &s : result.replicas[0].steps)
        rejoined = rejoined || s.start_ms >= 35.0;
    EXPECT_TRUE(rejoined);
    // Replica 1 served straight through the swap window.
    bool served_during = false;
    for (const auto &s : result.replicas[1].steps)
        served_during = served_during ||
                        (s.start_ms >= 10.0 && s.start_ms < 35.0);
    EXPECT_TRUE(served_during);

    // Swapping a down replica is a tolerant no-op.
    auto down_first = options;
    down_first.faults.events.clear();
    down_first.faults.events.push_back(
        {8.0, 0, FaultKind::Crash, 1.0});
    down_first.faults.events.push_back(
        {10.0, 0, FaultKind::Swap, 1.0});
    serving::AnalyticCostModel c3(unitCost());
    serving::FleetScheduler fleet3(down_first, c3);
    auto result3 = fleet3.run(trace);
    EXPECT_EQ(result3.metrics.swaps, 0);
    EXPECT_EQ(result3.metrics.reloads, 0);

    // The swap scenario replays bit-identically.
    auto again = run();
    EXPECT_DOUBLE_EQ(again.metrics.makespan_ms, fm.makespan_ms);
    ASSERT_EQ(again.replicas.size(), result.replicas.size());
    for (size_t r = 0; r < result.replicas.size(); ++r) {
        const auto &a = result.replicas[r].steps;
        const auto &b = again.replicas[r].steps;
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_DOUBLE_EQ(a[i].start_ms, b[i].start_ms);
            EXPECT_DOUBLE_EQ(a[i].step_ms, b[i].step_ms);
            EXPECT_EQ(a[i].prefill_ids, b[i].prefill_ids);
            EXPECT_EQ(a[i].decode_ids, b[i].decode_ids);
        }
    }
}

TEST(Fleet, SwapReloadDefaultsToRecoveryWindow)
{
    // A swap charges the recovery reload window.
    serving::AnalyticCostModel cost(unitCost());
    auto options = fleetOptions(2);
    options.recovery_reload_ms = 12.0;
    options.faults.events.push_back(
        {5.0, 0, FaultKind::Swap, 1.0});
    std::vector<Request> trace = {makeRequest(0, 0.0, 4, 40),
                                  makeRequest(1, 0.0, 4, 40)};
    serving::FleetScheduler fleet(options, cost);
    auto result = fleet.run(trace);
    EXPECT_EQ(result.metrics.swaps, 1);
    EXPECT_DOUBLE_EQ(result.metrics.reload_ms_total, 12.0);

    serving::FleetOptions bad = fleetOptions(1);
    bad.recovery_reload_ms = -1.0;
    serving::AnalyticCostModel c2(unitCost());
    EXPECT_THROW(serving::FleetScheduler(bad, c2), FatalError);
}
