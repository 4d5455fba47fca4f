/** @file Differential suite for the fleet: over 100 seeded
 *  (trace, fleet-config, fault-plan) scenarios, calm and under
 *  faults, FleetScheduler must reproduce the reference fleet
 *  (tests/oracles/serving/reference_fleet) bit for bit. The
 *  reference is a plain loop that wakes at every step end and shares
 *  no code with ReplicaEngine, RequestQueue, KvPool, FaultInjector or
 *  FleetScheduler; production plans decode runs and skips the
 *  instants where only a repeated decode step completes. Serving a
 *  TraceGenerator must also reproduce serving the materialized
 *  vector of the same generator. "Bit for bit" is checked on every
 *  observable: merged and per-replica request records, per-replica
 *  step records (on the half of the seeds that keep them), rejection
 *  and loss logs, every aggregate and fleet counter, busy-time and
 *  latency sums, the makespan, and the streaming sketches'
 *  quantiles. The round count is the exception: production must
 *  take no more rounds than the instants the reference woke at.
 *  "Heap" in the two seeded case names is production's decode-run
 *  planning and "Legacy" the reference's per-step loop; the names
 *  stay so the 200 case ids compare across the suite's history.
 *  Scripted cases below cut a decode run at each of its cut rules,
 *  and park a deep retry buffer through a whole-fleet outage, and
 *  hold production to the reference there too, with strictly fewer
 *  rounds; others run decode runs across page growth at 1- to
 *  4-token pages and pin the rounds of one run spanning a bucket,
 *  and a fault that changes no engine leaves its run standing. The
 *  last cases drive one ReplicaEngine through a run both ways —
 *  stepped one launch at a time and caught up in one completeDue()
 *  call — and hold the engines equal, also where the run grows pages
 *  and where the free list ends it. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/reference_fleet.h"
#include "serving/trace.h"
#include "serving/weights.h"
#include "support/error.h"

using namespace streamtensor;
using serving::Request;

namespace {

/** Seed-derived scenario shared by every comparison: varied fleet
 *  shape, retry budget, deadlines on a fifth of the
 *  seeds, and a dense fault plan (crashes, slowdowns, drains). */
struct Scenario
{
    serving::TraceOptions trace;
    serving::TraceShape shape = serving::TraceShape::Poisson;
    serving::FleetOptions fleet;
};

Scenario
makeScenario(uint64_t seed, bool with_faults)
{
    Scenario s;
    s.shape = seed % 2 == 0 ? serving::TraceShape::Poisson
                            : serving::TraceShape::Bursty;
    s.trace.seed = seed;
    s.trace.num_requests = 32 + static_cast<int64_t>(seed % 33);
    s.trace.mean_interarrival_ms =
        1.0 + static_cast<double>(seed % 5);
    s.trace.min_input_len = 4;
    s.trace.max_input_len = 96;
    s.trace.min_output_len = 1;
    s.trace.max_output_len = 20;
    if (seed % 3 == 0) {
        s.trace.num_prefix_groups = 2;
        s.trace.shared_prefix_len = 16;
    }
    if (seed % 5 == 0) {
        s.trace.deadline_slack_ms =
            150.0 + 50.0 * static_cast<double>(seed % 4);
    }

    s.fleet.num_replicas = 2 + static_cast<int>(seed % 3);
    s.fleet.replica.max_batch = 2 + static_cast<int64_t>(seed % 5);
    s.fleet.replica.kv_budget_tokens =
        192 + 64 * static_cast<int64_t>(seed % 9);
    s.fleet.replica.max_queue_depth =
        seed % 4 == 0 ? 8 + static_cast<int64_t>(seed % 9) : 0;
    // Half the seeds, in blocks of five so the split crosses every
    // other seed-derived choice, record no steps: production serving
    // runs that way, and decode runs must match there too (the step
    // records alone are then empty on both sides).
    s.fleet.replica.record_steps = seed % 10 < 5;
    s.fleet.max_retries = 1 + static_cast<int64_t>(seed % 3);
    s.fleet.retry_backoff_ms = 1.0 + static_cast<double>(seed % 4);
    // A third of the seeds keep no records so the comparison also
    // covers the streaming-sketch path.
    if (seed % 3 == 1)
        s.fleet.replica.metrics.keep_records =
            serving::MetricsOptions::KeepRecords::Never;

    if (with_faults) {
        serving::SeededFaultOptions fault_options;
        fault_options.seed = seed * 7 + 1;
        fault_options.num_replicas = s.fleet.num_replicas;
        fault_options.horizon_ms = 400.0;
        fault_options.crash_prob = 0.6;
        fault_options.slow_prob = 0.5;
        fault_options.drain_prob = 0.35;
        s.fleet.faults = serving::seededFaultPlan(fault_options);
        // A quarter of the seeds charge recoveries a weight
        // reload; a sixth also hot-swap a replica mid-run, so the
        // two are compared across reload windows too.
        if (seed % 4 == 1)
            s.fleet.recovery_reload_ms =
                20.0 + 10.0 * static_cast<double>(seed % 5);
        if (seed % 6 == 2)
            s.fleet.faults.events.push_back(
                {150.0, static_cast<int>(seed) %
                            s.fleet.num_replicas,
                 serving::FaultKind::Swap, 1.0});
    }
    return s;
}

std::vector<Request>
scenarioTrace(const Scenario &s)
{
    return s.shape == serving::TraceShape::Poisson
               ? serving::poissonTrace(s.trace)
               : serving::burstyTrace(s.trace);
}

serving::FleetResult
runScenario(const Scenario &s, bool via_generator)
{
    serving::AnalyticCostModel cost;
    serving::FleetScheduler fleet(s.fleet, cost);
    if (via_generator) {
        serving::TraceGenerator gen(s.shape, s.trace);
        return fleet.run(gen);
    }
    return fleet.run(scenarioTrace(s));
}

serving::FleetResult
runReference(const Scenario &s)
{
    serving::AnalyticCostModel cost;
    return serving::runReferenceFleet(s.fleet, cost, nullptr,
                                      scenarioTrace(s));
}

void
expectSameRequests(const std::vector<serving::RequestMetrics> &a,
                   const std::vector<serving::RequestMetrics> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].input_len, b[i].input_len);
        EXPECT_EQ(a[i].output_len, b[i].output_len);
        EXPECT_EQ(a[i].preemptions, b[i].preemptions);
        EXPECT_EQ(a[i].failovers, b[i].failovers);
        EXPECT_EQ(a[i].replica, b[i].replica);
        EXPECT_EQ(a[i].arrival_ms, b[i].arrival_ms);
        EXPECT_EQ(a[i].first_token_ms, b[i].first_token_ms);
        EXPECT_EQ(a[i].finish_ms, b[i].finish_ms);
        EXPECT_EQ(a[i].deadline_ms, b[i].deadline_ms);
    }
}

void
expectSameRejections(const std::vector<serving::RejectedRequest> &a,
                     const std::vector<serving::RejectedRequest> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].arrival_ms, b[i].arrival_ms);
        EXPECT_EQ(a[i].reason, b[i].reason);
        EXPECT_EQ(a[i].at_ms, b[i].at_ms);
    }
}

/** Every field one replica's accumulator shares with a merged one —
 *  EXPECT_EQ on doubles deliberately: the contract is bit-identical,
 *  not approximately equal. */
void
expectSameMetrics(const serving::ServingMetrics &a,
                  const serving::ServingMetrics &b)
{
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
    EXPECT_EQ(a.ttft_sum_ms, b.ttft_sum_ms);
    EXPECT_EQ(a.decode_sum_ms, b.decode_sum_ms);
    EXPECT_EQ(a.decode_gaps, b.decode_gaps);
    EXPECT_EQ(a.weight_stream_ms, b.weight_stream_ms);
    EXPECT_EQ(a.weight_bytes_streamed, b.weight_bytes_streamed);
    EXPECT_EQ(a.weight_stall_ms, b.weight_stall_ms);
    EXPECT_EQ(a.latency_sketch.count(), b.latency_sketch.count());
    EXPECT_EQ(a.ttft_sketch.count(), b.ttft_sketch.count());
    for (double p : {50.0, 90.0, 99.0, 100.0}) {
        EXPECT_EQ(a.latency_sketch.quantile(p),
                  b.latency_sketch.quantile(p));
        EXPECT_EQ(a.ttft_sketch.quantile(p), b.ttft_sketch.quantile(p));
    }
    expectSameRequests(a.requests, b.requests);
}

/** Every observable of the two results must match exactly. */
void
expectSameResult(const serving::FleetResult &a,
                 const serving::FleetResult &b)
{
    const serving::FleetMetrics &ma = a.metrics;
    const serving::FleetMetrics &mb = b.metrics;
    expectSameMetrics(ma, mb);
    EXPECT_EQ(ma.requests_lost, mb.requests_lost);
    EXPECT_EQ(ma.failovers, mb.failovers);
    EXPECT_EQ(ma.crashes, mb.crashes);
    EXPECT_EQ(ma.recoveries, mb.recoveries);
    EXPECT_EQ(ma.drains, mb.drains);
    EXPECT_EQ(ma.degrades, mb.degrades);
    EXPECT_EQ(ma.swaps, mb.swaps);
    EXPECT_EQ(ma.reloads, mb.reloads);
    EXPECT_EQ(ma.reload_ms_total, mb.reload_ms_total);
    EXPECT_EQ(ma.slowdowns, mb.slowdowns);
    EXPECT_EQ(ma.aborted_steps, mb.aborted_steps);
    EXPECT_EQ(ma.replica_up_ms, mb.replica_up_ms);

    expectSameRejections(a.rejected, b.rejected);
    ASSERT_EQ(a.lost.size(), b.lost.size());
    for (size_t i = 0; i < a.lost.size(); ++i) {
        EXPECT_EQ(a.lost[i].id, b.lost[i].id);
        EXPECT_EQ(a.lost[i].at_ms, b.lost[i].at_ms);
        EXPECT_EQ(a.lost[i].attempts, b.lost[i].attempts);
    }

    EXPECT_EQ(a.hit_step_limit, b.hit_step_limit);
    ASSERT_EQ(a.replicas.size(), b.replicas.size());
    for (size_t r = 0; r < a.replicas.size(); ++r) {
        SCOPED_TRACE("replica " + std::to_string(r));
        expectSameMetrics(a.replicas[r].metrics, b.replicas[r].metrics);
        expectSameRejections(a.replicas[r].rejected,
                             b.replicas[r].rejected);
        const auto &sa = a.replicas[r].steps;
        const auto &sb = b.replicas[r].steps;
        ASSERT_EQ(sa.size(), sb.size());
        for (size_t i = 0; i < sa.size(); ++i) {
            EXPECT_EQ(sa[i].start_ms, sb[i].start_ms) << "step " << i;
            EXPECT_EQ(sa[i].step_ms, sb[i].step_ms);
            EXPECT_EQ(sa[i].weights_wait_ms, sb[i].weights_wait_ms);
            EXPECT_EQ(sa[i].prefill_ids, sb[i].prefill_ids);
            EXPECT_EQ(sa[i].decode_ids, sb[i].decode_ids);
            EXPECT_EQ(sa[i].preempted_ids, sb[i].preempted_ids);
            EXPECT_EQ(sa[i].pages_active, sb[i].pages_active);
            EXPECT_EQ(sa[i].pages_cached, sb[i].pages_cached);
            EXPECT_EQ(sa[i].pages_free, sb[i].pages_free);
            EXPECT_EQ(sa[i].queue_depth, sb[i].queue_depth);
        }
    }
}

class FleetDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FleetDifferential, HeapMatchesLegacyUnderFaults)
{
    Scenario s = makeScenario(GetParam(), true);
    auto production = runScenario(s, false);
    auto reference = runReference(s);
    expectSameResult(production, reference);
    EXPECT_LE(production.rounds, reference.rounds);
}

TEST_P(FleetDifferential, HeapMatchesLegacyCalm)
{
    Scenario s = makeScenario(GetParam(), false);
    auto production = runScenario(s, false);
    auto reference = runReference(s);
    expectSameResult(production, reference);
    EXPECT_LE(production.rounds, reference.rounds);
}

TEST_P(FleetDifferential, GeneratorMatchesVector)
{
    Scenario s = makeScenario(GetParam(), true);
    expectSameResult(runScenario(s, false), runScenario(s, true));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetDifferential,
                         ::testing::Range<uint64_t>(0, 100));

TEST(FleetDecodeRuns, HeapSkipsRoundsOverTheCalmSeeds)
{
    int64_t production_rounds = 0, reference_rounds = 0;
    for (uint64_t seed = 0; seed < 100; ++seed) {
        Scenario s = makeScenario(seed, false);
        production_rounds += runScenario(s, false).rounds;
        reference_rounds += runReference(s).rounds;
    }
    EXPECT_LT(production_rounds, reference_rounds);
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
scriptOptions(int num_replicas)
{
    serving::FleetOptions o;
    o.num_replicas = num_replicas;
    o.replica.max_batch = 4;
    o.replica.kv_budget_tokens = 4096;
    o.replica.record_steps = true;
    return o;
}

/** Serve @p trace through production and the reference, hold the
 *  results equal, and require that a decode run really ran: fewer
 *  rounds than the instants the reference woke at. */
serving::FleetResult
expectMatchesReference(const serving::FleetOptions &options,
                       const std::vector<Request> &trace,
                       serving::StepCostModel *degraded_cost = nullptr,
                       const serving::AnalyticCostOptions &cost_options = {})
{
    serving::AnalyticCostModel cost(cost_options);
    auto production =
        serving::FleetScheduler(options, cost, degraded_cost).run(trace);
    auto reference = serving::runReferenceFleet(options, cost,
                                                degraded_cost, trace);
    expectSameResult(production, reference);
    EXPECT_LT(production.rounds, reference.rounds);
    return production;
}

TEST(FleetDecodeRuns, ArrivalMidRunCutsIt)
{
    // Request 0 is decoding alone when request 1 arrives: the run
    // ends at the in-flight step and request 1 joins the next one.
    auto r = expectMatchesReference(scriptOptions(1),
                              {makeRequest(0, 0.0, 8, 40),
                               makeRequest(1, 10.0, 8, 4)});
    EXPECT_EQ(r.metrics.completed, 2);
}

TEST(FleetDecodeRuns, ReadmitMidRunCutsIt)
{
    // Replica 1 crashes under request 1, which waits out its backoff
    // and is readmitted to replica 0 while request 0 decodes there.
    serving::FleetOptions options = scriptOptions(2);
    options.faults.events = {{5.0, 1, serving::FaultKind::Crash, 1.0}};
    auto r = expectMatchesReference(options, {makeRequest(0, 0.0, 8, 60),
                                        makeRequest(1, 0.0, 8, 40)});
    EXPECT_EQ(r.metrics.failovers, 1);
    EXPECT_EQ(r.metrics.completed, 2);
}

TEST(FleetDecodeRuns, SlowStartMidRunCutsIt)
{
    serving::FleetOptions options = scriptOptions(1);
    options.faults.events = {
        {10.0, 0, serving::FaultKind::SlowStart, 3.0},
        {25.0, 0, serving::FaultKind::SlowEnd, 1.0}};
    auto r = expectMatchesReference(options, {makeRequest(0, 0.0, 8, 60)});
    EXPECT_EQ(r.metrics.slowdowns, 1);
}

TEST(FleetDecodeRuns, DegradeMidRunCutsIt)
{
    // The link degrades at 10 ms and recovers at 25 ms while request
    // 0 decodes alone: steps launched in between are costed by the
    // degraded model, which charges three times as much per sequence.
    serving::FleetOptions options = scriptOptions(1);
    options.faults.events = {
        {10.0, 0, serving::FaultKind::DegradeStart, 1.0},
        {25.0, 0, serving::FaultKind::DegradeEnd, 1.0}};
    serving::AnalyticCostOptions slow_link;
    slow_link.per_seq_ms = 1.5;
    serving::AnalyticCostModel degraded(slow_link);
    auto r = expectMatchesReference(
        options, {makeRequest(0, 0.0, 8, 60)}, &degraded);
    EXPECT_EQ(r.metrics.degrades, 1);
}

TEST(FleetDecodeRuns, DeadlineQueuedElsewhereCutsEveryRun)
{
    // Replica 0 drains at 0.1 ms but keeps decoding request 0 in
    // short steps. Request 2, with a deadline, queues behind
    // request 1's long prefill on the one-slot replica 1 and expires
    // there at the first round after its deadline — one of replica
    // 0's step ends, as in the reference, so replica 0's run is cut.
    serving::FleetOptions options = scriptOptions(2);
    options.replica.max_batch = 1;
    options.faults.events = {
        {0.1, 0, serving::FaultKind::DrainStart, 1.0}};
    Request late = makeRequest(2, 3.0, 8, 4);
    late.deadline_ms = 8.0;
    auto r = expectMatchesReference(options, {makeRequest(0, 0.0, 8, 60),
                                        makeRequest(1, 0.3, 600, 4),
                                        late});
    EXPECT_EQ(r.metrics.expired_deadline, 1);
    EXPECT_EQ(r.metrics.completed, 2);
    ASSERT_EQ(r.rejected.size(), 1u);
    EXPECT_LT(r.rejected[0].at_ms, 9.0);
}

TEST(FleetDecodeRuns, StepLimitInsideARunStopsAtTheSameStep)
{
    serving::FleetOptions options = scriptOptions(1);
    options.replica.max_steps = 20;
    auto r = expectMatchesReference(options, {makeRequest(0, 0.0, 8, 100)});
    EXPECT_TRUE(r.hit_step_limit);
    EXPECT_EQ(r.metrics.steps, 20);
}

TEST(FleetDecodeRuns, ColdStartEndingMidStep)
{
    // The first step, launched while the stream is in flight, is
    // gated on residency (and, holding the prefill, never repeats);
    // the first decode launched after the stream's end starts a
    // run.
    serving::FleetOptions options = scriptOptions(1);
    serving::WeightStreamPlan plan;
    plan.end_ms = 12.3;
    plan.layer_ready_ms = {3.0, 6.0, 9.0, 12.3};
    options.replica.cold_start.plan = plan;
    auto r = expectMatchesReference(options, {makeRequest(0, 0.0, 8, 60)});
    EXPECT_GT(r.metrics.weight_stall_ms, 0.0);
}

TEST(FleetDecodeRuns, OneReplicaOrdersSameInstantCompletionsById)
{
    // Request 5 arrives first and is admitted first; request 2
    // arrives during its prefill, joins the next step, and both
    // finish in one step. The fleet's merged records are in
    // (finish, id) order (FleetMetrics) on one replica too, while
    // the replica's own records keep admission order.
    auto r = expectMatchesReference(scriptOptions(1),
                                    {makeRequest(5, 0.0, 8, 30),
                                     makeRequest(2, 0.5, 8, 29)});
    ASSERT_EQ(r.metrics.requests.size(), 2u);
    EXPECT_EQ(r.metrics.requests[0].finish_ms,
              r.metrics.requests[1].finish_ms);
    EXPECT_EQ(r.metrics.requests[0].id, 2);
    EXPECT_EQ(r.replicas[0].metrics.requests[0].id, 5);
}

TEST(FleetDecodeRuns, DeepRetryBufferThroughAWholeFleetOutage)
{
    // Both replicas crash at 1 ms under the first eight requests,
    // which wait out their backoff in the retry buffer, and stay
    // down until 200 ms while 2,400 more arrive and park there.
    // Every seventh carries a deadline that passes inside the
    // outage, so it expires parked; the rest dispatch at recovery.
    serving::FleetOptions options = scriptOptions(2);
    options.faults.events = {
        {1.0, 0, serving::FaultKind::Crash, 1.0},
        {1.0, 1, serving::FaultKind::Crash, 1.0},
        {200.0, 0, serving::FaultKind::Recover, 1.0},
        {200.0, 1, serving::FaultKind::Recover, 1.0}};
    std::vector<Request> trace;
    for (int64_t id = 0; id < 8; ++id)
        trace.push_back(makeRequest(id, 0.0, 8, 40));
    int64_t expiring = 0;
    for (int64_t i = 0; i < 2400; ++i) {
        Request r = makeRequest(
            8 + i, 2.0 + 0.05 * static_cast<double>(i), 8, 4);
        if (i % 7 == 0) {
            r.deadline_ms = r.arrival_ms + 50.0;
            ++expiring;
        }
        trace.push_back(r);
    }
    auto r = expectMatchesReference(options, trace);
    EXPECT_EQ(r.metrics.failovers, 8);
    EXPECT_GT(expiring, 0);
    EXPECT_EQ(r.metrics.expired_deadline, expiring);
    // A parked deadline wakes the loop: each expires at its own
    // instant, not at the recovery.
    ASSERT_EQ(static_cast<int64_t>(r.rejected.size()), expiring);
    for (const auto &rejected : r.rejected)
        EXPECT_EQ(rejected.at_ms, rejected.arrival_ms + 50.0);
    EXPECT_EQ(r.metrics.completed,
              static_cast<int64_t>(trace.size()) - expiring);
    EXPECT_EQ(r.metrics.requests_lost, 0);
}

TEST(FleetDecodeRuns, RunsSpanPageGrowthAtEverySmallPageSize)
{
    // Two replicas with 160-token pools serve requests that share a
    // 12-token prefix or none, at 1- to 4-token pages: runs grow
    // pages at nearly every step and end where the free list runs
    // short, and the growth past that preempts.
    auto prefixed = [](Request r) {
        r.prefix_id = 1;
        r.prefix_len = 12;
        return r;
    };
    const std::vector<Request> trace = {
        prefixed(makeRequest(0, 0.0, 20, 60)),
        makeRequest(1, 0.0, 24, 50),
        prefixed(makeRequest(2, 0.0, 30, 40)),
        makeRequest(3, 1.0, 12, 70),
        prefixed(makeRequest(4, 1.0, 16, 30)),
        prefixed(makeRequest(5, 40.0, 16, 30)),
        makeRequest(6, 40.0, 28, 45),
        prefixed(makeRequest(7, 90.0, 14, 50))};
    for (int64_t page_tokens = 1; page_tokens <= 4; ++page_tokens) {
        SCOPED_TRACE("page_tokens " + std::to_string(page_tokens));
        serving::FleetOptions options = scriptOptions(2);
        options.replica.page_tokens = page_tokens;
        options.replica.kv_budget_tokens = 160;
        auto r = expectMatchesReference(options, trace);
        EXPECT_EQ(r.metrics.completed,
                  static_cast<int64_t>(trace.size()));
        EXPECT_GT(r.metrics.preemptions, 0);
        EXPECT_GT(r.metrics.prefix_hit_pages, 0);
    }
}

TEST(FleetDecodeRuns, AFaultThatChangesNothingLeavesTheRunStanding)
{
    // Replica 2 is down from 0 ms, and request 0 decodes alone on
    // replica 0 when request 1 arrives at 10 ms and goes to the idle
    // replica 1. At that instant the link of replica 0 degrades with
    // no degraded model to swap in, and replica 2 crashes again:
    // neither touches an engine, so replica 0's run stands and the
    // fleet takes the rounds it takes without those two faults.
    serving::FleetOptions calm = scriptOptions(3);
    calm.faults.events = {{0.0, 2, serving::FaultKind::Crash, 1.0}};
    serving::FleetOptions faulted = calm;
    faulted.faults.events.push_back(
        {10.0, 0, serving::FaultKind::DegradeStart, 1.0});
    faulted.faults.events.push_back(
        {10.0, 2, serving::FaultKind::Crash, 1.0});
    const std::vector<Request> trace = {makeRequest(0, 0.0, 8, 60),
                                        makeRequest(1, 10.0, 8, 4)};
    auto without = expectMatchesReference(calm, trace);
    auto with = expectMatchesReference(faulted, trace);
    EXPECT_EQ(with.metrics.degrades, 0);
    EXPECT_EQ(with.metrics.crashes, 1);
    EXPECT_EQ(with.metrics.completed, 2);
    ASSERT_EQ(with.metrics.requests.size(), 2u);
    EXPECT_EQ(with.metrics.requests[0].replica, 1);
    EXPECT_EQ(with.metrics.requests[1].replica, 0);
    EXPECT_EQ(with.rounds, without.rounds);
}

TEST(FleetDecodeRuns, AnEventAfterAZeroWindowSwapSeesTheReplicaUp)
{
    // With no reload window, a swap of replica 0 at 10 ms rejoins it
    // at once, as a zero-window Recover does: a crash or a drain of
    // replica 0 at the same instant still finds it up.
    serving::FleetOptions options = scriptOptions(2);
    options.faults.events = {{10.0, 0, serving::FaultKind::Swap, 1.0},
                             {10.0, 0, serving::FaultKind::Crash, 1.0}};
    const std::vector<Request> trace = {makeRequest(0, 0.0, 8, 60),
                                        makeRequest(1, 0.0, 8, 60)};
    auto crashed = expectMatchesReference(options, trace);
    EXPECT_EQ(crashed.metrics.swaps, 1);
    EXPECT_EQ(crashed.metrics.crashes, 1);
    EXPECT_EQ(crashed.metrics.completed, 2);
    for (const auto &s : crashed.replicas[0].steps)
        EXPECT_LT(s.start_ms, 10.0);
    EXPECT_DOUBLE_EQ(crashed.metrics.replica_up_ms[0], 10.0);

    options.faults.events[1].kind = serving::FaultKind::DrainStart;
    auto drained = expectMatchesReference(options, trace);
    EXPECT_EQ(drained.metrics.swaps, 1);
    EXPECT_EQ(drained.metrics.drains, 1);
    EXPECT_EQ(drained.metrics.completed, 2);
}

TEST(FleetDecodeRuns, OneRunSpansEveryPageOfItsBucket)
{
    // Input 300 sits in bucket 432, and so do the decode contexts
    // 301..399 of a 100-token output; on 16-token pages they cross
    // six page boundaries (305, 321, ..., 385). The fleet takes three
    // rounds: the arrival, where the prefill launches; the prefill's
    // end, where the first decode launches a run of the other 98;
    // and the run's end, where the 100th step completes.
    auto r = expectMatchesReference(scriptOptions(1),
                                    {makeRequest(0, 0.0, 300, 100)});
    EXPECT_EQ(r.metrics.steps, 100);
    EXPECT_EQ(r.metrics.peak_pages_active, 25);
    EXPECT_EQ(r.rounds, 3);
}

/** One replica whose every context sits in one bucket (1024). */
serving::FleetOptions
oneBucketOptions()
{
    serving::FleetOptions options = scriptOptions(1);
    options.replica.buckets.min_len = 1024;
    options.replica.buckets.max_len = 1024;
    return options;
}

/** An oracle that costs every one-group step @p step_ms. */
serving::AnalyticCostOptions
constantCost(double step_ms)
{
    serving::AnalyticCostOptions constant;
    constant.trigger_ms = step_ms;
    constant.per_seq_ms = 0.0;
    constant.per_query_token_ms = 0.0;
    constant.per_kv_token_ms = 0.0;
    return constant;
}

TEST(FleetDecodeRuns, ARunsTimesAreExactOnTheNanosecondClock)
{
    // 1,000 steps of 0.1 ms, all in one bucket: busy time and the
    // last step's start are integer products on the clock, so they
    // read exactly 100 ms and 99.9 ms. (A double-ms clock summing
    // 0.1 a thousand times reads 99.9999999999986.)
    auto r = expectMatchesReference(oneBucketOptions(),
                                    {makeRequest(0, 0.0, 8, 1000)},
                                    nullptr, constantCost(0.1));
    EXPECT_EQ(r.metrics.steps, 1000);
    EXPECT_EQ(r.metrics.busy_ms, 100.0);
    ASSERT_EQ(r.replicas[0].steps.size(), 1000u);
    EXPECT_EQ(r.replicas[0].steps.back().start_ms, 99.9);
    EXPECT_EQ(r.rounds, 3);
}

TEST(FleetDecodeRuns, ADeadlineExpiresAtTheStepEndItRoundsTo)
{
    // 1 ms steps, one sequence per batch. Request 0 holds the batch
    // until its second step ends at 2 ms. Request 1 queues behind it
    // with a deadline 0.4 ns after that step end, which rounds to the
    // step end itself: the sweep at 2 ms expires it before the
    // launch there could admit it. Request 2 then decodes in a run.
    serving::FleetOptions options = oneBucketOptions();
    options.replica.max_batch = 1;
    Request late = makeRequest(1, 0.5, 8, 4);
    late.deadline_ms = 2.0000004;
    auto r = expectMatchesReference(options,
                                    {makeRequest(0, 0.0, 8, 2), late,
                                     makeRequest(2, 3.0, 8, 40)},
                                    nullptr, constantCost(1.0));
    EXPECT_EQ(r.metrics.expired_deadline, 1);
    ASSERT_EQ(r.rejected.size(), 1u);
    EXPECT_EQ(r.rejected[0].id, 1);
    EXPECT_EQ(r.rejected[0].at_ms, 2.0);
    EXPECT_EQ(r.metrics.completed, 2);
}

TEST(FleetDecodeRuns, AFinishOnTheRoundedDeadlineIsNoMiss)
{
    // Request 0's 40th 1 ms step ends at 40 ms, the nanosecond its
    // deadline, 0.4 ns earlier, rounds to: it finishes on its
    // deadline, not past it, as an equally timed queued request would
    // not yet have expired.
    Request r0 = makeRequest(0, 0.0, 8, 40);
    r0.deadline_ms = 39.9999996;
    auto r = expectMatchesReference(oneBucketOptions(), {r0}, nullptr,
                                    constantCost(1.0));
    ASSERT_EQ(r.metrics.requests.size(), 1u);
    EXPECT_EQ(r.metrics.requests[0].finish_ms, 40.0);
    EXPECT_EQ(r.metrics.requests[0].deadline_ms, 40.0);
    EXPECT_EQ(r.metrics.deadline_misses, 0);
}

// ---- One engine through a decode run: k steps completed at their
// ---- ends against one completeDue() call. ----

/** Complete the in-flight step at its end; returns that instant. */
serving::SimTime
completeInFlight(serving::ReplicaEngine &engine)
{
    serving::SimTime end = engine.stepEnd();
    engine.completeDue(end);
    EXPECT_FALSE(engine.busy());
    return end;
}

/** Three residents decoding in bucket 48 (contexts 34..36 at the
 *  first decode): the run's first decode is in flight, and a run of
 *  the next @p run_length steps, which repeat it, is planned —
 *  min(48 - 36, ...) = 12 unless the free list bounds the run first.
 *  Started off zero by default so the step ends are not multiples
 *  of the step cost. */
void
startRun(serving::ReplicaEngine &engine, int64_t run_length = 12,
         serving::SimTime start = 370'000)
{
    for (int64_t id = 0; id < 3; ++id)
        engine.offer(makeRequest(id, 0.0, 33 + id, 40), start);
    ASSERT_TRUE(engine.launchStep(start)); // the prefill
    ASSERT_TRUE(engine.launchStep(completeInFlight(engine)));
    ASSERT_EQ(engine.planRun(std::numeric_limits<int64_t>::max()),
              run_length);
}

/** Complete the in-flight step and launch the next at its end, as
 *  the step-by-step loop does. */
void
stepRepeats(serving::ReplicaEngine &engine, int64_t repeats)
{
    for (int64_t k = 0; k < repeats; ++k)
        ASSERT_TRUE(engine.launchStep(completeInFlight(engine)));
}

/** The run @p engine would plan behind its in-flight step, uncapped,
 *  read off a copy so the engine's own plan stays as it is. */
int64_t
plannableRepeats(const serving::ReplicaEngine &engine)
{
    serving::ReplicaEngine copy = engine;
    return copy.planRun(std::numeric_limits<int64_t>::max());
}

/** The end of the @p k-th repeat of @p engine's in-flight step, as
 *  a run of k planned on a copy says. */
serving::SimTime
repeatEnd(const serving::ReplicaEngine &engine, int64_t k)
{
    serving::ReplicaEngine copy = engine;
    EXPECT_EQ(copy.planRun(k), k);
    return copy.wakeAt();
}

serving::ReplicaOptions
engineOptions()
{
    serving::ReplicaOptions o;
    o.max_batch = 4;
    o.kv_budget_tokens = 4096;
    o.record_steps = true;
    return o;
}

/** The step accounting, the pool, the in-flight step and every step
 *  record of the two engines match bit for bit. */
void
expectSameEngine(const serving::ReplicaEngine &a,
                 const serving::ReplicaEngine &b)
{
    const serving::ServingMetrics &ma = a.result().metrics;
    const serving::ServingMetrics &mb = b.result().metrics;
    EXPECT_EQ(ma.busy_ms, mb.busy_ms);
    EXPECT_EQ(ma.steps, mb.steps);
    EXPECT_EQ(ma.total_batched_seqs, mb.total_batched_seqs);
    EXPECT_EQ(ma.page_step_sum, mb.page_step_sum);
    EXPECT_EQ(ma.completed, mb.completed);
    EXPECT_EQ(ma.preemptions, mb.preemptions);
    EXPECT_EQ(a.pool().activePages(), b.pool().activePages());
    EXPECT_EQ(a.pool().cachedPages(), b.pool().cachedPages());
    EXPECT_EQ(a.pool().freePages(), b.pool().freePages());
    EXPECT_EQ(a.pool().stats().evicted_cached_pages,
              b.pool().stats().evicted_cached_pages);
    EXPECT_EQ(a.pool().stats().peak_active_pages,
              b.pool().stats().peak_active_pages);
    ASSERT_EQ(a.busy(), b.busy());
    if (a.busy()) {
        EXPECT_EQ(a.stepEnd(), b.stepEnd());
        EXPECT_EQ(plannableRepeats(a), plannableRepeats(b));
    }
    const auto &sa = a.result().steps;
    const auto &sb = b.result().steps;
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].start_ms, sb[i].start_ms) << "step " << i;
        EXPECT_EQ(sa[i].step_ms, sb[i].step_ms);
        EXPECT_EQ(sa[i].weights_wait_ms, sb[i].weights_wait_ms);
        EXPECT_EQ(sa[i].prefill_ids, sb[i].prefill_ids);
        EXPECT_EQ(sa[i].decode_ids, sb[i].decode_ids);
        EXPECT_EQ(sa[i].preempted_ids, sb[i].preempted_ids);
        EXPECT_EQ(sa[i].pages_active, sb[i].pages_active);
        EXPECT_EQ(sa[i].pages_cached, sb[i].pages_cached);
        EXPECT_EQ(sa[i].pages_free, sb[i].pages_free);
        EXPECT_EQ(sa[i].queue_depth, sb[i].queue_depth);
    }
}

/** Every resident's progress matches: crash() hands each one's
 *  ResumeState out, in admission order. Ends both engines' work. */
void
expectSameProgress(serving::ReplicaEngine &a, serving::ReplicaEngine &b)
{
    auto ra = a.crash();
    auto rb = b.crash();
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].req.id, rb[i].req.id);
        EXPECT_EQ(ra[i].state.generated, rb[i].state.generated);
        EXPECT_EQ(ra[i].state.ever_prefilled,
                  rb[i].state.ever_prefilled);
        EXPECT_EQ(ra[i].state.first_token, rb[i].state.first_token);
    }
}

/** For every k up to the run's 12 steps, catch one engine up k
 *  repeats in one call and step another through them, and hold the
 *  two equal. The instant falls inside the k-th repeat, 1 ns before
 *  its end: the steps before it ended earlier, it has not.
 *  At k = 12 that is the run's last step, so the whole run is
 *  caught up and none of it is left. @p mutate, when given, is
 *  applied to both engines once the run is planned, and must leave
 *  it standing. */
void
expectAdvanceMatchesStepping(const serving::ReplicaOptions &options,
                             void (*mutate)(serving::ReplicaEngine &) =
                                 nullptr)
{
    serving::AnalyticCostModel cost;
    for (int64_t k = 0; k <= 12; ++k) {
        SCOPED_TRACE("k = " + std::to_string(k));
        serving::ReplicaEngine stepped(options, cost);
        serving::ReplicaEngine advanced(options, cost);
        startRun(stepped);
        startRun(advanced);
        if (mutate) {
            serving::SimTime wake = advanced.wakeAt();
            mutate(stepped);
            mutate(advanced);
            EXPECT_EQ(advanced.plannedRepeats(), 12);
            EXPECT_EQ(advanced.wakeAt(), wake);
        }
        serving::SimTime predicted_end = repeatEnd(advanced, k);
        stepRepeats(stepped, k);
        advanced.completeDue(predicted_end - 1);
        EXPECT_EQ(advanced.plannedRepeats(), 12 - k);
        EXPECT_EQ(advanced.stepEnd(), predicted_end);
        EXPECT_EQ(advanced.wakeAt(), repeatEnd(advanced, 12 - k));
        expectSameEngine(stepped, advanced);
        // The in-flight repeat completes as a stepped one would.
        completeInFlight(stepped);
        completeInFlight(advanced);
        EXPECT_EQ(advanced.plannedRepeats(), 0);
        expectSameEngine(stepped, advanced);
        expectSameProgress(stepped, advanced);
    }
}

TEST(FleetDecodeRuns, EngineAdvanceMatchesSteppedRepeats)
{
    // 16-token pages: the residents hold three pages each, which
    // cover the whole bucket, so the run grows none.
    expectAdvanceMatchesStepping(engineOptions());
}

TEST(FleetDecodeRuns, EngineAdvanceMatchesSteppedRepeatsAcrossPages)
{
    // 4-token pages: the residents hold nine pages each at the first
    // decode (contexts 34, 35, 36) and cross a page boundary at
    // repeats 3, 7, 11 (context 34), 2, 6, 10 (35) and 1, 5, 9 (36),
    // so every k above ends in a different segment of the run.
    serving::ReplicaOptions options = engineOptions();
    options.page_tokens = 4;
    expectAdvanceMatchesStepping(options);

    // The whole run in one call: 27 pages at its first decode, 36 at
    // its last, and each step's record and page-step share carry the
    // pages that step held.
    serving::AnalyticCostModel cost;
    serving::ReplicaEngine engine(options, cost);
    startRun(engine);
    ASSERT_EQ(engine.pool().activePages(), 27);
    engine.completeDue(engine.wakeAt() - 1);
    ASSERT_EQ(engine.plannedRepeats(), 0);
    EXPECT_EQ(engine.pool().activePages(), 36);
    const auto &steps = engine.result().steps;
    ASSERT_EQ(steps.size(), 13u); // the prefill and 12 decodes
    int64_t page_steps = 0;
    for (size_t i = 1; i < steps.size(); ++i) {
        // Repeat m (step m + 1) holds 27 pages plus one per boundary
        // crossed by then: m - floor(m / 4) of them.
        auto m = static_cast<int64_t>(i) - 1;
        EXPECT_EQ(steps[i].pages_active, 27 + m - m / 4) << "step " << i;
        EXPECT_EQ(steps[i].pages_free, 1024 - steps[i].pages_active);
        page_steps += steps[i].pages_active;
    }
    EXPECT_EQ(engine.result().metrics.page_step_sum,
              steps[0].pages_active + page_steps);
}

TEST(FleetDecodeRuns, EngineAdvanceLeavesAStepEndingAtTheInstant)
{
    // The instant is the 5th repeat's end: that repeat does not end
    // strictly before it, so a catch-up to 1 ns earlier leaves it
    // in flight, and completeDue() at the instant itself completes
    // it, leaves the engine idle and ends the run, as phase 1 does
    // at a round on a step end.
    serving::AnalyticCostModel cost;
    serving::ReplicaEngine stepped(engineOptions(), cost);
    serving::ReplicaEngine advanced(engineOptions(), cost);
    startRun(stepped);
    startRun(advanced);
    serving::SimTime now = repeatEnd(advanced, 5);
    advanced.completeDue(now - 1);
    EXPECT_EQ(advanced.plannedRepeats(), 7);
    EXPECT_EQ(advanced.stepEnd(), now);
    stepRepeats(stepped, 5);
    expectSameEngine(stepped, advanced);
    completeInFlight(stepped);
    advanced.completeDue(now);
    EXPECT_FALSE(advanced.busy());
    EXPECT_EQ(advanced.plannedRepeats(), 0);
    expectSameEngine(stepped, advanced);
    expectSameProgress(stepped, advanced);
}

TEST(FleetDecodeRuns, EngineAdvanceOfZeroChangesNothing)
{
    // A run of none, and a catch-up to an instant before the
    // in-flight step ends, change nothing.
    serving::AnalyticCostModel cost;
    serving::ReplicaEngine untouched(engineOptions(), cost);
    serving::ReplicaEngine advanced(engineOptions(), cost);
    startRun(untouched);
    startRun(advanced);
    EXPECT_EQ(advanced.planRun(0), 0);
    EXPECT_EQ(advanced.wakeAt(), advanced.stepEnd());
    advanced.completeDue(advanced.stepEnd() - 1);
    EXPECT_EQ(advanced.planRun(12), 12);
    advanced.completeDue(advanced.stepEnd() - 1);
    EXPECT_EQ(advanced.plannedRepeats(), 12);
    EXPECT_EQ(advanced.wakeAt(), untouched.wakeAt());
    expectSameEngine(untouched, advanced);
    expectSameProgress(untouched, advanced);
}

TEST(FleetDecodeRuns, EngineAdvancePastTheRunPanics)
{
    // The 13th step would cross the bucket boundary: it is no repeat,
    // so no run plans it, and a catch-up past the run's last step
    // (a caller that slept through wakeAt()) is a bug.
    serving::AnalyticCostModel cost;
    serving::ReplicaEngine engine(engineOptions(), cost);
    startRun(engine);
    EXPECT_EQ(engine.planRun(13), 12);
    EXPECT_THROW(engine.completeDue(serving::kNever), PanicError);
}

TEST(FleetDecodeRuns, EveryEngineMutatorCutsTheRun)
{
    // Each engine call that can change the next launch ends the run
    // after the in-flight step: the engine wakes at that step's end
    // (crash abandons the step, leaving the engine idle). Drain mode
    // and queue evacuation cannot (the next case).
    serving::AnalyticCostModel cost, other;
    const std::vector<
        std::pair<const char *, void (*)(serving::ReplicaEngine &,
                                         serving::StepCostModel &)>>
        mutators = {
            {"offer",
             [](serving::ReplicaEngine &e, serving::StepCostModel &) {
                 e.offer(makeRequest(7, 0.0, 8, 4), 500'000);
             }},
            {"readmit",
             [](serving::ReplicaEngine &e, serving::StepCostModel &) {
                 e.readmit({makeRequest(7, 0.0, 8, 4), {}});
             }},
            {"setSlowFactor",
             [](serving::ReplicaEngine &e, serving::StepCostModel &) {
                 e.setSlowFactor(2.0);
             }},
            {"setCost",
             [](serving::ReplicaEngine &e, serving::StepCostModel &c) {
                 e.setCost(c);
             }},
            {"crash",
             [](serving::ReplicaEngine &e, serving::StepCostModel &) {
                 EXPECT_EQ(e.crash().size(), 3u);
             }},
        };
    for (const auto &[name, mutate] : mutators) {
        SCOPED_TRACE(name);
        serving::ReplicaEngine engine(engineOptions(), cost);
        startRun(engine);
        serving::SimTime step_end = engine.stepEnd();
        mutate(engine, other);
        EXPECT_EQ(engine.plannedRepeats(), 0);
        EXPECT_EQ(engine.wakeAt(),
                  engine.busy() ? step_end : serving::kNever);
        engine.completeDue(step_end);
        EXPECT_FALSE(engine.busy());
    }
}

TEST(FleetDecodeRuns, DrainAndQueueEvacuationLeaveTheRunStanding)
{
    // A run stands only while the queue is empty, and admission is
    // all that drain mode changes, so entering or leaving it, or
    // evacuating the empty queue, changes no launch of the run: it
    // stands, and catching it up equals stepping it.
    const std::vector<
        std::pair<const char *, void (*)(serving::ReplicaEngine &)>>
        mutators = {
            {"setDraining(true)",
             [](serving::ReplicaEngine &e) { e.setDraining(true); }},
            {"setDraining(true), then (false)",
             [](serving::ReplicaEngine &e) {
                 e.setDraining(true);
                 e.setDraining(false);
             }},
            {"evacuateQueue",
             [](serving::ReplicaEngine &e) {
                 EXPECT_TRUE(e.evacuateQueue().empty());
             }},
        };
    for (const auto &[name, mutate] : mutators) {
        SCOPED_TRACE(name);
        expectAdvanceMatchesStepping(engineOptions(), mutate);
    }
}

TEST(FleetDecodeRuns, OfferOfARequestTheFleetRefusesThrows)
{
    // The fleet refuses unservable and expired arrivals itself and
    // routes none to a draining replica; an engine handed one anyway
    // throws and queues nothing.
    serving::AnalyticCostModel cost;
    serving::ReplicaEngine engine(engineOptions(), cost);
    EXPECT_THROW(engine.offer(makeRequest(0, 0.0, 2000, 4), 0),
                 FatalError);
    Request late = makeRequest(1, 0.0, 8, 4);
    late.deadline_ms = 1.0;
    EXPECT_THROW(engine.offer(late, 1'000'000), FatalError);
    engine.offer(late, 999'999);
    EXPECT_EQ(engine.queueDepth(), 1);
    engine.setDraining(true);
    EXPECT_THROW(engine.offer(makeRequest(2, 0.0, 8, 4), 0), FatalError);
    EXPECT_EQ(engine.queueDepth(), 1);
    EXPECT_TRUE(engine.result().rejected.empty());
}

/** startRun's residents on 4-token pages in a pool of @p total_pages:
 *  they hold 27 pages at the first decode. */
serving::ReplicaOptions
tightPoolOptions(int64_t total_pages)
{
    serving::ReplicaOptions o = engineOptions();
    o.page_tokens = 4;
    o.kv_budget_tokens = 4 * total_pages;
    return o;
}

/** Serve one request with a two-page prefix to completion, leaving
 *  both prefix pages retained; returns the instant it ends. */
serving::SimTime
retainPrefixPages(serving::ReplicaEngine &engine)
{
    Request r = makeRequest(9, 0.0, 8, 1);
    r.prefix_id = 7;
    r.prefix_len = 8;
    engine.offer(r, 0);
    EXPECT_TRUE(engine.launchStep(0));
    serving::SimTime end = completeInFlight(engine);
    EXPECT_EQ(engine.pool().cachedPages(), 2);
    return end;
}

TEST(FleetDecodeRuns, EngineRunEndsBeforeTheFreeListRunsShort)
{
    // Three pages are free at the first decode. Repeats 1, 2 and 3
    // each take one (contexts 37 of the three residents), repeat 4
    // none, repeat 5 a fourth: the run is 4 steps long. Stepping
    // past it, the 5th launch preempts with nothing retained, and
    // reclaims a retained page, preempting nobody, with two.
    for (bool retained : {false, true}) {
        SCOPED_TRACE(retained ? "retained pages" : "no retained pages");
        serving::ReplicaOptions options =
            tightPoolOptions(retained ? 32 : 30);
        serving::AnalyticCostModel cost;
        serving::ReplicaEngine stepped(options, cost);
        serving::ReplicaEngine advanced(options, cost);
        serving::ReplicaEngine overrun(options, cost);
        serving::SimTime start = 370'000;
        if (retained) {
            start += retainPrefixPages(stepped);
            retainPrefixPages(advanced);
            retainPrefixPages(overrun);
        }
        startRun(stepped, 4, start);
        startRun(advanced, 4, start);
        startRun(overrun, 4, start);
        ASSERT_EQ(advanced.pool().freePages(), 3);

        stepRepeats(stepped, 4);
        advanced.completeDue(advanced.wakeAt() - 1);
        EXPECT_EQ(advanced.plannedRepeats(), 0);
        expectSameEngine(stepped, advanced);
        EXPECT_EQ(advanced.pool().freePages(), 0);
        EXPECT_EQ(plannableRepeats(advanced), 0);
        // A run of 5 is never planned, and catching up past the
        // 4-step run's end panics.
        EXPECT_EQ(overrun.planRun(5), 4);
        EXPECT_THROW(overrun.completeDue(serving::kNever), PanicError);

        // The 5th launch, stepped as before.
        stepRepeats(stepped, 1);
        stepRepeats(advanced, 1);
        expectSameEngine(stepped, advanced);
        EXPECT_EQ(advanced.result().metrics.preemptions,
                  retained ? 0 : 1);
        EXPECT_EQ(advanced.pool().stats().evicted_cached_pages,
                  retained ? 1 : 0);
        expectSameProgress(stepped, advanced);
    }
}

} // namespace
