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
 *  rounds. The last cases drive one ReplicaEngine through a run both
 *  ways — stepped one launch at a time and advanced in one
 *  advanceRepeats() call — and hold the engines equal. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
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
                       serving::StepCostModel *degraded_cost = nullptr)
{
    serving::AnalyticCostModel cost;
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

// ---- One engine through a decode run: k completeStep()/launchStep()
// ---- pairs against one advanceRepeats() call. ----

/** Three residents decoding in bucket 48 within three 16-token
 *  pages (contexts 34..36 at the first decode): the run's first
 *  decode is in flight, and the next min(48 - 36, ...) = 12 steps
 *  repeat it. Started off zero so the step ends are not multiples
 *  of the step cost. */
void
startRun(serving::ReplicaEngine &engine)
{
    for (int64_t id = 0; id < 3; ++id)
        engine.offer(makeRequest(id, 0.0, 33 + id, 40), 0.37);
    ASSERT_TRUE(engine.launchStep(0.37)); // the prefill
    double end = engine.stepEndMs();
    engine.completeStep();
    ASSERT_TRUE(engine.launchStep(end));
    ASSERT_EQ(engine.repeatSteps(), 12);
}

/** Complete the in-flight step and launch the next at its end, as
 *  the step-by-step loop does. */
void
stepRepeats(serving::ReplicaEngine &engine, int64_t repeats)
{
    for (int64_t k = 0; k < repeats; ++k) {
        double end = engine.stepEndMs();
        engine.completeStep();
        ASSERT_TRUE(engine.launchStep(end));
    }
}

serving::SchedulerOptions
engineOptions()
{
    serving::SchedulerOptions o;
    o.max_batch = 4;
    o.kv_budget_tokens = 4096;
    o.record_steps = true;
    return o;
}

/** The step accounting, the in-flight step and every step record of
 *  the two engines match bit for bit. */
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
    ASSERT_EQ(a.busy(), b.busy());
    if (a.busy()) {
        EXPECT_EQ(a.stepEndMs(), b.stepEndMs());
        EXPECT_EQ(a.repeatSteps(), b.repeatSteps());
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
        EXPECT_EQ(ra[i].state.first_token_ms,
                  rb[i].state.first_token_ms);
    }
}

TEST(FleetDecodeRuns, EngineAdvanceMatchesSteppedRepeats)
{
    // For every k below the run's length, the instant falls inside
    // the k-th repeat, one ulp before its end: the steps before it
    // ended earlier, it has not. For the run's whole length the
    // instant lies past its end and the cap stops the count.
    serving::AnalyticCostModel cost;
    for (int64_t k = 0; k <= 12; ++k) {
        serving::ReplicaEngine stepped(engineOptions(), cost);
        serving::ReplicaEngine advanced(engineOptions(), cost);
        startRun(stepped);
        startRun(advanced);
        double predicted_end = advanced.repeatEndMs(k);
        double before =
            k < 12 ? std::nextafter(predicted_end, 0.0)
                   : std::numeric_limits<double>::infinity();
        stepRepeats(stepped, k);
        EXPECT_EQ(advanced.advanceRepeats(12, before), k);
        EXPECT_EQ(advanced.stepEndMs(), predicted_end);
        expectSameEngine(stepped, advanced);
        // The in-flight repeat completes as a stepped one would.
        stepped.completeStep();
        advanced.completeStep();
        expectSameEngine(stepped, advanced);
        expectSameProgress(stepped, advanced);
    }
}

TEST(FleetDecodeRuns, EngineAdvanceLeavesAStepEndingAtTheInstant)
{
    // The instant is the 5th repeat's end: that repeat does not end
    // strictly before it, so it stays in flight for the caller to
    // complete, as phase 1 does at a round on a step end.
    serving::AnalyticCostModel cost;
    serving::ReplicaEngine stepped(engineOptions(), cost);
    serving::ReplicaEngine advanced(engineOptions(), cost);
    startRun(stepped);
    startRun(advanced);
    double now = advanced.repeatEndMs(5);
    EXPECT_EQ(advanced.advanceRepeats(12, now), 5);
    EXPECT_EQ(advanced.stepEndMs(), now);
    stepRepeats(stepped, 5);
    expectSameEngine(stepped, advanced);
    stepped.completeStep();
    advanced.completeStep();
    expectSameEngine(stepped, advanced);
    expectSameProgress(stepped, advanced);
}

TEST(FleetDecodeRuns, EngineAdvanceOfZeroChangesNothing)
{
    serving::AnalyticCostModel cost;
    serving::ReplicaEngine untouched(engineOptions(), cost);
    serving::ReplicaEngine advanced(engineOptions(), cost);
    startRun(untouched);
    startRun(advanced);
    EXPECT_EQ(advanced.advanceRepeats(0, 1e9), 0);
    EXPECT_EQ(advanced.advanceRepeats(12, advanced.stepEndMs()), 0);
    expectSameEngine(untouched, advanced);
    expectSameProgress(untouched, advanced);
}

TEST(FleetDecodeRuns, EngineAdvancePastTheRunPanics)
{
    // The 13th step would cross a page and bucket boundary: it is no
    // repeat, and a plan that claims it is a bug.
    serving::AnalyticCostModel cost;
    serving::ReplicaEngine engine(engineOptions(), cost);
    startRun(engine);
    EXPECT_THROW(
        engine.advanceRepeats(13, std::numeric_limits<double>::infinity()),
        PanicError);
}

} // namespace
