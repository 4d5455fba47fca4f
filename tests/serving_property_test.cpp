/** @file Property/invariant suite for RequestQueue and the
 *  one-replica serving loop: each seed derives a distinct
 *  (trace, scheduler-config) pair and runs it on a one-replica
 *  fleet, checking structural invariants that must hold for
 *  *every* run — conservation, FIFO fairness, batch and KV
 *  bounds, metrics consistency against
 *  per-request sums, page conservation, preemption bookkeeping and
 *  prefix-sharing occupancy recomputation. */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <random>
#include <set>

#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/replica.h"
#include "serving/trace.h"

using namespace streamtensor;
using serving::Request;

namespace {

struct SeededRun
{
    std::vector<Request> trace;
    serving::ReplicaOptions options;
    serving::FleetResult result;
};

/** Derive a varied but fully seed-determined scenario. */
SeededRun
runSeed(uint64_t seed)
{
    serving::TraceOptions trace_options;
    trace_options.seed = seed;
    trace_options.num_requests = 24 + static_cast<int64_t>(seed % 25);
    trace_options.mean_interarrival_ms =
        1.0 + static_cast<double>(seed % 7);
    trace_options.min_input_len = 4;
    trace_options.max_input_len = 120;
    trace_options.min_output_len = 1;
    trace_options.max_output_len = 24;
    if (seed % 3 == 0) {
        // A third of the seeds model shared system prompts so the
        // paged run exercises prefix sharing.
        trace_options.num_prefix_groups =
            1 + static_cast<int64_t>(seed % 2);
        trace_options.shared_prefix_len =
            16 * (1 + static_cast<int64_t>((seed / 3) % 3));
    }

    SeededRun run;
    run.trace = seed % 2 == 0 ? serving::poissonTrace(trace_options)
                              : serving::burstyTrace(trace_options);

    run.options.max_batch = 1 + static_cast<int64_t>(seed % 7);
    run.options.kv_budget_tokens =
        192 + 64 * static_cast<int64_t>(seed % 13);
    run.options.max_queue_depth =
        seed % 4 == 0 ? 6 + static_cast<int64_t>(seed % 9) : 0;
    run.options.record_steps = true;

    serving::FleetOptions fleet;
    fleet.num_replicas = 1;
    fleet.replica = run.options;
    serving::AnalyticCostModel cost;
    run.result = serving::FleetScheduler(fleet, cost).run(run.trace);
    return run;
}

int64_t
pagesFor(int64_t tokens, int64_t page_tokens)
{
    return (tokens + page_tokens - 1) / page_tokens;
}

std::vector<int64_t>
stepMembers(const serving::StepRecord &s)
{
    std::vector<int64_t> ids = s.prefill_ids;
    ids.insert(ids.end(), s.decode_ids.begin(),
               s.decode_ids.end());
    return ids;
}

class SchedulerProperty : public ::testing::TestWithParam<uint64_t>
{};

void
checkInvariants(const SeededRun &run)
{
    const auto &result = run.result;
    const auto &metrics = result.metrics;
    const auto &steps = result.replicas[0].steps;
    ASSERT_FALSE(result.hit_step_limit);
    ASSERT_EQ(metrics.in_flight, 0);

    std::map<int64_t, Request> by_id;
    for (const auto &r : run.trace)
        by_id[r.id] = r;

    // --- Conservation: every request completes or is rejected,
    // exactly once.
    std::set<int64_t> completed_ids, rejected_ids;
    for (const auto &r : metrics.requests)
        EXPECT_TRUE(completed_ids.insert(r.id).second)
            << "request completed twice: " << r.id;
    for (const auto &r : result.rejected)
        EXPECT_TRUE(rejected_ids.insert(r.id).second)
            << "request rejected twice: " << r.id;
    EXPECT_EQ(completed_ids.size() + rejected_ids.size(),
              run.trace.size());
    for (int64_t id : completed_ids)
        EXPECT_EQ(rejected_ids.count(id), 0u)
            << "request both completed and rejected: " << id;
    for (const auto &r : run.trace)
        EXPECT_TRUE(completed_ids.count(r.id) ||
                    rejected_ids.count(r.id))
            << "request lost: " << r.id;

    // Rejections land in (arrival, id) order.
    for (size_t i = 1; i < result.rejected.size(); ++i) {
        const auto &a = result.rejected[i - 1];
        const auto &b = result.rejected[i];
        EXPECT_TRUE(a.arrival_ms < b.arrival_ms ||
                    (a.arrival_ms == b.arrival_ms && a.id < b.id))
            << "rejection order violated: " << a.id << " before "
            << b.id;
    }

    // --- Per-step bounds and bookkeeping.
    const int64_t page_tokens = run.options.page_tokens;
    const int64_t pool_pages =
        run.options.kv_budget_tokens / page_tokens;
    std::map<int64_t, std::vector<size_t>> appearances;
    std::map<int64_t, size_t> first_prefill_step;
    std::set<int64_t> ever_preempted;
    // Records carry the nanosecond clock's instants and durations in
    // ms (serving/request.h); sums and boundaries are exact on it.
    serving::SimTime recomputed_busy = 0;
    int64_t recomputed_batched = 0;
    int64_t recomputed_preemptions = 0;
    int64_t recomputed_page_sum = 0;
    int64_t max_pages_active = 0;
    for (size_t i = 0; i < steps.size(); ++i) {
        const auto &s = steps[i];
        int64_t batch =
            static_cast<int64_t>(s.prefill_ids.size()) +
            static_cast<int64_t>(s.decode_ids.size());
        EXPECT_GE(batch, 1);
        EXPECT_LE(batch, run.options.max_batch);
        EXPECT_GT(s.step_ms, 0.0);
        EXPECT_LE(s.queue_depth, metrics.max_queue_depth);
        if (i > 0) {
            EXPECT_GE(s.start_ms, steps[i - 1].start_ms +
                                      steps[i - 1].step_ms -
                                      1e-12);
        }

        // Preemption bookkeeping: a victim ran the previous step,
        // does not run this one, and only preempted sequences may
        // ever re-run a prefill.
        for (int64_t id : s.preempted_ids) {
            ever_preempted.insert(id);
            ++recomputed_preemptions;
            ASSERT_GT(i, 0u);
            auto prev = stepMembers(steps[i - 1]);
            EXPECT_NE(std::find(prev.begin(), prev.end(), id),
                      prev.end())
                << "victim " << id << " was not resident";
            auto cur = stepMembers(s);
            EXPECT_EQ(std::find(cur.begin(), cur.end(), id),
                      cur.end())
                << "victim " << id << " still resident";
        }
        for (int64_t id : s.prefill_ids) {
            auto [it, inserted] =
                first_prefill_step.emplace(id, i);
            (void)it;
            if (!inserted) {
                EXPECT_TRUE(ever_preempted.count(id))
                    << "request re-prefilled without a "
                       "preemption: "
                    << id;
            }
        }

        // KV occupancy, recomputed from the recorded membership
        // and each member's progress (appearances so far =
        // generated tokens).
        // Physical pages: each member holds pagesFor(ctx) pages of
        // which floor(prefix_len / page) are shared prefix pages,
        // counted once per prefix group.
        int64_t priv = 0;
        std::map<int64_t, int64_t> group_shared;
        for (int64_t id : stepMembers(s)) {
            const Request &r = by_id.at(id);
            int64_t g = static_cast<int64_t>(
                appearances[id].size());
            int64_t ctx = r.input_len + g;
            int64_t held = pagesFor(ctx, page_tokens);
            int64_t shared =
                r.prefix_id ? r.prefix_len / page_tokens : 0;
            priv += held - shared;
            if (r.prefix_id) {
                auto &best = group_shared[r.prefix_id];
                best = std::max(best, shared);
            }
        }
        int64_t shared_total = 0;
        for (const auto &[gid, pages] : group_shared) {
            (void)gid;
            shared_total += pages;
        }
        EXPECT_EQ(s.pages_active, priv + shared_total)
            << "active pages drifted at step " << i;
        EXPECT_EQ(s.pages_active + s.pages_cached + s.pages_free,
                  pool_pages)
            << "page conservation violated at step " << i;
        EXPECT_LE(s.pages_active, pool_pages);
        recomputed_page_sum += s.pages_active;
        max_pages_active =
            std::max(max_pages_active, s.pages_active);

        for (int64_t id : stepMembers(s))
            appearances[id].push_back(i);
        recomputed_busy += serving::toSimTime(s.step_ms);
        recomputed_batched += batch;
    }

    // --- FIFO fairness: *first* prefill order follows
    // (arrival, id) order. (Strict head-of-line admission plus
    // front-of-queue readmission keep this true across KV stalls
    // and preemptions.)
    for (const auto &[id_a, step_a] : first_prefill_step) {
        for (const auto &[id_b, step_b] : first_prefill_step) {
            const Request &a = by_id.at(id_a);
            const Request &b = by_id.at(id_b);
            bool a_earlier =
                a.arrival_ms < b.arrival_ms ||
                (a.arrival_ms == b.arrival_ms && a.id < b.id);
            if (a_earlier) {
                EXPECT_LE(step_a, step_b)
                    << "FIFO violated: " << id_a << " vs " << id_b;
            }
        }
    }

    // --- Every completed request runs exactly output_len steps
    // (each resident step advances one token, recompute prefills
    // included — preemption costs time, never tokens).
    for (int64_t id : completed_ids) {
        const Request &r = by_id.at(id);
        const auto &steps = appearances.at(id);
        ASSERT_EQ(steps.size(),
                  static_cast<size_t>(r.output_len))
            << "token count drifted for request " << id;
    }
    // Rejected requests never ran.
    for (int64_t id : rejected_ids)
        EXPECT_EQ(appearances.count(id), 0u);

    // --- Metrics totals equal per-request / per-step sums.
    EXPECT_EQ(metrics.completed,
              static_cast<int64_t>(metrics.requests.size()));
    EXPECT_EQ(metrics.rejected_queue_full +
                  metrics.rejected_too_long +
                  metrics.expired_deadline +
                  metrics.rejected_drained,
              static_cast<int64_t>(result.rejected.size()));
    int64_t token_sum = 0;
    int64_t preemption_sum = 0;
    for (const auto &r : metrics.requests) {
        token_sum += r.output_len;
        preemption_sum += r.preemptions;
        EXPECT_GE(r.ttftMs(), 0.0);
        EXPECT_GE(r.latencyMs(), r.ttftMs());
        EXPECT_EQ(r.preemptions > 0,
                  ever_preempted.count(r.id) > 0);
    }
    EXPECT_EQ(metrics.total_output_tokens, token_sum);
    EXPECT_EQ(metrics.steps,
              static_cast<int64_t>(steps.size()));
    EXPECT_EQ(metrics.busy_ms, serving::toMs(recomputed_busy));
    EXPECT_EQ(metrics.total_batched_seqs, recomputed_batched);
    EXPECT_EQ(metrics.preemptions, recomputed_preemptions);
    // Drained run: every preemption belongs to a completed
    // request.
    EXPECT_EQ(metrics.preemptions, preemption_sum);
    EXPECT_EQ(metrics.pool_pages, pool_pages);
    EXPECT_EQ(metrics.page_step_sum, recomputed_page_sum);
    EXPECT_GE(metrics.peak_pages_active, max_pages_active);
    EXPECT_LE(metrics.peak_pages_active, pool_pages);
    EXPECT_GE(metrics.pageUtilization(), 0.0);
    EXPECT_LE(metrics.pageUtilization(), 1.0);
    EXPECT_GE(metrics.prefixHitRate(), 0.0);
    EXPECT_LE(metrics.prefixHitRate(), 1.0);
    bool has_prefixes = false;
    for (const auto &r : run.trace)
        has_prefixes |= r.prefix_id != 0;
    if (!has_prefixes) {
        EXPECT_EQ(metrics.prefix_hit_pages, 0);
        EXPECT_EQ(metrics.prefix_miss_pages, 0);
    }
    if (!steps.empty()) {
        const auto &last = steps.back();
        EXPECT_EQ(metrics.makespan_ms,
                  serving::toMs(serving::toSimTime(last.start_ms) +
                                serving::toSimTime(last.step_ms)));
    }
    // Completion order is chronological.
    for (size_t i = 1; i < metrics.requests.size(); ++i)
        EXPECT_GE(metrics.requests[i].finish_ms,
                  metrics.requests[i - 1].finish_ms);
    // Every finish/first-token lands exactly on a step boundary.
    std::set<serving::SimTime> boundaries;
    for (const auto &s : steps)
        boundaries.insert(serving::toSimTime(s.start_ms) +
                          serving::toSimTime(s.step_ms));
    for (const auto &r : metrics.requests) {
        EXPECT_EQ(boundaries.count(serving::toSimTime(r.first_token_ms)),
                  1u);
        EXPECT_EQ(boundaries.count(serving::toSimTime(r.finish_ms)), 1u);
    }
}

} // namespace

TEST_P(SchedulerProperty, InvariantsHoldPaged)
{
    SeededRun run = runSeed(GetParam());
    checkInvariants(run);

    // The paged schedule replays bit-identically.
    SeededRun again = runSeed(GetParam());
    const auto &sa = again.result.replicas[0].steps;
    const auto &sr = run.result.replicas[0].steps;
    ASSERT_EQ(sa.size(), sr.size());
    for (size_t i = 0; i < sr.size(); ++i) {
        EXPECT_EQ(sa[i].prefill_ids, sr[i].prefill_ids);
        EXPECT_EQ(sa[i].decode_ids, sr[i].decode_ids);
        EXPECT_EQ(sa[i].preempted_ids, sr[i].preempted_ids);
        EXPECT_EQ(sa[i].pages_active, sr[i].pages_active);
        EXPECT_DOUBLE_EQ(sa[i].start_ms, sr[i].start_ms);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty,
                         ::testing::Range<uint64_t>(0, 100));

// ---------------------------------------------------------------
// Fleet under faults: 100 seeded (trace, fleet-config, fault-plan)
// scenarios, each checked for conservation (every request
// completes, is rejected, expires, or exhausts its retries —
// exactly once), token-exactness across failovers (a completed
// request occupies exactly output_len committed steps fleet-wide,
// the same count the fault-free run gives it), no committed step
// overlapping a replica's down window, metric consistency, and
// bit-identical reruns.
// ---------------------------------------------------------------

namespace {

struct FleetSeededRun
{
    std::vector<Request> trace;
    serving::FleetOptions options;
    serving::FleetResult result;
};

FleetSeededRun
runFleetSeed(uint64_t seed, bool with_faults)
{
    serving::TraceOptions trace_options;
    trace_options.seed = seed;
    trace_options.num_requests =
        32 + static_cast<int64_t>(seed % 33);
    trace_options.mean_interarrival_ms =
        1.0 + static_cast<double>(seed % 5);
    trace_options.min_input_len = 4;
    trace_options.max_input_len = 96;
    trace_options.min_output_len = 1;
    trace_options.max_output_len = 20;
    if (seed % 3 == 0) {
        trace_options.num_prefix_groups = 2;
        trace_options.shared_prefix_len = 16;
    }
    if (seed % 5 == 0) {
        // A fifth of the seeds carry deadlines so expiry interacts
        // with outages (parked requests expiring mid-crash).
        trace_options.deadline_slack_ms =
            150.0 + 50.0 * static_cast<double>(seed % 4);
    }

    FleetSeededRun run;
    run.trace = seed % 2 == 0
                    ? serving::poissonTrace(trace_options)
                    : serving::burstyTrace(trace_options);

    run.options.num_replicas = 2 + static_cast<int>(seed % 3);
    run.options.replica.max_batch =
        2 + static_cast<int64_t>(seed % 5);
    run.options.replica.kv_budget_tokens =
        192 + 64 * static_cast<int64_t>(seed % 9);
    run.options.replica.max_queue_depth =
        seed % 4 == 0 ? 8 + static_cast<int64_t>(seed % 9) : 0;
    run.options.replica.record_steps = true;
    run.options.max_retries = 1 + static_cast<int64_t>(seed % 3);
    run.options.retry_backoff_ms =
        1.0 + static_cast<double>(seed % 4);

    if (with_faults) {
        serving::SeededFaultOptions fault_options;
        fault_options.seed = seed * 7 + 1;
        fault_options.num_replicas = run.options.num_replicas;
        fault_options.horizon_ms = 400.0;
        fault_options.crash_prob = 0.6;
        fault_options.slow_prob = 0.5;
        fault_options.drain_prob = 0.35;
        run.options.faults =
            serving::seededFaultPlan(fault_options);
        // A quarter of the seeds charge recoveries and swaps a
        // weight reload; a third hot-swap a replica mid-run, so
        // swaps run both with a reload window and with none.
        if (seed % 4 == 1)
            run.options.recovery_reload_ms =
                20.0 + 10.0 * static_cast<double>(seed % 5);
        if (seed % 3 == 1)
            run.options.faults.events.push_back(
                {150.0, static_cast<int>(seed) %
                            run.options.num_replicas,
                 serving::FaultKind::Swap, 1.0});
    }

    serving::AnalyticCostModel cost;
    serving::FleetScheduler fleet(run.options, cost);
    run.result = fleet.run(run.trace);
    return run;
}

/** Down windows per replica, replayed from the plan with the
 *  fleet's tolerant semantics at the instants the events fire, on
 *  the nanosecond grid: a crash takes an up replica down until a
 *  Recover, which then keeps it down for the reload window; a swap
 *  takes an up replica down for the reload window alone. Events on
 *  a replica that is down or reloading are no-ops, and a zero
 *  window rejoins at once. */
std::map<int, std::vector<std::pair<double, double>>>
downWindows(const serving::FleetOptions &options)
{
    serving::FaultInjector injector(options.faults);
    const serving::SimTime reload =
        serving::toSimTime(options.recovery_reload_ms);
    const double never = std::numeric_limits<double>::infinity();
    std::map<int, std::vector<std::pair<double, double>>> windows;
    std::map<int, serving::SimTime> up_from;
    for (const auto &e : injector.drainDue(serving::kNever)) {
        serving::SimTime &from =
            up_from.try_emplace(e.replica, 0).first->second;
        serving::SimTime at = serving::toSimTime(e.at_ms);
        auto &list = windows[e.replica];
        if (e.kind == serving::FaultKind::Crash && from <= at) {
            from = serving::kNever;
            list.push_back({serving::toMs(at), never});
        } else if (e.kind == serving::FaultKind::Recover &&
                   from == serving::kNever) {
            from = at + reload;
            list.back().second = serving::toMs(from);
        } else if (e.kind == serving::FaultKind::Swap && from <= at) {
            from = at + reload;
            list.push_back({serving::toMs(at), serving::toMs(from)});
        }
    }
    return windows;
}

/** Committed step appearances of every request, fleet-wide. */
std::map<int64_t, int64_t>
fleetAppearances(const serving::FleetResult &result)
{
    std::map<int64_t, int64_t> count;
    for (const auto &replica : result.replicas)
        for (const auto &s : replica.steps)
            for (int64_t id : stepMembers(s))
                ++count[id];
    return count;
}

class FleetProperty : public ::testing::TestWithParam<uint64_t>
{};

void
checkFleetInvariants(const FleetSeededRun &run)
{
    const auto &result = run.result;
    const auto &fm = result.metrics;
    ASSERT_FALSE(result.hit_step_limit);
    ASSERT_EQ(static_cast<int>(result.replicas.size()),
              run.options.num_replicas);

    std::map<int64_t, Request> by_id;
    for (const auto &r : run.trace)
        by_id[r.id] = r;

    // --- Conservation: completed, rejected (any reason), or lost
    // — exactly one terminal outcome per request.
    std::set<int64_t> completed_ids, rejected_ids, lost_ids;
    for (const auto &r : fm.requests)
        EXPECT_TRUE(completed_ids.insert(r.id).second)
            << "request completed twice: " << r.id;
    for (const auto &r : result.rejected)
        EXPECT_TRUE(rejected_ids.insert(r.id).second)
            << "request rejected twice: " << r.id;
    for (const auto &r : result.lost)
        EXPECT_TRUE(lost_ids.insert(r.id).second)
            << "request lost twice: " << r.id;
    EXPECT_EQ(completed_ids.size() + rejected_ids.size() +
                  lost_ids.size(),
              run.trace.size());
    for (const auto &r : run.trace) {
        int outcomes = (completed_ids.count(r.id) ? 1 : 0) +
                       (rejected_ids.count(r.id) ? 1 : 0) +
                       (lost_ids.count(r.id) ? 1 : 0);
        EXPECT_EQ(outcomes, 1)
            << "request without exactly one outcome: " << r.id;
    }

    // --- Token exactness across failovers: a completed request
    // occupies exactly output_len committed steps fleet-wide; an
    // uncompleted one strictly fewer (its aborted work was never
    // committed).
    auto appearances = fleetAppearances(result);
    for (int64_t id : completed_ids)
        EXPECT_EQ(appearances[id], by_id.at(id).output_len)
            << "token count drifted across failovers: " << id;
    for (const auto &[id, count] : appearances) {
        if (!completed_ids.count(id)) {
            EXPECT_LT(count, by_id.at(id).output_len)
                << "uncompleted request over-ran: " << id;
        }
    }

    // --- No committed step on a downed replica: every step
    // record fits outside its replica's down windows (a step may
    // *end* exactly at the crash instant).
    auto windows = downWindows(run.options);
    for (size_t i = 0; i < result.replicas.size(); ++i) {
        auto it = windows.find(static_cast<int>(i));
        if (it == windows.end())
            continue;
        for (const auto &s : result.replicas[i].steps) {
            double end = s.start_ms + s.step_ms;
            for (const auto &[down, recover] : it->second)
                EXPECT_TRUE(end <= down + 1e-9 ||
                            s.start_ms >= recover - 1e-9)
                    << "replica " << i << " stepped at ["
                    << s.start_ms << ", " << end
                    << ") inside down window [" << down << ", "
                    << recover << ")";
        }
    }

    // --- Up-time: each replica is up for the makespan less its
    // down windows clipped to the makespan.
    for (size_t i = 0; i < result.replicas.size(); ++i) {
        double down_ms = 0.0;
        for (const auto &[down, up] : windows[static_cast<int>(i)])
            down_ms += std::min(up, fm.makespan_ms) -
                       std::min(down, fm.makespan_ms);
        EXPECT_NEAR(fm.replica_up_ms[i], fm.makespan_ms - down_ms,
                    1e-9 * fm.makespan_ms)
            << "replica " << i;
    }

    // --- Metric consistency.
    EXPECT_EQ(fm.completed,
              static_cast<int64_t>(fm.requests.size()));
    EXPECT_EQ(fm.requests_lost,
              static_cast<int64_t>(result.lost.size()));
    EXPECT_EQ(fm.rejected_queue_full + fm.rejected_too_long +
                  fm.expired_deadline + fm.rejected_drained,
              static_cast<int64_t>(result.rejected.size()));
    int64_t steps = 0;
    for (const auto &replica : result.replicas) {
        EXPECT_EQ(replica.metrics.in_flight, 0);
        steps += replica.metrics.steps;
    }
    EXPECT_EQ(fm.steps, steps);
    int64_t completed_failovers = 0;
    int64_t deadline_misses = 0;
    for (const auto &r : fm.requests) {
        EXPECT_LE(r.failovers, run.options.max_retries);
        EXPECT_GE(r.replica, 0);
        EXPECT_LT(r.replica, run.options.num_replicas);
        completed_failovers += r.failovers;
        deadline_misses += r.missedDeadline() ? 1 : 0;
    }
    EXPECT_EQ(fm.deadline_misses, deadline_misses);
    EXPECT_GE(fm.failovers, completed_failovers);
    for (const auto &l : result.lost)
        EXPECT_TRUE(l.attempts > run.options.max_retries ||
                    l.attempts ==
                        0) // stranded parked arrivals carry 0
            << "lost with unspent retries: " << l.id;
    EXPECT_GE(fm.availability(), 0.0);
    EXPECT_LE(fm.availability(), 1.0);
    EXPECT_GE(fm.uptimeFraction(), 0.0);
    EXPECT_LE(fm.uptimeFraction(), 1.0 + 1e-12);
    EXPECT_EQ(fm.replica_up_ms.size(),
              static_cast<size_t>(run.options.num_replicas));
    // Merged per-request metrics are in (finish, id) order.
    for (size_t i = 1; i < fm.requests.size(); ++i)
        EXPECT_TRUE(
            fm.requests[i - 1].finish_ms <
                fm.requests[i].finish_ms ||
            (fm.requests[i - 1].finish_ms ==
                 fm.requests[i].finish_ms &&
             fm.requests[i - 1].id < fm.requests[i].id));
}

} // namespace

TEST_P(FleetProperty, InvariantsHoldUnderFaults)
{
    FleetSeededRun run = runFleetSeed(GetParam(), true);
    checkFleetInvariants(run);

    // A completed request's fleet-wide committed step count
    // equals its count in the fault-free run of the same
    // scenario: crashes cost time, never tokens.
    FleetSeededRun calm = runFleetSeed(GetParam(), false);
    checkFleetInvariants(calm);
    auto faulted = fleetAppearances(run.result);
    auto baseline = fleetAppearances(calm.result);
    for (const auto &r : run.result.metrics.requests) {
        if (baseline.count(r.id)) {
            EXPECT_EQ(faulted[r.id], baseline[r.id])
                << "faulted token count diverged: " << r.id;
        }
    }
}

TEST_P(FleetProperty, FaultedRunsReplayBitIdentically)
{
    FleetSeededRun a = runFleetSeed(GetParam(), true);
    FleetSeededRun b = runFleetSeed(GetParam(), true);
    ASSERT_EQ(a.result.replicas.size(), b.result.replicas.size());
    for (size_t i = 0; i < a.result.replicas.size(); ++i) {
        const auto &sa = a.result.replicas[i].steps;
        const auto &sb = b.result.replicas[i].steps;
        ASSERT_EQ(sa.size(), sb.size());
        for (size_t j = 0; j < sa.size(); ++j) {
            EXPECT_EQ(sa[j].prefill_ids, sb[j].prefill_ids);
            EXPECT_EQ(sa[j].decode_ids, sb[j].decode_ids);
            EXPECT_DOUBLE_EQ(sa[j].start_ms, sb[j].start_ms);
            EXPECT_DOUBLE_EQ(sa[j].step_ms, sb[j].step_ms);
        }
    }
    ASSERT_EQ(a.result.metrics.requests.size(),
              b.result.metrics.requests.size());
    for (size_t i = 0; i < a.result.metrics.requests.size(); ++i) {
        EXPECT_EQ(a.result.metrics.requests[i].id,
                  b.result.metrics.requests[i].id);
        EXPECT_DOUBLE_EQ(a.result.metrics.requests[i].finish_ms,
                         b.result.metrics.requests[i].finish_ms);
        EXPECT_EQ(a.result.metrics.requests[i].replica,
                  b.result.metrics.requests[i].replica);
    }
    EXPECT_EQ(a.result.metrics.failovers,
              b.result.metrics.failovers);
    EXPECT_EQ(a.result.metrics.requests_lost,
              b.result.metrics.requests_lost);
    ASSERT_EQ(a.result.lost.size(), b.result.lost.size());
    for (size_t i = 0; i < a.result.lost.size(); ++i)
        EXPECT_EQ(a.result.lost[i].id, b.result.lost[i].id);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetProperty,
                         ::testing::Range<uint64_t>(0, 100));

// The seeded fault plans must collectively exercise every fault
// machinery path, or the invariants above are vacuous.
TEST(FleetPropertyCoverage, SeedsExerciseEveryFaultKind)
{
    int64_t crashes = 0, recoveries = 0, slowdowns = 0;
    int64_t drains = 0, failovers = 0, lost = 0;
    int64_t reloads = 0, swaps_reloading = 0, swaps_instant = 0;
    int64_t completed_with_failover = 0;
    for (uint64_t seed = 0; seed < 100; ++seed) {
        FleetSeededRun run = runFleetSeed(seed, true);
        const auto &fm = run.result.metrics;
        crashes += fm.crashes;
        recoveries += fm.recoveries;
        slowdowns += fm.slowdowns;
        drains += fm.drains;
        failovers += fm.failovers;
        reloads += fm.reloads - fm.swaps;
        (run.options.recovery_reload_ms > 0.0 ? swaps_reloading
                                               : swaps_instant) +=
            fm.swaps;
        lost += fm.requests_lost;
        for (const auto &r : fm.requests)
            completed_with_failover += r.failovers > 0 ? 1 : 0;
    }
    EXPECT_GT(crashes, 0);
    EXPECT_GT(recoveries, 0);
    EXPECT_GT(slowdowns, 0);
    EXPECT_GT(drains, 0);
    EXPECT_GT(failovers, 0);
    // Recoveries into a reload window, and swaps both with a
    // reload window and with none.
    EXPECT_GT(reloads, 0);
    EXPECT_GT(swaps_reloading, 0);
    EXPECT_GT(swaps_instant, 0);
    // Crash survivors that finished on another replica — the
    // failover path end to end, not just the bookkeeping.
    EXPECT_GT(completed_with_failover, 0);
    (void)lost; // losses depend on retry budgets; not required
}

// The 100 seeds must actually exercise the interesting paged
// machinery somewhere, or the invariants above are vacuous.
TEST(SchedulerPropertyCoverage, SeedsExercisePreemptionAndSharing)
{
    int64_t preemptions = 0;
    int64_t prefix_hits = 0;
    for (uint64_t seed = 0; seed < 100; ++seed) {
        SeededRun run = runSeed(seed);
        preemptions += run.result.metrics.preemptions;
        prefix_hits += run.result.metrics.prefix_hit_pages;
    }
    EXPECT_GT(preemptions, 0);
    EXPECT_GT(prefix_hits, 0);
}

// ---- RequestQueue queued-input-token counter: the O(1) running
// ---- sum fleet routing reads on every pick must equal the
// ---- recomputed sum over queue contents after ANY operation mix
// ---- (push / pushFront / pop / expireBefore / drainAll). ----

TEST(QueueProperty, QueuedInputTokensMatchesContentsAcrossOps)
{
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        std::mt19937_64 rng(seed);
        serving::RequestQueue q(
            seed % 3 == 0 ? 0 : 8 + static_cast<int64_t>(seed % 9));
        double now = 0.0;
        int64_t next_id = 0;

        auto recompute = [&] {
            int64_t sum = 0;
            for (const auto &queued : q.snapshot())
                sum += queued.req.input_len;
            return sum;
        };

        for (int round = 0; round < 200; ++round) {
            now += static_cast<double>(rng() % 5);
            switch (rng() % 6) {
            case 0:
            case 1: { // push (sometimes refused at capacity)
                Request r;
                r.id = next_id++;
                r.input_len =
                    1 + static_cast<int64_t>(rng() % 96);
                if (rng() % 2)
                    r.deadline_ms =
                        now + static_cast<double>(rng() % 10);
                q.push(r);
                break;
            }
            case 2: { // readmission path (capacity-exempt)
                Request r;
                r.id = next_id++;
                r.input_len =
                    1 + static_cast<int64_t>(rng() % 96);
                q.pushFront({r, {}});
                break;
            }
            case 3:
                if (!q.empty())
                    q.pop();
                break;
            case 4:
                q.expireBefore(serving::toSimTime(now));
                break;
            case 5: // fleet evacuation path
                if (round % 17 == 0)
                    q.drainAll();
                break;
            }
            ASSERT_EQ(q.queuedInputTokens(), recompute())
                << "seed " << seed << " round " << round;
            ASSERT_EQ(q.size(),
                      static_cast<int64_t>(q.snapshot().size()))
                << "seed " << seed << " round " << round;
        }
        // Fully drained queues return to exactly zero demand.
        q.drainAll();
        EXPECT_EQ(q.queuedInputTokens(), 0) << "seed " << seed;
    }
}
