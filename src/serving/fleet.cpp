#include "serving/fleet.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "serving/trace.h"
#include "support/error.h"

namespace streamtensor {
namespace serving {

namespace {

/** Sort @p trace into (arrival, id) service order and validate it
 *  (positive lengths, arrivals and deadlines on the clock's range,
 *  well-formed prefixes, unique ids). Arrivals and deadlines snap to
 *  the nanosecond grid, arrivals before the sort, so instants that
 *  tie on the clock tie here. */
void
sortAndValidateTrace(std::vector<Request> &trace)
{
    std::set<int64_t> ids;
    for (auto &r : trace) {
        ST_CHECK(r.input_len >= 1 && r.output_len >= 1,
                 "request lengths must be positive");
        r.arrival_ms = toMs(toSimTime(r.arrival_ms));
        r.deadline_ms = toMs(toSimTime(r.deadline_ms));
        ST_CHECK(r.prefix_id >= 0 && r.prefix_len >= 0 &&
                     r.prefix_len <= r.input_len &&
                     (r.prefix_id != 0 || r.prefix_len == 0),
                 "malformed shared prefix");
        ST_CHECK(ids.insert(r.id).second,
                 "trace ids must be unique");
    }
    std::stable_sort(trace.begin(), trace.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrival_ms < b.arrival_ms ||
                                (a.arrival_ms == b.arrival_ms &&
                                 a.id < b.id);
                     });
}

/** One fleet run: the state, the six round phases, the round loop,
 *  decode-run planning and the next-instant rule. */
struct FleetRun
{
    const FleetOptions &options;
    StepCostModel &cost;
    StepCostModel *degraded_cost;
    ArrivalCursor &arrivals;

    /** FleetOptions' retry_backoff_ms and recovery_reload_ms. */
    SimTime backoff;
    SimTime reload_window;

    std::vector<ReplicaEngine> engines;

    /** Instant each replica is up from: it takes launches and
     *  routing sees it while up_at <= now. A Recover or Swap sets
     *  it to the end of its reload window, so the replica rejoins
     *  by the passage of time alone; a Crash sets it to kNever.
     *  While up, it is also the start of the current up-time. */
    std::vector<SimTime> up_at;
    FaultInjector injector;
    FleetResult result;

    /** Retry buffer: a failover waiting out its backoff, a drain
     *  hand-off, or an arrival parked because no replica was
     *  eligible, each with its progress. Keyed by (ready instant,
     *  id): map order IS dispatch order, which keeps redispatch
     *  deterministic. */
    std::map<std::pair<SimTime, int64_t>, QueuedRequest> pending;

    /** Second index over the buffer, kept in lockstep by
     *  parkPending / erasePending: (deadline, id) -> ready instant
     *  for every entry with a deadline. Its order gates the expiry
     *  sweep and the deadline wake-up; its value finds the entry
     *  in `pending` — O(log n) each. */
    std::map<std::pair<SimTime, int64_t>, SimTime> pending_deadlines;

    /** The replicas phase 6 launched this round (scratch for
     *  stageRuns). */
    std::vector<size_t> launched;

    SimTime now = 0;

    FleetRun(const FleetOptions &options_in,
             StepCostModel &cost_in,
             StepCostModel *degraded_cost_in,
             ArrivalCursor &arrivals_in)
        : options(options_in), cost(cost_in),
          degraded_cost(degraded_cost_in), arrivals(arrivals_in),
          backoff(toSimTime(options_in.retry_backoff_ms)),
          reload_window(toSimTime(options_in.recovery_reload_ms)),
          injector(options_in.faults)
    {
        auto n = static_cast<size_t>(options.num_replicas);
        launched.reserve(n);
        engines.reserve(n);
        for (size_t i = 0; i < n; ++i)
            engines.emplace_back(options.replica, cost,
                                 static_cast<int>(i));
        up_at.assign(n, 0);
        result.metrics.replica_up_ms.assign(n, 0.0);
    }

    bool isUp(size_t idx) const { return up_at[idx] <= now; }

    /** Charge one weight-reload window (recover or swap). */
    void chargeReload()
    {
        ++result.metrics.reloads;
        result.metrics.reload_ms_total += toMs(reload_window);
    }

    /** The routing rule (fleet.h): the eligible replica with the
     *  least kvLoadTokens(), ties to the shallower queue, then the
     *  lower id; -1 when no replica is up and not draining. */
    int pickReplica()
    {
        int best = -1;
        int64_t best_load = 0, best_depth = 0;
        for (size_t i = 0; i < engines.size(); ++i) {
            const ReplicaEngine &eng = engines[i];
            if (!isUp(i) || eng.draining())
                continue;
            int64_t load = eng.kvLoadTokens();
            int64_t depth = eng.queueDepth();
            if (best < 0 || load < best_load ||
                (load == best_load && depth < best_depth)) {
                best = static_cast<int>(i);
                best_load = load;
                best_depth = depth;
            }
        }
        return best;
    }

    /** Ready instant of a request evacuated after consuming its
     *  @p attempts-th attempt: now + backoff × 2^(attempts - 1). */
    SimTime retryReady(int64_t attempts) const
    {
        int64_t shift = attempts - 1;
        ST_CHECK(backoff == 0 ||
                     (shift < 63 && backoff <= (kNever >> shift)),
                 "retry backoff overflows the simulated clock");
        return later(now, backoff << shift);
    }

    void rejectFleet(const Request &r, RejectReason reason)
    {
        result.metrics.countRejection(reason);
        result.rejected.push_back({r.id, r.arrival_ms, reason, toMs(now)});
    }

    /** Record @p q lost, with the failover attempts it consumed. */
    void loseRequest(const QueuedRequest &q)
    {
        ++result.metrics.requests_lost;
        result.lost.push_back({q.req.id, toMs(now), q.state.failovers});
    }

    /** Insert into the retry buffer and maintain its index. */
    void parkPending(SimTime ready, QueuedRequest q)
    {
        const Request &r = q.req;
        if (r.deadline_ms > 0.0)
            pending_deadlines[{toSimTime(r.deadline_ms), r.id}] = ready;
        pending[{ready, r.id}] = std::move(q);
    }

    using PendingIt = std::map<std::pair<SimTime, int64_t>,
                               QueuedRequest>::iterator;

    PendingIt erasePending(PendingIt it)
    {
        const Request &r = it->second.req;
        if (r.deadline_ms > 0.0)
            pending_deadlines.erase({toSimTime(r.deadline_ms), r.id});
        return pending.erase(it);
    }

    void dispatchArrival(const Request &r)
    {
        // servable() is a pure function of the shared replica
        // options, so one engine answers for the whole fleet.
        if (!engines[0].servable(r)) {
            rejectFleet(r, RejectReason::TooLong);
            return;
        }
        if (deadlinePassed(r, now)) {
            rejectFleet(r, RejectReason::DeadlineExpired);
            return;
        }
        int target = pickReplica();
        if (target < 0) {
            // Total outage: park with no attempt consumed; the
            // request dispatches the instant a replica recovers.
            parkPending(now, {r, ResumeState{}});
            return;
        }
        engines[static_cast<size_t>(target)].offer(r, now);
    }

    /** Route every due retry-buffer entry to an eligible replica.
     *  Readmission is front-insertion, so dispatching in *reverse*
     *  (ready, id) order leaves earlier requests nearer the head
     *  on a shared target. readmit() changes neither up_at nor
     *  draining(), so with no eligible replica now there is none
     *  for any due entry: the buffer stays as it is, in O(1). */
    void redispatchDue()
    {
        if (pickReplica() < 0)
            return;
        std::vector<QueuedRequest> due;
        for (auto it = pending.begin();
             it != pending.end() && it->first.first <= now;) {
            due.push_back(std::move(it->second));
            it = erasePending(it);
        }
        for (auto it = due.rbegin(); it != due.rend(); ++it)
            engines[static_cast<size_t>(pickReplica())].readmit(*it);
    }

    /** Take the up replica @p idx out of service until @p until
     *  (a crash or a swap): charge its up-time, count an in-flight
     *  step as aborted, clear drain mode, and return its evacuated
     *  requests with their progress. */
    std::vector<QueuedRequest> takeDown(size_t idx, SimTime until)
    {
        FleetMetrics &fm = result.metrics;
        ReplicaEngine &eng = engines[idx];
        fm.replica_up_ms[idx] += toMs(now - up_at[idx]);
        up_at[idx] = until;
        if (eng.busy())
            ++fm.aborted_steps;
        eng.setDraining(false);
        return eng.crash();
    }

    void applyFault(const FaultEvent &e)
    {
        FleetMetrics &fm = result.metrics;
        auto idx = static_cast<size_t>(e.replica);
        ReplicaEngine &eng = engines[idx];
        switch (e.kind) {
        case FaultKind::Crash:
            if (!isUp(idx))
                break; // down or mid-reload: tolerant no-op
            ++fm.crashes;
            // A crash wipes transient state; standing slow /
            // degrade / drain windows re-apply only via their own
            // events landing while the replica is down.
            eng.setSlowFactor(1.0);
            eng.setCost(cost);
            for (auto &ev : takeDown(idx, kNever)) {
                ev.state.failovers += 1;
                ++fm.failovers;
                if (ev.state.failovers > options.max_retries) {
                    loseRequest(ev);
                } else {
                    SimTime ready = retryReady(ev.state.failovers);
                    parkPending(ready, std::move(ev));
                }
            }
            break;
        case FaultKind::Recover:
            // Tolerant no-op when up — or mid-reload: a second
            // Recover must not restart (or shortcut) the window.
            if (up_at[idx] < kNever)
                break;
            ++fm.recoveries;
            // The replica re-streams its weights from storage for
            // the reload window before it is eligible again; a
            // zero window rejoins it at once.
            up_at[idx] = later(now, reload_window);
            if (reload_window > 0)
                chargeReload();
            break;
        case FaultKind::SlowStart:
            // Takes effect at the next launch; an in-flight step
            // keeps the cost it was launched with.
            eng.setSlowFactor(e.factor);
            ++fm.slowdowns;
            break;
        case FaultKind::SlowEnd:
            eng.setSlowFactor(1.0);
            break;
        case FaultKind::DegradeStart:
            if (degraded_cost) {
                eng.setCost(*degraded_cost);
                ++fm.degrades;
            }
            break;
        case FaultKind::DegradeEnd:
            eng.setCost(cost);
            break;
        case FaultKind::DrainStart:
            if (isUp(idx) && !eng.draining()) {
                eng.setDraining(true);
                ++fm.drains;
                // Graceful: the queue re-routes immediately, no
                // attempt consumed, no backoff — nothing was
                // lost.
                for (auto &ev : eng.evacuateQueue())
                    parkPending(now, std::move(ev));
            }
            break;
        case FaultKind::DrainEnd:
            eng.setDraining(false);
            break;
        case FaultKind::Swap:
            if (!isUp(idx))
                break; // down or mid-reload: tolerant no-op
            ++fm.swaps;
            chargeReload();
            // Graceful evacuation: operator-initiated, so no
            // retry attempt is consumed and no backoff applies —
            // but KV dies with the old weights, so resumed
            // requests recompute their prefix elsewhere. A zero
            // window rejoins at once, as for Recover.
            for (auto &ev : takeDown(idx, later(now, reload_window)))
                parkPending(now, std::move(ev));
            break;
        }
    }

    void arrivalsPhase()
    {
        while (!arrivals.exhausted() && arrivals.nextArrival() <= now)
            dispatchArrival(arrivals.take());
    }

    /** Work remains but no future event can revive a replica to
     *  run it: every parked request is lost. */
    void strandPending()
    {
        for (const auto &[key, q] : pending)
            loseRequest(q);
        pending.clear();
        pending_deadlines.clear();
    }

    void finalizeRun()
    {
        FleetMetrics &fm = result.metrics;
        for (size_t idx = 0; idx < engines.size(); ++idx) {
            if (isUp(idx))
                fm.replica_up_ms[idx] += toMs(now - up_at[idx]);
            ReplicaEngine &eng = engines[idx];
            eng.finalize(now);
            // Replica-id merge order keeps the merged sketches
            // bit-identical across runs.
            fm.merge(eng.result().metrics);
            result.rejected.insert(result.rejected.end(),
                                   eng.result().rejected.begin(),
                                   eng.result().rejected.end());
            result.replicas.push_back(std::move(eng.result()));
        }
        // (finish, id) order, on one replica too: a replica reports
        // same-step completions in admission order.
        std::stable_sort(
            fm.requests.begin(), fm.requests.end(),
            [](const RequestMetrics &a, const RequestMetrics &b) {
                return a.finish_ms < b.finish_ms ||
                       (a.finish_ms == b.finish_ms && a.id < b.id);
            });
        std::stable_sort(result.rejected.begin(),
                         result.rejected.end(),
                         [](const RejectedRequest &a,
                            const RejectedRequest &b) {
                             return a.at_ms < b.at_ms ||
                                    (a.at_ms == b.at_ms &&
                                     a.id < b.id);
                         });
    }

    // ---- Decode runs (fleet.h) ---------------------------------

    /** Phase 6, second half: plan a run for every replica launched
     *  this round under the fleet-wide caps (fleet.h): the step
     *  budget and no queued deadline. When either fails, every
     *  standing run is cut. Returns the steps committed across the
     *  fleet and whether any work remains anywhere (a busy replica
     *  has work). One walk over the replicas. */
    std::pair<int64_t, bool> stageRuns()
    {
        int64_t committed = 0, ahead = 0; // in flight or planned
        bool deadline_queued = false, work_left = false;
        for (auto &eng : engines) {
            committed += eng.result().metrics.steps;
            ahead += (eng.busy() ? 1 : 0) + eng.plannedRepeats();
            deadline_queued = deadline_queued || eng.queuedDeadlines();
            work_left = work_left || eng.hasWork();
        }
        int64_t budget = options.replica.max_steps - 1 - committed - ahead;
        if (deadline_queued || budget < 0) {
            for (auto &eng : engines) {
                budget += eng.plannedRepeats();
                eng.cutRun();
            }
        }
        for (size_t i : launched)
            budget -= engines[i].planRun(
                deadline_queued ? 0 : budget);
        launched.clear();
        return {committed, work_left || !pending.empty() ||
                               !arrivals.exhausted()};
    }

    // ---- Next instant (fleet.h) --------------------------------

    /** The earliest instant after now at which anything can happen:
     *  the next fault or arrival, a busy replica's run end, a reload
     *  window's end, or a parked request becoming ready or expiring
     *  — O(num_replicas + log pending). Parked entries ready at or
     *  before now wait on one of the others (or expire, or strand).
     *  kNever when nothing remains. */
    SimTime nextInstant()
    {
        SimTime next_t = injector.nextAt();
        if (!arrivals.exhausted())
            next_t = std::min(next_t, arrivals.nextArrival());
        for (size_t i = 0; i < engines.size(); ++i) {
            next_t = std::min(next_t, engines[i].wakeAt());
            if (up_at[i] > now)
                next_t = std::min(next_t, up_at[i]);
        }
        constexpr int64_t last_id = std::numeric_limits<int64_t>::max();
        auto ready = pending.upper_bound({now, last_id});
        if (ready != pending.end())
            next_t = std::min(next_t, ready->first.first);
        auto deadline = pending_deadlines.upper_bound({now, last_id});
        if (deadline != pending_deadlines.end())
            next_t = std::min(next_t, deadline->first.first);
        return next_t;
    }

    /** Expire every retry-buffer entry whose deadline has passed,
     *  walking the (deadline, id) index, whose value is the entry's
     *  ready instant: O(log n) per expiry. The rejection log sorts
     *  by (instant, id) at finalize, so the in-round order is
     *  free. */
    void expirePending()
    {
        while (!pending_deadlines.empty() &&
               pending_deadlines.begin()->first.first <= now) {
            auto [key, ready] = *pending_deadlines.begin();
            auto it = pending.find({ready, key.second});
            ST_ASSERT(it != pending.end(),
                      "retry-buffer deadline index out of sync");
            rejectFleet(it->second.req,
                        RejectReason::DeadlineExpired);
            erasePending(it);
        }
    }

    // ---- The round loop ----------------------------------------

    FleetResult run()
    {
        while (true) {
            ++result.rounds;

            // 1. Step completions (id order), catching up through
            // decode runs. A step ending exactly at a crash instant
            // completes first: its tokens were produced before the
            // failure.
            for (auto &eng : engines)
                eng.completeDue(now);

            // 2. Fault events, in plan firing order — before
            // arrivals, so an arrival at a crash instant sees the
            // replica down. A reload window ending at this instant
            // ends before its events (up_at <= now).
            for (const auto &e : injector.drainDue(now))
                applyFault(e);

            // 3. Arrivals, in (arrival, id) order.
            arrivalsPhase();

            // 4. Deadline sweeps: replica queues (O(1) when
            // deadline-free, queue.h), then the retry buffer (a
            // parked request can expire mid-outage).
            for (auto &eng : engines)
                eng.expireDeadlines(now);
            expirePending();

            // 5. Due retries.
            redispatchDue();

            // 6. Launch a step on every idle up replica (id
            // order), then plan decode runs.
            for (size_t idx = 0; idx < engines.size(); ++idx) {
                auto &eng = engines[idx];
                if (!isUp(idx) || eng.busy())
                    continue;
                eng.launchStep(now);
                ST_ASSERT(eng.busy() || !eng.hasWork() ||
                              eng.draining(),
                          "idle up replica refused its work");
                if (eng.busy())
                    launched.push_back(idx);
            }
            auto [total_steps, work_left] = stageRuns();
            if (total_steps >= options.replica.max_steps &&
                work_left) {
                result.hit_step_limit = true;
                break;
            }
            if (!work_left)
                break; // served everything; residual faults moot

            SimTime next_t = nextInstant();
            if (next_t == kNever) {
                strandPending();
                break;
            }
            ST_ASSERT(next_t > now,
                      "fleet clock failed to advance");
            now = next_t;
        }
        finalizeRun();
        return std::move(result);
    }
};

} // namespace

double
FleetMetrics::availability() const
{
    int64_t outcomes = completed + requests_lost + expired_deadline;
    return outcomes > 0 ? static_cast<double>(completed) /
                              static_cast<double>(outcomes)
                        : 1.0;
}

double
FleetMetrics::uptimeFraction() const
{
    if (makespan_ms <= 0.0 || replica_up_ms.empty())
        return 1.0;
    double up = 0.0;
    for (double ms : replica_up_ms)
        up += ms;
    return up / (makespan_ms *
                 static_cast<double>(replica_up_ms.size()));
}

FleetScheduler::FleetScheduler(FleetOptions options,
                               StepCostModel &cost,
                               StepCostModel *degraded_cost)
    : options_(std::move(options)), cost_(cost),
      degraded_cost_(degraded_cost)
{
    ST_CHECK(options_.num_replicas >= 1, "fleet needs replicas");
    ST_CHECK(options_.max_retries >= 0, "retry budget domain");
    // On the clock's range (request.h), as FleetRun converts them.
    (void)toSimTime(options_.retry_backoff_ms);
    (void)toSimTime(options_.recovery_reload_ms);
    validateReplicaOptions(options_.replica);
    for (const auto &e : options_.faults.events)
        ST_CHECK(e.replica >= 0 &&
                     e.replica < options_.num_replicas,
                 "fault plan names a replica outside the fleet");
}

FleetResult
FleetScheduler::run(std::vector<Request> trace)
{
    sortAndValidateTrace(trace);
    ArrivalCursor arrivals(trace);
    return runCursor(arrivals);
}

FleetResult
FleetScheduler::run(TraceGenerator &trace)
{
    // The generator's stream is already in (arrival, id) order
    // and domain-valid by construction — see trace.h.
    ArrivalCursor arrivals(trace);
    return runCursor(arrivals);
}

FleetResult
FleetScheduler::runCursor(ArrivalCursor &arrivals)
{
    return FleetRun(options_, cost_, degraded_cost_, arrivals).run();
}

} // namespace serving
} // namespace streamtensor
