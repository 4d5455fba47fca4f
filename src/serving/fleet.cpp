#include "serving/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "serving/trace.h"
#include "support/error.h"

namespace streamtensor {
namespace serving {

namespace {

/** Exponential backoff growth per consumed failover attempt. */
constexpr double kRetryBackoffFactor = 2.0;

/** One fleet run: the state, the six round phases, the round loop,
 *  decode-run planning and the next-instant rule. */
struct FleetRun
{
    const FleetOptions &options;
    StepCostModel &cost;
    StepCostModel *degraded_cost;
    ArrivalCursor &arrivals;

    static constexpr double inf =
        std::numeric_limits<double>::infinity();

    int n;
    std::vector<ReplicaEngine> engines;
    std::vector<bool> up;
    std::vector<double> up_since;

    /** Instant each replica's in-flight weight reload completes
     *  (+infinity = none pending). A replica mid-reload is down:
     *  up[] stays false until the window elapses, so it takes no
     *  launches and routing skips it. */
    std::vector<double> reload_ready;
    FaultInjector injector;
    FleetResult result;

    /** Retry buffer: a failover waiting out its backoff, a drain
     *  hand-off, or an arrival parked because no replica was
     *  eligible, each with its progress. Keyed by (ready instant,
     *  id): map order IS dispatch order, which keeps redispatch
     *  deterministic. */
    std::map<std::pair<double, int64_t>, QueuedRequest> pending;

    /** Second index over the buffer, kept in lockstep by
     *  parkPending / erasePending: (deadline, id) -> ready instant
     *  for every entry with a deadline. Its order gates the expiry
     *  sweep and the deadline wake-up; its value finds the entry
     *  in `pending` — O(log n) each. */
    std::map<std::pair<double, int64_t>, double> pending_deadlines;

    /** Decode runs (fleet.h): per replica, the steps planned after
     *  the in-flight one, whose completion instants get no round,
     *  and the end of the run's last step (the replica's wake-up
     *  while busy); and the replicas phase 6 launched this round
     *  (scratch). */
    std::vector<int64_t> run_left;
    std::vector<double> run_end;
    std::vector<int> launched;

    double now = 0.0;

    FleetRun(const FleetOptions &options_in,
             StepCostModel &cost_in,
             StepCostModel *degraded_cost_in,
             ArrivalCursor &arrivals_in)
        : options(options_in), cost(cost_in),
          degraded_cost(degraded_cost_in), arrivals(arrivals_in),
          n(options_in.num_replicas),
          injector(options_in.faults),
          run_left(static_cast<size_t>(options_in.num_replicas), 0),
          run_end(static_cast<size_t>(options_in.num_replicas), inf)
    {
        launched.reserve(static_cast<size_t>(n));
        engines.reserve(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i)
            engines.emplace_back(options.replica, cost, i);
        up.assign(static_cast<size_t>(n), true);
        up_since.assign(static_cast<size_t>(n), 0.0);
        reload_ready.assign(static_cast<size_t>(n), inf);
        result.metrics.replica_up_ms.assign(
            static_cast<size_t>(n), 0.0);
    }

    /** Take @p idx out of service for @p window ms of weight
     *  re-streaming; it rejoins via completeReloads(). Counted
     *  here so both call sites (recover, swap) stay in lockstep. */
    void startReload(size_t idx, double window)
    {
        FleetMetrics &fm = result.metrics;
        reload_ready[idx] = now + window;
        ++fm.reloads;
        fm.reload_ms_total += window;
    }

    /** Bring every replica whose reload window has elapsed back
     *  into service (id order). Runs at the top of the faults
     *  phase — a reload completing exactly at a fault instant
     *  precedes that instant's events — and again after them, so
     *  a zero-window reload rejoins within its own round. */
    void completeReloads()
    {
        for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
            if (up[i] || reload_ready[i] > now)
                continue;
            up[i] = true;
            up_since[i] = now;
            reload_ready[i] = inf;
        }
    }

    /** The routing rule (fleet.h): the eligible replica with the
     *  least kvLoadTokens(), ties to the shallower queue, then the
     *  lower id; -1 when no replica is up and not draining. */
    int pickReplica()
    {
        int best = -1;
        int64_t best_load = 0, best_depth = 0;
        for (int i = 0; i < n; ++i) {
            const ReplicaEngine &eng = engines[static_cast<size_t>(i)];
            if (!up[static_cast<size_t>(i)] || eng.draining())
                continue;
            int64_t load = eng.kvLoadTokens();
            int64_t depth = eng.queueDepth();
            if (best < 0 || load < best_load ||
                (load == best_load && depth < best_depth)) {
                best = i;
                best_load = load;
                best_depth = depth;
            }
        }
        return best;
    }

    double backoffMs(int64_t attempts) const
    {
        double b = options.retry_backoff_ms;
        for (int64_t k = 1; k < attempts; ++k)
            b *= kRetryBackoffFactor;
        return b;
    }

    void rejectFleet(const Request &r, RejectReason reason)
    {
        result.metrics.countRejection(reason);
        result.rejected.push_back(
            {r.id, r.arrival_ms, reason, now});
    }

    /** Record @p q lost, with the failover attempts it consumed. */
    void loseRequest(const QueuedRequest &q)
    {
        ++result.metrics.requests_lost;
        result.lost.push_back({q.req.id, now, q.state.failovers});
    }

    /** Insert into the retry buffer and maintain its index. */
    void parkPending(double ready, QueuedRequest q)
    {
        const Request &r = q.req;
        if (r.deadline_ms > 0.0)
            pending_deadlines[{r.deadline_ms, r.id}] = ready;
        pending[{ready, r.id}] = std::move(q);
    }

    using PendingIt = std::map<std::pair<double, int64_t>,
                               QueuedRequest>::iterator;

    PendingIt erasePending(PendingIt it)
    {
        const Request &r = it->second.req;
        if (r.deadline_ms > 0.0)
            pending_deadlines.erase({r.deadline_ms, r.id});
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
        if (r.deadline_ms > 0.0 && r.deadline_ms <= now) {
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
        cutRun(static_cast<size_t>(target));
    }

    /** Route every due retry-buffer entry to an eligible replica.
     *  Readmission is front-insertion, so dispatching in *reverse*
     *  (ready, id) order leaves earlier requests nearer the head
     *  on a shared target. readmit() changes neither up[] nor
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
        for (auto it = due.rbegin(); it != due.rend(); ++it) {
            auto target = static_cast<size_t>(pickReplica());
            engines[target].readmit(*it);
            cutRun(target);
        }
    }

    void applyFault(const FaultEvent &e)
    {
        FleetMetrics &fm = result.metrics;
        auto idx = static_cast<size_t>(e.replica);
        ReplicaEngine &eng = engines[idx];
        cutRun(idx);
        switch (e.kind) {
        case FaultKind::Crash: {
            if (!up[idx])
                break; // already down: tolerant no-op
            up[idx] = false;
            fm.replica_up_ms[idx] += now - up_since[idx];
            ++fm.crashes;
            if (eng.busy())
                ++fm.aborted_steps;
            // A crash wipes transient state; standing slow /
            // degrade / drain windows re-apply only via their own
            // events landing while the replica is down.
            eng.setDraining(false);
            eng.setSlowFactor(1.0);
            eng.setCost(cost);
            for (auto &ev : eng.crash()) {
                ev.state.failovers += 1;
                ++fm.failovers;
                if (ev.state.failovers > options.max_retries) {
                    loseRequest(ev);
                } else {
                    double ready =
                        now + backoffMs(ev.state.failovers);
                    parkPending(ready, std::move(ev));
                }
            }
            break;
        }
        case FaultKind::Recover:
            // Tolerant no-op when up — or mid-reload: a second
            // Recover must not restart (or shortcut) the window.
            if (up[idx] || reload_ready[idx] < inf)
                break;
            ++fm.recoveries;
            if (options.recovery_reload_ms > 0.0) {
                // The replica spends the reload window
                // re-streaming weights from storage before it is
                // eligible again; completeReloads() rejoins it.
                startReload(idx, options.recovery_reload_ms);
            } else {
                up[idx] = true;
                up_since[idx] = now;
            }
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
            if (up[idx] && !eng.draining()) {
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
        case FaultKind::Swap: {
            if (!up[idx])
                break; // down or mid-reload: tolerant no-op
            up[idx] = false;
            fm.replica_up_ms[idx] += now - up_since[idx];
            ++fm.swaps;
            if (eng.busy())
                ++fm.aborted_steps;
            eng.setDraining(false);
            // Graceful evacuation: operator-initiated, so no
            // retry attempt is consumed and no backoff applies —
            // but KV dies with the old weights, so resumed
            // requests recompute their prefix elsewhere.
            for (auto &ev : eng.crash())
                parkPending(now, std::move(ev));
            startReload(idx, options.recovery_reload_ms);
            break;
        }
        }
    }

    void faultsPhase()
    {
        // Reloads elapsing exactly at a fault instant complete
        // before that instant's events; the trailing pass lets a
        // zero-window reload (instant swap) rejoin immediately.
        completeReloads();
        for (const auto &e : injector.drainDue(now))
            applyFault(e);
        completeReloads();
    }

    void arrivalsPhase()
    {
        while (!arrivals.exhausted() &&
               arrivals.nextArrivalMs() <= now)
            dispatchArrival(arrivals.take());
    }

    /** Committed steps across the fleet, and whether any work
     *  remains anywhere. O(num_replicas). */
    std::pair<int64_t, bool> progress()
    {
        int64_t total_steps = 0;
        bool any_busy = false, any_work = false;
        for (auto &eng : engines) {
            total_steps += eng.result().metrics.steps;
            any_busy = any_busy || eng.busy();
            any_work = any_work || eng.hasWork();
        }
        bool work_left = any_busy || any_work ||
                         !pending.empty() ||
                         !arrivals.exhausted();
        return {total_steps, work_left};
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
        for (int i = 0; i < n; ++i) {
            auto idx = static_cast<size_t>(i);
            if (up[idx])
                fm.replica_up_ms[idx] += now - up_since[idx];
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

    /** Set @p idx's wake-up to the end of its in-flight step's last
     *  planned repeat. */
    void setRunEnd(size_t idx)
    {
        run_end[idx] = engines[idx].repeatEndMs(run_left[idx]);
    }

    /** End @p idx's run after its in-flight step, so the loop wakes
     *  at that step's end again. */
    void cutRun(size_t idx)
    {
        if (run_left[idx] == 0)
            return;
        run_left[idx] = 0;
        setRunEnd(idx);
    }

    /** Phase 1 for one replica: complete every step that ended by
     *  now. Steps that ended before now belong to a run and had no
     *  round at their ends — nothing else happened there — so the
     *  engine accounts for them and relaunches the run's next step
     *  in one call (ReplicaEngine::advanceRepeats). A step ending at
     *  now leaves the replica idle for phase 6, so a crash at this
     *  instant still finds it idle. */
    void completeDue(size_t idx)
    {
        ReplicaEngine &eng = engines[idx];
        if (!eng.busy())
            return;
        run_left[idx] -= eng.advanceRepeats(run_left[idx], now);
        if (eng.stepEndMs() > now)
            return;
        ST_ASSERT(eng.stepEndMs() == now,
                  "a step outside a decode run ended unseen");
        eng.completeStep();
        run_left[idx] = 0;
    }

    /** Phase 6, second half: plan a run for every replica launched
     *  this round and set its wake-up. A run holds only while
     *  completed, in-flight and planned steps across the fleet stay
     *  below max_steps (the step-limit check must not fall on a
     *  skipped instant) and no queue holds a deadline (its sweep
     *  must not move to a later instant); when either fails, every
     *  standing run is cut. */
    void stageRuns()
    {
        int64_t steps = 0;
        bool deadline_queued = false;
        for (size_t i = 0; i < engines.size(); ++i) {
            ReplicaEngine &eng = engines[i];
            steps += eng.result().metrics.steps +
                     (eng.busy() ? 1 : 0) + run_left[i];
            deadline_queued = deadline_queued || eng.queuedDeadlines();
        }
        int64_t budget = options.replica.max_steps - 1 - steps;
        if (deadline_queued || budget < 0) {
            for (size_t i = 0; i < engines.size(); ++i) {
                budget += run_left[i];
                cutRun(i);
            }
        }
        for (int i : launched) {
            auto idx = static_cast<size_t>(i);
            int64_t repeats =
                deadline_queued
                    ? 0
                    : std::min(engines[idx].repeatSteps(),
                               std::max<int64_t>(budget, 0));
            budget -= repeats;
            run_left[idx] = repeats;
            setRunEnd(idx);
        }
        launched.clear();
    }

    // ---- Next instant (fleet.h) --------------------------------

    /** The earliest instant after now at which anything can happen:
     *  the next fault or arrival, a busy replica's run end, a reload
     *  window's end, or a parked request becoming ready or expiring
     *  — O(num_replicas + log pending). Parked entries ready at or
     *  before now wait on one of the others (or expire, or strand).
     *  +infinity when nothing remains. */
    double nextInstant()
    {
        double next_t = injector.nextAtMs();
        if (!arrivals.exhausted())
            next_t = std::min(next_t, arrivals.nextArrivalMs());
        for (size_t i = 0; i < engines.size(); ++i) {
            if (engines[i].busy())
                next_t = std::min(next_t, run_end[i]);
            if (reload_ready[i] > now)
                next_t = std::min(next_t, reload_ready[i]);
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
            for (size_t i = 0; i < engines.size(); ++i)
                completeDue(i);

            // 2. Fault events, in plan firing order — before
            // arrivals, so an arrival at a crash instant sees the
            // replica down.
            faultsPhase();

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
            for (int i = 0; i < n; ++i) {
                auto idx = static_cast<size_t>(i);
                auto &eng = engines[idx];
                if (!up[idx] || eng.busy())
                    continue;
                eng.launchStep(now);
                ST_ASSERT(eng.busy() || !eng.hasWork() ||
                              eng.draining(),
                          "idle up replica refused its work");
                if (eng.busy())
                    launched.push_back(i);
            }
            stageRuns();

            auto [total_steps, work_left] = progress();
            if (total_steps >= options.replica.max_steps &&
                work_left) {
                result.hit_step_limit = true;
                break;
            }
            if (!work_left)
                break; // served everything; residual faults moot

            double next_t = nextInstant();
            if (next_t == inf) {
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
    ST_CHECK(std::isfinite(options_.retry_backoff_ms) &&
                 options_.retry_backoff_ms >= 0.0,
             "retry backoff domain");
    ST_CHECK(std::isfinite(options_.recovery_reload_ms) &&
                 options_.recovery_reload_ms >= 0.0,
             "recovery reload domain");
    validateSchedulerOptions(options_.replica);
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
