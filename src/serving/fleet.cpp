#include "serving/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "serving/trace.h"
#include "support/error.h"

namespace streamtensor {
namespace serving {

namespace {

/** One request waiting in the fleet's retry buffer: a failover
 *  waiting out its backoff, a drain hand-off, or an arrival parked
 *  because no replica was eligible. */
struct PendingRequest
{
    Request req;
    ResumeState state;

    /** Failover attempts consumed so far (== state.failovers). */
    int64_t attempts = 0;
};

/** Typed-event categories of the heap core, numbered in the
 *  fleet's documented equal-instant processing order (fleet.h):
 *  completions, then faults, then arrivals, then retry-buffer
 *  deadlines, then due retries. The comparator encodes this order
 *  so heap pops at one instant match the phase order — though
 *  every phase re-reads authoritative state, so the order is a
 *  documented invariant rather than a hidden load-bearing one. */
enum EventCat : int
{
    EvCompletion = 0,
    EvReload = 1, ///< weight-reload window elapsed
    EvFault = 2,
    EvArrival = 3,
    EvDeadline = 4,
    EvRetry = 5,
};

/** One wake-up instant for the heap core. Events are invalidated
 *  lazily (never removed in place): a completion carries the
 *  launch generation it belongs to, retry/deadline events are
 *  checked against the live retry buffer, and anything at or
 *  before the current round was already handled by that round's
 *  phases. */
struct Event
{
    double t = 0.0;
    int cat = EvCompletion;
    int64_t a = 0; ///< replica id (completion) or request id
    int64_t b = 0; ///< launch generation (completion only)
};

/** Min-heap order: (t, cat, a, b) ascending — time first, then the
 *  documented category order, then ids for full determinism. */
struct EventAfter
{
    bool operator()(const Event &x, const Event &y) const
    {
        return std::tie(x.t, x.cat, x.a, x.b) >
               std::tie(y.t, y.cat, y.a, y.b);
    }
};

/** One fleet run: the state, the six round phases and the one
 *  round loop shared by both event cores. The cores differ only in
 *  next-instant selection (nextEventTime() off the typed-event heap
 *  vs scanNextTime()), the retry-buffer deadline sweep
 *  (expirePending()), and whether stage() feeds the heap. */
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
     *  launches and the balancer skips it. */
    std::vector<double> reload_ready;
    std::unique_ptr<LoadBalancer> lb;
    FaultInjector injector;
    FleetResult result;

    /** Retry buffer keyed by (ready instant, id): map order IS
     *  dispatch order, which keeps redispatch deterministic. */
    std::map<std::pair<double, int64_t>, PendingRequest> pending;

    /** Indexes over the buffer kept in lockstep by parkPending /
     *  erasePending: ready instant by request id (to find an
     *  entry from its deadline), and the (deadline, id) set whose
     *  minimum gates the heap core's expiry sweep — O(1) to skip,
     *  O(log n) per actual expiry. */
    std::map<int64_t, double> pending_ready;
    std::set<std::pair<double, int64_t>> pending_deadlines;

    /** Heap-core state. launch generations version each replica's
     *  in-flight step so a completion event orphaned by a crash
     *  is recognized as stale. */
    std::priority_queue<Event, std::vector<Event>, EventAfter>
        events;
    std::vector<int64_t> launch_gen;

    double now = 0.0;

    FleetRun(const FleetOptions &options_in,
             StepCostModel &cost_in,
             StepCostModel *degraded_cost_in,
             ArrivalCursor &arrivals_in)
        : options(options_in), cost(cost_in),
          degraded_cost(degraded_cost_in), arrivals(arrivals_in),
          n(options_in.num_replicas),
          lb(makeLoadBalancer(options_in.balancer)),
          injector(options_in.faults),
          launch_gen(static_cast<size_t>(options_in.num_replicas),
                     0)
    {
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
     *  and staged for the heap core here so both call sites
     *  (recover, swap) stay in lockstep. */
    void startReload(size_t idx, double window)
    {
        FleetMetrics &fm = result.metrics;
        reload_ready[idx] = now + window;
        ++fm.reloads;
        fm.reload_ms_total += window;
        stage({reload_ready[idx], EvReload,
               static_cast<int64_t>(idx), 0});
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

    std::vector<ReplicaStatus> statuses()
    {
        std::vector<ReplicaStatus> s(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) {
            auto &eng = engines[static_cast<size_t>(i)];
            s[static_cast<size_t>(i)] = {
                i,
                up[static_cast<size_t>(i)],
                eng.draining(),
                eng.queueDepth(),
                eng.activeCount(),
                eng.kvLoadTokens()};
        }
        return s;
    }

    double backoffMs(int64_t attempts) const
    {
        double b = options.retry_backoff_ms;
        for (int64_t k = 1; k < attempts; ++k)
            b *= options.retry_backoff_factor;
        return b;
    }

    void rejectFleet(const Request &r, RejectReason reason)
    {
        FleetMetrics &fm = result.metrics;
        switch (reason) {
        case RejectReason::QueueFull:
            ++fm.rejected_queue_full;
            break;
        case RejectReason::TooLong:
            ++fm.rejected_too_long;
            break;
        case RejectReason::DeadlineExpired:
            ++fm.expired_deadline;
            break;
        case RejectReason::Drained:
            ++fm.rejected_drained;
            break;
        }
        result.rejected.push_back(
            {r.id, r.arrival_ms, reason, now});
    }

    void loseRequest(const Request &r, int64_t attempts)
    {
        ++result.metrics.requests_lost;
        result.lost.push_back({r.id, now, attempts});
    }

    /** Insert into the retry buffer, maintain its indexes, and
     *  stage the wake-ups the legacy scan would have derived: a
     *  retry event when the entry becomes ready in the future, a
     *  deadline event when it could expire in the future. Entries
     *  ready at or before now need no event — they are retried by
     *  every round and never wake the loop on their own (exactly
     *  the legacy next_t rule). */
    void parkPending(double ready, PendingRequest pr)
    {
        int64_t id = pr.req.id;
        double deadline = pr.req.deadline_ms;
        pending[{ready, id}] = std::move(pr);
        pending_ready[id] = ready;
        if (deadline > 0.0)
            pending_deadlines.insert({deadline, id});
        if (ready > now)
            stage({ready, EvRetry, id, 0});
        if (deadline > now)
            stage({deadline, EvDeadline, id, 0});
    }

    using PendingIt = std::map<std::pair<double, int64_t>,
                               PendingRequest>::iterator;

    PendingIt erasePending(PendingIt it)
    {
        const Request &r = it->second.req;
        pending_ready.erase(r.id);
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
        int target = lb->pick(r, statuses());
        if (target < 0) {
            // Total outage: park with no attempt consumed; the
            // request dispatches the instant a replica recovers.
            parkPending(now, {r, ResumeState{}, 0});
            return;
        }
        engines[static_cast<size_t>(target)].offer(r, now);
    }

    /** Route every due retry-buffer entry to an eligible replica
     *  (back into the buffer, same key, when there is none).
     *  Readmission is front-insertion, so dispatching in *reverse*
     *  (ready, id) order leaves earlier requests nearer the head
     *  on a shared target. */
    void redispatchDue()
    {
        std::vector<std::pair<std::pair<double, int64_t>,
                              PendingRequest>>
            due;
        for (auto it = pending.begin();
             it != pending.end() && it->first.first <= now;) {
            due.emplace_back(it->first, std::move(it->second));
            it = erasePending(it);
        }
        for (auto it = due.rbegin(); it != due.rend(); ++it) {
            int target = lb->pick(it->second.req, statuses());
            if (target < 0)
                parkPending(it->first.first,
                            std::move(it->second));
            else
                engines[static_cast<size_t>(target)].readmit(
                    it->second.req, it->second.state);
        }
    }

    void applyFault(const FaultEvent &e)
    {
        FleetMetrics &fm = result.metrics;
        auto idx = static_cast<size_t>(e.replica);
        ReplicaEngine &eng = engines[idx];
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
                    loseRequest(ev.req, ev.state.failovers);
                } else {
                    double ready =
                        now + backoffMs(ev.state.failovers);
                    parkPending(ready, {ev.req, ev.state,
                                        ev.state.failovers});
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
                    parkPending(now, {ev.req, ev.state,
                                      ev.state.failovers});
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
                parkPending(now, {ev.req, ev.state,
                                  ev.state.failovers});
            startReload(idx, options.swap_reload_ms >= 0.0
                                 ? options.swap_reload_ms
                                 : options.recovery_reload_ms);
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
        for (const auto &[key, p] : pending)
            loseRequest(p.req, p.attempts);
        pending.clear();
        pending_ready.clear();
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
            const ServingMetrics &m = eng.result().metrics;
            fm.requests.insert(fm.requests.end(),
                               m.requests.begin(),
                               m.requests.end());
            fm.completed += m.completed;
            fm.records_complete =
                fm.records_complete && m.records_complete;
            // Replica-id merge order keeps the fleet sketch
            // bit-identical across runs (and event cores).
            fm.latency_sketch.merge(m.latency_sketch);
            fm.rejected_queue_full += m.rejected_queue_full;
            fm.rejected_too_long += m.rejected_too_long;
            fm.expired_deadline += m.expired_deadline;
            fm.rejected_drained += m.rejected_drained;
            fm.deadline_misses += m.deadline_misses;
            fm.preemptions += m.preemptions;
            fm.total_output_tokens += m.total_output_tokens;
            fm.weight_stall_ms += m.weight_stall_ms;
            fm.steps += m.steps;
            result.rejected.insert(result.rejected.end(),
                                   eng.result().rejected.begin(),
                                   eng.result().rejected.end());
            result.replicas.push_back(std::move(eng.result()));
        }
        std::stable_sort(fm.requests.begin(), fm.requests.end(),
                         [](const RequestMetrics &a,
                            const RequestMetrics &b) {
                             return a.finish_ms < b.finish_ms ||
                                    (a.finish_ms == b.finish_ms &&
                                     a.id < b.id);
                         });
        std::stable_sort(result.rejected.begin(),
                         result.rejected.end(),
                         [](const RejectedRequest &a,
                            const RejectedRequest &b) {
                             return a.at_ms < b.at_ms ||
                                    (a.at_ms == b.at_ms &&
                                     a.id < b.id);
                         });
        ++fm.record_revision;
        fm.makespan_ms = now;
    }

    /** Stage a future wake-up for the heap core. A no-op under
     *  LegacyScan, which re-derives every instant by scanning and
     *  never pops the heap — staging there would only grow it. */
    void stage(Event e)
    {
        if (options.event_core == FleetEventCore::Heap)
            events.push(e);
    }

    // ---- Next-instant selection --------------------------------

    /** LegacyScan: the earliest step end, fault, reload, arrival,
     *  future retry, or parked-request deadline, found by scanning
     *  every engine and the whole retry buffer — O(n) per round,
     *  kept as the differential oracle. Parked entries with
     *  ready <= now wait on one of the others (or expire, or
     *  strand). */
    double scanNextTime()
    {
        double next_t = injector.nextAtMs();
        for (auto &eng : engines)
            if (eng.busy())
                next_t = std::min(next_t, eng.stepEndMs());
        for (int i = 0; i < n; ++i)
            if (reload_ready[static_cast<size_t>(i)] > now)
                next_t = std::min(
                    next_t, reload_ready[static_cast<size_t>(i)]);
        if (!arrivals.exhausted())
            next_t = std::min(next_t, arrivals.nextArrivalMs());
        for (const auto &[key, p] : pending) {
            if (key.first > now)
                next_t = std::min(next_t, key.first);
            if (p.req.deadline_ms > now)
                next_t = std::min(next_t, p.req.deadline_ms);
        }
        return next_t;
    }

    /** Heap: the earliest valid future wake-up, discarding
     *  consumed (t <= now) and stale entries as they surface.
     *  +infinity when nothing valid remains (the stranding
     *  condition). */
    double nextEventTime()
    {
        while (!events.empty()) {
            const Event &e = events.top();
            if (e.t <= now) {
                // A round at `now` already processed everything
                // due at or before it.
                events.pop();
                continue;
            }
            bool valid = true;
            switch (e.cat) {
            case EvCompletion: {
                auto idx = static_cast<size_t>(e.a);
                valid = engines[idx].busy() &&
                        launch_gen[idx] == e.b;
                break;
            }
            case EvReload: {
                auto idx = static_cast<size_t>(e.a);
                valid = !up[idx] && reload_ready[idx] == e.t;
                break;
            }
            case EvFault:
            case EvArrival:
                // Fault times are immutable; a stale arrival
                // event is impossible while t > now (arrivals are
                // ingested the round their event fires).
                break;
            case EvDeadline:
                valid = pending_deadlines.count({e.t, e.a}) > 0;
                break;
            case EvRetry:
                valid = pending.count({e.t, e.a}) > 0;
                break;
            }
            if (!valid) {
                events.pop();
                continue;
            }
            return e.t;
        }
        return inf;
    }

    /** Expire every retry-buffer entry whose deadline has passed.
     *  The heap core walks the (deadline, id) index — O(1) to skip,
     *  O(log n) per expiry; LegacyScan scans the whole buffer so it
     *  stays an independent reference. The rejection log sorts by
     *  (instant, id) at finalize, so the in-round order is free. */
    void expirePending()
    {
        if (options.event_core == FleetEventCore::LegacyScan) {
            for (auto it = pending.begin(); it != pending.end();) {
                const Request &r = it->second.req;
                if (r.deadline_ms > 0.0 && r.deadline_ms <= now) {
                    rejectFleet(r, RejectReason::DeadlineExpired);
                    it = erasePending(it);
                } else {
                    ++it;
                }
            }
            return;
        }
        while (!pending_deadlines.empty() &&
               pending_deadlines.begin()->first <= now) {
            auto [deadline, id] = *pending_deadlines.begin();
            auto it = pending.find({pending_ready.at(id), id});
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
        for (const auto &e : options.faults.events)
            stage({e.at_ms, EvFault, 0, 0});
        double arrival_event_t = -1.0;

        while (true) {
            // 1. Step completions (id order). A step ending
            // exactly at a crash instant completes first: its
            // tokens were produced before the failure.
            for (auto &eng : engines)
                if (eng.busy() && eng.stepEndMs() <= now)
                    eng.completeStep();

            // 2. Fault events, in plan firing order — before
            // arrivals, so an arrival at a crash instant sees the
            // replica down.
            faultsPhase();

            // 3. Arrivals, in (arrival, id) order; then stage the
            // wake-up for the next one (deduplicated — rounds
            // between arrivals must not re-stage it).
            arrivalsPhase();
            if (!arrivals.exhausted() &&
                arrivals.nextArrivalMs() != arrival_event_t) {
                arrival_event_t = arrivals.nextArrivalMs();
                stage({arrival_event_t, EvArrival, 0, 0});
            }

            // 4. Deadline sweeps: replica queues (O(1) when
            // deadline-free, queue.h), then the retry buffer (a
            // parked request can expire mid-outage).
            for (auto &eng : engines)
                eng.expireDeadlines(now);
            expirePending();

            // 5. Due retries.
            redispatchDue();

            // 6. Launch a step on every idle up replica (id
            // order), staging its completion.
            for (int i = 0; i < n; ++i) {
                auto idx = static_cast<size_t>(i);
                auto &eng = engines[idx];
                if (!up[idx] || eng.busy())
                    continue;
                eng.launchStep(now);
                ST_ASSERT(eng.busy() || !eng.hasWork() ||
                              eng.draining(),
                          "idle up replica refused its work");
                if (eng.busy()) {
                    ++launch_gen[idx];
                    stage({eng.stepEndMs(), EvCompletion, i,
                           launch_gen[idx]});
                }
            }

            auto [total_steps, work_left] = progress();
            if (total_steps >= options.replica.max_steps &&
                work_left) {
                result.hit_step_limit = true;
                break;
            }
            if (!work_left)
                break; // served everything; residual faults moot

            double next_t =
                options.event_core == FleetEventCore::Heap
                    ? nextEventTime()
                    : scanNextTime();
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

double
FleetMetrics::servedRequestsPerSecond() const
{
    return makespan_ms > 0.0
               ? static_cast<double>(completed) / makespan_ms * 1e3
               : 0.0;
}

double
FleetMetrics::latencyPercentileMs(double p) const
{
    return latency_cache_.percentileMs(requests, record_revision,
                                       records_complete,
                                       latency_sketch, p);
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
    ST_CHECK(std::isfinite(options_.retry_backoff_factor) &&
                 options_.retry_backoff_factor >= 1.0,
             "retry backoff factor domain");
    ST_CHECK(std::isfinite(options_.recovery_reload_ms) &&
                 options_.recovery_reload_ms >= 0.0,
             "recovery reload domain");
    ST_CHECK(std::isfinite(options_.swap_reload_ms),
             "swap reload domain");
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
