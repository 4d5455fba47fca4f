/**
 * @file
 * Fault-tolerant replicated serving: N ReplicaEngine instances
 * (each with its own paged KV pool and resident batch) driven on
 * one simulated clock by a FaultInjector. This is the one serving
 * event loop: a single replica is a fleet with num_replicas = 1
 * and an empty fault plan, which never engages the retry or
 * reload machinery.
 *
 * **Routing.** One rule: an arrival or due retry goes to the
 * eligible replica (up and not draining) holding the least KV
 * load — active pages × page_tokens plus the queued requests'
 * prefill demand (ReplicaEngine::kvLoadTokens) — ties broken by
 * the shallower queue, then the lower id. It is a deterministic
 * function of replica state, so fleet runs replay bit-identically.
 *
 * **Event loop.** The fleet advances simulated time to the next
 * event and processes everything due in a fixed category order —
 * the ordering at equal instants is part of the determinism
 * contract (bit-identical reruns, pinned by the fault property
 * suite):
 *
 *   1. step completions, in replica-id order (a step that ends
 *      exactly when its replica crashes *completes*: the tokens
 *      were produced before the failure);
 *   2. fault events, in plan firing order;
 *   3. arrivals, in (arrival, id) order, routed least-loaded;
 *   4. deadline expiry sweeps (per-replica queues in id order,
 *      then the fleet's own retry buffer);
 *   5. due retries, oldest (ready, id) first;
 *   6. step launches on every idle up replica, in id order.
 *
 * **Next instant.** After a round the loop jumps to the earliest
 * instant at which anything can happen: the next fault or arrival,
 * a busy replica's run end (its in-flight step's end, or the end of
 * the last step of a decode run, below), a reload window's end, or
 * the first retry-buffer entry that becomes ready or expires after
 * now. The retry buffer has two indexes: the buffer itself, a map
 * from (ready, id) to the entry, and a map from (deadline, id) to
 * the ready instant for entries with a deadline (the expiry sweep
 * finds an entry through it). So one rule costs
 * O(num_replicas + log pending) per round. Other
 * per-round work that scans the *fleet* (completions due, launches,
 * step totals) stays linear in num_replicas — a small fixed
 * constant, not trace length — and runs serially in replica-id
 * order (a stepping thread pool measured slower than serial at
 * every thread count; see the README). Queued-request deadline
 * expiry is lazy: a queued request expires at the next round at or
 * after its deadline (stamped at that round's instant), and its
 * deadline alone never wakes the loop — only retry-buffer deadlines
 * do.
 *
 * **Decode runs.** A replica usually repeats its last step: the
 * same decoding batch, one token further on. When phase 6 launches a
 * step, ReplicaEngine::repeatSteps() says how many steps after it
 * are certain to repeat it (same shape groups, no page growth, an
 * empty queue, the cold-start stream over). The fleet plans that
 * many as a run and wakes for the replica only at the end of the
 * run's last step (ReplicaEngine::repeatEndMs, the same additions
 * the step-by-step loop makes). Phase 1 catches a replica up at any
 * round in one engine call (ReplicaEngine::advanceRepeats): the
 * run's steps that ended before now — instants with no round — are
 * completed and relaunched as pure accounting, with no oracle call,
 * page growth or admission, since the run guarantees each repeat
 * launches the same groups at the same cost. A step ending exactly
 * now completes and leaves the replica idle for phase 6, as without
 * runs. Two fleet-wide caps bound a run: completed, in-flight and
 * planned steps stay below max_steps (so the step limit never falls
 * on a skipped instant), and no run is planned while any replica's
 * queue holds a request with a deadline (its sweep runs at the
 * next round at or after the deadline, which a skipped instant
 * would move). A run is cut after its in-flight step — the
 * replica's wake-up moves back to that step's end — when anything
 * changes the replica's next launch: an offer or readmit to it, any
 * fault naming it, a deadline-carrying request queued anywhere, or
 * the step cap failing after other replicas' launches. The
 * differential suite holds every result to a reference fleet that
 * wakes at every step end (tests/oracles/serving/reference_fleet).
 *
 * **Failover.** A crash evacuates the replica's resident and
 * queued requests as QueuedRequest entries, each with its
 * ResumeState (tokens already emitted are kept — only KV is lost;
 * a queued request's state comes from its own queue entry). Each
 * evacuated request consumes one retry attempt (counted in
 * ResumeState::failovers) and re-enters the fleet's retry buffer
 * (the same entry type, under the two indexes above) with
 * exponential backoff in simulated time
 * (retry_backoff_ms × 2^(attempt-1), the frontend's re-dispatch
 * cost); a request whose attempts exceed max_retries is recorded
 * lost. At its ready instant it is
 * routed to a surviving replica, where it readmits through the
 * preemption-readmission path: one recompute prefill over
 * input_len + generated context, then decoding continues — a
 * completed request emits exactly output_len tokens no matter how
 * many replicas it visited. While no replica is eligible the
 * buffer simply holds (graceful degradation to zero capacity);
 * requests still there when no future event can revive a replica
 * are lost, and queued deadlines keep expiring throughout.
 *
 * **Drain** hands the replica's queue back to the fleet for
 * immediate re-routing — no attempt is consumed and no backoff
 * applies, because no work was lost. **Slowdown** multiplies the
 * replica's step cost; **degradation** swaps its cost oracle for
 * the degraded model the fleet was constructed with (e.g. one
 * compiled against inflated inter-die link latency). **Recovery**
 * returns a crashed replica to service with fresh, empty state.
 */

#ifndef STREAMTENSOR_SERVING_FLEET_H
#define STREAMTENSOR_SERVING_FLEET_H

#include <cstdint>
#include <utility>
#include <vector>

#include "serving/fault.h"
#include "serving/replica.h"
#include "serving/scheduler.h"

namespace streamtensor {
namespace serving {

class ArrivalCursor;
class TraceGenerator;

/** Decode-run planning selector. Heap (decode runs, in the file
 *  header) is the only value. */
enum class FleetEventCore
{
    Heap,
};

/** Routing policy selector. LeastKvLoad (the routing rule in the
 *  file header) is the only policy. */
enum class LbPolicy
{
    LeastKvLoad,
};

/** Fleet knobs. */
struct FleetOptions
{
    int num_replicas = 2;

    /** Per-replica scheduler configuration, shared by every
     *  replica (homogeneous fleet). replica.max_steps bounds the
     *  *total* steps across the fleet. */
    SchedulerOptions replica;

    /** Has one value; kept only because e2e_stack sets it. */
    LbPolicy balancer = LbPolicy::LeastKvLoad;

    /** Failover attempts a request may consume before it is
     *  recorded lost (first dispatch is free; every crash
     *  evacuation costs one). */
    int64_t max_retries = 3;

    /** Base re-dispatch delay after a crash evacuation; it
     *  doubles with every further consumed attempt. */
    double retry_backoff_ms = 5.0;

    /** The fault schedule to execute. */
    FaultPlan faults;

    /** Simulated weight-reload window charged to crash recovery:
     *  a Recover event starts the replica re-streaming its
     *  weights from storage, and it takes work again only this
     *  many ms later (derive it from a storage tier via
     *  WeightStreamPlan::streamMs(), or pin any constant). 0
     *  keeps the pre-streaming instant recovery, bit-identically.
     *  Reload time counts as down time (uptimeFraction) and is
     *  tallied in FleetMetrics::reload_ms_total. FaultKind::Swap
     *  (hot model swap) charges the same window. */
    double recovery_reload_ms = 0.0;

    /** Has one value; kept only because e2e_stack sets it. */
    FleetEventCore event_core = FleetEventCore::Heap;
};

/** A request that exhausted its retry budget (or was stranded
 *  with no revivable replica). */
struct LostRequest
{
    int64_t id = 0;

    /** Instant the loss was decided. */
    double at_ms = 0.0;

    /** Failover attempts consumed when it was given up. */
    int64_t attempts = 0;
};

/** Fleet-wide aggregates: the replicas' ServingMetrics merged in
 *  replica-id order (ServingMetrics::merge), with the records in
 *  (finish, id) order, so "degraded p99" is a single-fleet
 *  percentile; plus the counters only the fleet keeps. */
struct FleetMetrics : ServingMetrics
{
    /** Requests that exhausted max_retries or were stranded. */
    int64_t requests_lost = 0;

    /** Crash evacuations of individual requests (a request that
     *  survives two crashes counts twice). */
    int64_t failovers = 0;

    int64_t crashes = 0;
    int64_t recoveries = 0;
    int64_t drains = 0;
    int64_t degrades = 0;

    /** Hot model swaps applied (FaultKind::Swap on an up
     *  replica). */
    int64_t swaps = 0;

    /** Weight-reload windows charged (recoveries with a nonzero
     *  reload window, plus every swap), and their summed
     *  simulated duration. */
    int64_t reloads = 0;
    double reload_ms_total = 0.0;

    /** SlowStart windows applied (every SlowStart event on any
     *  replica, up or down). */
    int64_t slowdowns = 0;

    /** In-flight steps abandoned by crashes: simulated work that
     *  was paid for and produced nothing. */
    int64_t aborted_steps = 0;

    /** Simulated up-time per replica (id-indexed). */
    std::vector<double> replica_up_ms;

    /** Completed over every request the fleet *accepted and then
     *  failed*: completed / (completed + lost + expired). Load
     *  shedding (TooLong / QueueFull / Drained) is a refusal, not
     *  an availability failure, and is excluded. 1.0 for an empty
     *  window. */
    double availability() const;

    /** Σ replica up-time over num_replicas × makespan (1.0 when
     *  makespan is zero). */
    double uptimeFraction() const;
};

/** Outcome of one fleet run. */
struct FleetResult
{
    FleetMetrics metrics;

    /** Per-replica finalized results, id-indexed (step records,
     *  per-replica metrics and rejections; makespan stamped
     *  fleet-wide). */
    std::vector<ServingResult> replicas;

    /** All rejections — fleet-level and per-replica — merged in
     *  (at_ms, id) order. */
    std::vector<RejectedRequest> rejected;

    std::vector<LostRequest> lost; ///< in decision order

    /** replica.max_steps total steps were executed with work
     *  still pending. */
    bool hit_step_limit = false;

    /** Round-loop iterations: instants the loop processed. Decode
     *  runs (above) skip the instants where only a repeated decode
     *  step completes, so this is fewer than the instants a loop
     *  waking at every step end processes for the same result. */
    int64_t rounds = 0;
};

class FleetScheduler
{
  public:
    /** @p cost is the nominal step-cost oracle shared by every
     *  replica; @p degraded_cost, when non-null, is the oracle
     *  used while a replica is under DegradeStart (both must
     *  outlive the scheduler). A shared stateful ExecutorCostModel
     *  is fine: replica steps are costed one at a time on one
     *  simulated clock, never concurrently. */
    FleetScheduler(FleetOptions options, StepCostModel &cost,
                   StepCostModel *degraded_cost = nullptr);

    const FleetOptions &options() const { return options_; }

    /** Serve @p trace to completion (or step limit) under the
     *  fault plan. Deterministic: identical inputs give
     *  bit-identical results. */
    FleetResult run(std::vector<Request> trace);

    /** Serve a lazy trace without materializing it — bit-identical
     *  to run(vector-of-the-same-generator) but O(1) trace memory
     *  (the million-request sweep entry point). The generator's
     *  stream is sorted and valid by construction (trace.h). */
    FleetResult run(TraceGenerator &trace);

  private:
    FleetResult runCursor(ArrivalCursor &arrivals);

    FleetOptions options_;
    StepCostModel &cost_;
    StepCostModel *degraded_cost_;
};

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_FLEET_H
