/**
 * @file
 * Fault-tolerant replicated serving: N ReplicaEngine instances
 * (each with its own paged KV pool and resident batch) behind a
 * pluggable LoadBalancer, driven on one simulated clock by a
 * FaultInjector. The fleet-level counterpart of the single-replica
 * Scheduler.
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
 *   3. arrivals, in (arrival, id) order, routed by the balancer;
 *   4. deadline expiry sweeps (per-replica queues in id order,
 *      then the fleet's own retry buffer);
 *   5. due retries, oldest (ready, id) first;
 *   6. step launches on every idle up replica, in id order.
 *
 * **Event cores.** One round loop runs the six phases above under
 * either core (FleetOptions::event_core); the cores differ only in
 * how they pick the next instant and how they sweep the retry
 * buffer for expired deadlines, so their results are bit-identical —
 * pinned pairwise by the differential suite over the 100-seed fault
 * scenarios. LegacyScan re-derives the minimum by scanning every
 * engine, the whole retry buffer, and the arrival cursor each round,
 * and sweeps the whole buffer for deadlines: O(n) per round, fine at
 * hundreds of requests, the bottleneck at millions. Heap (the
 * default) keeps a min-heap of typed events — completion, fault,
 * arrival, retry-due, retry-deadline — ordered by (time, category,
 * replica/request id) with the category order above encoded in the
 * comparator, invalidates stale entries lazily (a completion event
 * carries its launch generation; retry and deadline events are
 * checked against the buffer), and expires parked requests off a
 * (deadline, id) index: O(log n) per event. Per-round work that
 * scans the *fleet* (completions due, launches, step totals) stays
 * linear in num_replicas — a small fixed constant, not trace
 * length — and runs serially in replica-id order (a stepping
 * thread pool measured slower than serial at every thread count;
 * see the README). Queued-request deadline expiry is lazy in both
 * cores: a queued request expires at the next round at or after its
 * deadline (stamped at that round's instant), and its deadline alone
 * never wakes the loop — only retry-buffer deadlines do.
 *
 * **Failover.** A crash evacuates the replica's resident and
 * queued requests with their ResumeState (tokens already emitted
 * are kept — only KV is lost). Each evacuated request consumes one
 * retry attempt and re-enters the fleet's retry buffer with
 * exponential backoff in simulated time
 * (retry_backoff_ms × retry_backoff_factor^(attempt-1), the
 * frontend's re-dispatch cost); a request whose attempts exceed
 * max_retries is recorded lost. At its ready instant the balancer
 * routes it to a surviving replica, where it readmits through the
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
#include "serving/load_balancer.h"
#include "serving/replica.h"
#include "serving/scheduler.h"

namespace streamtensor {
namespace serving {

/** Next-event selection strategy (see the event-cores note in the
 *  file header). Results are bit-identical between the two;
 *  LegacyScan survives as the differential oracle the heap core
 *  is tested against. */
enum class FleetEventCore
{
    Heap,       ///< O(log n) typed-event min-heap (default)
    LegacyScan, ///< O(n)-per-round scans (oracle)
};

/** Fleet knobs. */
struct FleetOptions
{
    int num_replicas = 2;

    /** Per-replica scheduler configuration, shared by every
     *  replica (homogeneous fleet). replica.max_steps bounds the
     *  *total* steps across the fleet. replica.drain_at_ms is
     *  ignored — draining is a FaultPlan event here. */
    SchedulerOptions replica;

    LbPolicy balancer = LbPolicy::LeastKvLoad;

    /** Failover attempts a request may consume before it is
     *  recorded lost (first dispatch is free; every crash
     *  evacuation costs one). */
    int64_t max_retries = 3;

    /** Base re-dispatch delay after a crash evacuation. */
    double retry_backoff_ms = 5.0;

    /** Exponential backoff growth per consumed attempt. */
    double retry_backoff_factor = 2.0;

    /** The fault schedule to execute. */
    FaultPlan faults;

    /** Simulated weight-reload window charged to crash recovery:
     *  a Recover event starts the replica re-streaming its
     *  weights from storage, and it takes work again only this
     *  many ms later (derive it from a storage tier via
     *  WeightStreamPlan::streamMs(), or pin any constant). 0
     *  keeps the pre-streaming instant recovery, bit-identically.
     *  Reload time counts as down time (uptimeFraction) and is
     *  tallied in FleetMetrics::reload_ms_total. */
    double recovery_reload_ms = 0.0;

    /** Reload window charged by FaultKind::Swap (hot model swap).
     *  Negative = use recovery_reload_ms. */
    double swap_reload_ms = -1.0;

    /** Next-event selection core. */
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

/** Fleet-wide aggregates. Per-request metrics from all replicas
 *  are merged in (finish, id) order, so "degraded p99" is a
 *  single-fleet percentile. */
struct FleetMetrics
{
    /** Merged per-request records, by (finish, id) — complete only
     *  while records_complete; see MetricsOptions (the fleet
     *  inherits each replica's retention policy). */
    std::vector<RequestMetrics> requests;

    /** Every replica kept all its records (so `requests` is the
     *  full fleet history). */
    bool records_complete = true;

    /** Fleet-wide latency distribution: the replicas' streaming
     *  sketches merged in replica-id order (deterministic), always
     *  maintained. Percentile queries route here when records are
     *  incomplete. */
    QuantileSketch latency_sketch;

    int64_t completed = 0;
    int64_t rejected_queue_full = 0;
    int64_t rejected_too_long = 0;
    int64_t expired_deadline = 0;
    int64_t rejected_drained = 0;
    int64_t deadline_misses = 0;

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

    /** Σ per-replica cold-start weight stall
     *  (ServingMetrics::weight_stall_ms) across the fleet. */
    double weight_stall_ms = 0.0;

    /** SlowStart windows applied (every SlowStart event on any
     *  replica, up or down). */
    int64_t slowdowns = 0;

    /** In-flight steps abandoned by crashes: simulated work that
     *  was paid for and produced nothing. */
    int64_t aborted_steps = 0;

    int64_t preemptions = 0;
    int64_t total_output_tokens = 0;
    int64_t steps = 0; ///< committed across the fleet

    double makespan_ms = 0.0;

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

    double servedRequestsPerSecond() const;

    /** Monotone mutation counter for `requests`: the fleet bumps
     *  it whenever it appends or reorders records (the
     *  finalize-time merge); code mutating `requests` from
     *  outside should too. Half of the percentile-cache key —
     *  see latencyPercentileMs(). */
    int64_t record_revision = 0;

    /** Fleet-wide latency percentile (nearest rank); NaN when no
     *  request completed. Exact (sorted once, cached across
     *  queries) while records_complete; a sketch estimate within
     *  the documented rank error (quantile_sketch.h) otherwise.
     *  The cache keys on (record_revision, requests.size()), so a
     *  query before a later merge — the fleet merge path — always
     *  re-answers from the updated window. */
    double latencyPercentileMs(double p) const;

  private:
    SortedSampleCache latency_cache_{&RequestMetrics::latencyMs};
};

/** Outcome of one fleet run. */
struct FleetResult
{
    FleetMetrics metrics;

    /** Per-replica finalized results, id-indexed (step records,
     *  per-replica metrics; makespan stamped fleet-wide). */
    std::vector<ServingResult> replicas;

    /** All rejections — fleet-level and per-replica — merged in
     *  (at_ms, id) order. */
    std::vector<RejectedRequest> rejected;

    std::vector<LostRequest> lost; ///< in decision order

    /** replica.max_steps total steps were executed with work
     *  still pending. */
    bool hit_step_limit = false;
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
