/**
 * @file
 * Continuous-batching serving: a discrete-event simulator that
 * drives an accelerator cost model with batched engine steps, the
 * serving-side counterpart of the paper's single-request
 * re-triggered block (§6.1). This header owns the per-replica
 * options and result types. The one serving event loop is
 * FleetScheduler (fleet.h); a single replica is a fleet with
 * num_replicas = 1 and an empty fault plan.
 *
 * Model, in vLLM/Orca terms with dataflow-accelerator constraints:
 *  - Iteration-level (continuous) batching: every step runs all
 *    resident sequences; new requests join at the next step
 *    boundary as prefill members — no waiting for the batch to
 *    drain.
 *  - Bucketed shapes: batch members are grouped by their bucketed
 *    BlockShapes (models::BucketPolicy) so the compile cache stays
 *    small; each group is one accelerator trigger per layer whose
 *    members stream back-to-back with weights resident.
 *  - Paged KV admission: the KV budget is a serving::KvPool of
 *    fixed-size pages. A request is admitted when its *current*
 *    context fits, acquires pages on demand as it decodes, and
 *    shares prefix pages with other requests naming the same
 *    prompt prefix. On allocation pressure the most recently
 *    admitted other resident sequence is preempted back to the
 *    queue and recomputes its KV when readmitted.
 *  - Strict head-of-line admission: the queue's oldest request is
 *    admitted or nothing is — later smaller requests never jump a
 *    blocked head, which makes FIFO fairness exact and starvation
 *    impossible. Preempted requests re-enter at the front of the
 *    queue (their arrival precedes everything still queued).
 *
 * **Context-length convention.** A sequence that has produced
 * `g` output tokens and runs one more step attends over
 * `input_len + g` tokens: the prompt (input_len), the g - 1
 * previously cached output tokens, and the current query token,
 * whose KV slot is written during the step. That expression is
 * used uniformly for decode shapes, recompute-prefill shapes, and
 * page demand; the maximum context of a request's lifetime is
 * therefore `input_len + output_len - 1` (its last decode step),
 * so a sequence moves to the next shape bucket exactly when its
 * context crosses the boundary (regression-tested at a boundary).
 *
 * **Timing rule.** The loop wakes at every step completion and
 * every arrival instant, not only at step boundaries, and runs the
 * fleet's phase order there (completions, arrivals, deadline
 * sweep, launch). One exception: an instant where the only event
 * is a replica completing a step that its next step repeats
 * exactly (a decode run, fleet.h) gets no round of its own, since
 * nothing else can happen there; the next round completes those
 * steps at their own instants, and the differential suite holds
 * every result equal to a reference fleet that wakes there. Three
 * consequences of the rule are pinned by the replay suite
 * (SchedulerReplay.MidStepDeadlineFreesQueueSlot):
 *
 *  1. *Rejection time.* An arrival rejected mid-step (TooLong,
 *     QueueFull, an already-passed deadline) is stamped at its
 *     own arrival instant, not at the next step boundary.
 *  2. *Deadlines with a bounded queue.* Queued deadlines are swept
 *     at every arrival instant too, so a request that expires
 *     mid-step frees its queue slot for a later arrival in the
 *     same step, which is then queued instead of rejected
 *     QueueFull. A deadline alone never wakes the loop: the sweep
 *     runs at the next instant at or after it.
 *  3. *Step limit.* The round that reaches max_steps still ingests
 *     the arrivals due at its instant (and admits them into the
 *     step it launches) before the run stops.
 *
 * Draining is not a SchedulerOptions knob: it is a FaultPlan event
 * of the fleet (FaultKind::DrainStart), which re-routes the drained
 * replica's queue.
 *
 * Time is simulated: integer nanoseconds inside the loop,
 * milliseconds in these structs (request.h). The loop contains no
 * wall-clock, randomness, or pointer-order dependence, so a trace
 * replays to bit-identical step compositions and metrics.
 */

#ifndef STREAMTENSOR_SERVING_SCHEDULER_H
#define STREAMTENSOR_SERVING_SCHEDULER_H

#include <cstdint>
#include <vector>

#include "models/bucketing.h"
#include "runtime/executor.h"
#include "serving/kv_pool.h"
#include "serving/metrics.h"
#include "serving/queue.h"
#include "serving/request.h"
#include "serving/weights.h"

namespace streamtensor {
namespace serving {

/** Cost oracle for one engine step. Implementations must be
 *  deterministic pure functions of the shape groups (the replay
 *  suite depends on it) and must return a strictly positive
 *  cost so simulated time advances. */
class StepCostModel
{
  public:
    virtual ~StepCostModel() = default;

    /** Cost in milliseconds of one full model pass over the given
     *  shape groups. */
    virtual double
    stepMs(const std::vector<runtime::StepGroup> &groups) = 0;
};

/** Cold-start weight streaming (weights.h). With a non-empty
 *  plan, the engine's weights are still in flight from storage
 *  when serving begins: every step launched before the plan's
 *  end_ms is gated on residency —
 *
 *   - overlap (default): the step's compute is spread across the
 *     plan's layers and each layer fires at
 *     max(previous layer's end, its ready watermark), so first
 *     prefills overlap the stream and only layers that outrun
 *     their weights stall (WeightStreamPlan::gatedComputeEndMs);
 *   - !overlap: the whole step waits for end_ms — the
 *     load-then-serve baseline the bench compares against.
 *
 *  The added wait lands in StepRecord::weights_wait_ms and
 *  accumulates into ServingMetrics::weight_stall_ms; steps
 *  launched after end_ms are untouched, so a warm run and an
 *  empty plan are bit-identical. */
struct ColdStartOptions
{
    WeightStreamPlan plan; ///< empty = warm start
    bool overlap = true;
};

/** Per-replica serving knobs (FleetOptions::replica). */
struct SchedulerOptions
{
    /** Max sequences resident in one step. */
    int64_t max_batch = 8;

    /** Total KV tokens the accelerator can hold, carved into
     *  kv_budget_tokens / page_tokens physical pages. */
    int64_t kv_budget_tokens = 4096;

    /** Page size of the paged pool. */
    int64_t page_tokens = 16;

    /** Request-queue capacity; arrivals beyond it are rejected
     *  (0 = unbounded). Preempted requests re-enter exempt from
     *  the bound. */
    int64_t max_queue_depth = 0;

    /** Shape quantisation shared with the compile cache. */
    models::BucketPolicy buckets;

    /** Record per-step composition (replay tests, debugging). */
    bool record_steps = false;

    /** Per-request record retention (metrics.h): every record by
     *  default; KeepRecords::Never keeps the streaming sketches
     *  only (million-request sweeps). */
    MetricsOptions metrics;

    /** Safety valve against a miscosted model wedging the event
     *  loop; a run hitting it reports hit_step_limit. */
    int64_t max_steps = 1 << 22;

    /** Cold-start weight streaming (empty plan = warm start). */
    ColdStartOptions cold_start;
};

/** Composition of one executed step (record_steps only). */
struct StepRecord
{
    double start_ms = 0.0;
    double step_ms = 0.0;

    /** Time this step spent waiting on weight residency during a
     *  cold start (already included in step_ms; 0 once the stream
     *  has finished, and on every warm run). */
    double weights_wait_ms = 0.0;

    /** Requests that ran a prefill-shaped pass in this step, in
     *  admission order: first-time prefills and recompute
     *  prefills of readmitted preempted sequences. */
    std::vector<int64_t> prefill_ids;

    /** Requests that decoded one token in this step. */
    std::vector<int64_t> decode_ids;

    /** Sequences preempted while making room for this step, in
     *  preemption order. */
    std::vector<int64_t> preempted_ids;

    /** Pool occupancy when the step launched (pages_active +
     *  pages_cached + pages_free == pool pages, recomputed by the
     *  property suite). The batch holds pages_active × page_tokens
     *  KV tokens during the step. */
    int64_t pages_active = 0;
    int64_t pages_cached = 0;
    int64_t pages_free = 0;

    /** Queued requests left behind when the step launched. */
    int64_t queue_depth = 0;
};

/** A rejected request and why. FleetResult::rejected lists
 *  rejections in (at_ms, id) order. */
struct RejectedRequest
{
    int64_t id = 0;
    double arrival_ms = 0.0;
    RejectReason reason = RejectReason::QueueFull;

    /** Simulated time the rejection was decided: the arrival
     *  instant for TooLong/QueueFull/Drained arrivals, the expiry
     *  sweep for DeadlineExpired. */
    double at_ms = 0.0;
};

/** One replica's outcome of serving a trace (FleetResult::
 *  replicas). */
struct ServingResult
{
    ServingMetrics metrics;
    std::vector<StepRecord> steps; ///< empty unless record_steps
    std::vector<RejectedRequest> rejected;
};

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_SCHEDULER_H
