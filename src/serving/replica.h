/**
 * @file
 * ReplicaEngine: one replica of the serving loop, the serving-side
 * counterpart of the paper's single-request re-triggered block
 * (§6.1), with its options and result types. The fleet tier
 * (fleet.h) interleaves N engines on one simulated clock — a single
 * replica is the N = 1 case — and needs incremental control: launch
 * a step, complete it later, crash a replica mid-step, evacuate its
 * work, slow it down, swap its cost model while a link is degraded.
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
 * The engine is a state machine over one replica's queue, paged KV
 * pool, and resident batch:
 *
 *     offer/readmit -> [queue] -> launchStep -> busy -> completeDue
 *                        ^  |                    |
 *                        |  +-- expireDeadlines  +-- crash() abandons
 *                        +----- preemption            the in-flight step
 *
 * All step accounting (metrics, step records, token advancement)
 * commits when completeDue() reaches the step's end; a crash
 * between launch and completion abandons the in-flight step — its
 * simulated work is lost, which is exactly what a mid-decode
 * hardware failure costs.
 *
 * **Decode runs.** planRun() plans the steps after a launch that
 * repeat it; the caller needs the engine again only at wakeAt(),
 * and completeDue() catches the run up in one call. Its m-th step
 * ends at stepEnd() + m × step, in integer nanoseconds. A run
 * stands only while the queue is empty, so a mutator that touches
 * nothing but an empty queue or the drain flag (evacuateQueue,
 * setDraining) leaves it standing. The engine owns the run: every
 * mutator that changes the next launch (offer, readmit,
 * setSlowFactor, setCost, crash) cuts it after the in-flight step.
 * Caps spanning replicas are the caller's, through planRun()'s cap
 * and cutRun().
 *
 * **Where progress lives.** A request's ResumeState has one home at
 * a time: a resident sequence holds it in its batch entry; a queued
 * one — fresh, preempted or readmitted — in its QueuedRequest queue
 * entry. Preemption and readmit push the state with the request;
 * admission, expiry and evacuation take it from the entry. Evacuated
 * sequences leave as QueuedRequests, so a surviving replica readmits
 * them through the same preemption-readmission path: one recompute
 * prefill over the accumulated context, then decoding continues — a
 * completed request always emits exactly output_len tokens no
 * matter how many times it moved.
 */

#ifndef STREAMTENSOR_SERVING_REPLICA_H
#define STREAMTENSOR_SERVING_REPLICA_H

#include <cstdint>
#include <vector>

#include "models/bucketing.h"
#include "runtime/executor.h"
#include "serving/cost_model.h"
#include "serving/kv_pool.h"
#include "serving/metrics.h"
#include "serving/queue.h"
#include "serving/request.h"
#include "serving/weights.h"

namespace streamtensor {
namespace serving {

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
struct ReplicaOptions
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
     *  instant for TooLong/QueueFull arrivals, the expiry sweep for
     *  DeadlineExpired. */
    double at_ms = 0.0;
};

/** One replica's outcome of serving a trace (FleetResult::
 *  replicas). */
struct ReplicaResult
{
    ServingMetrics metrics;
    std::vector<StepRecord> steps; ///< empty unless record_steps
    std::vector<RejectedRequest> rejected;
};

/** Domain-check @p options (batch room, KV budget, page geometry,
 *  queue depth, step limit, bucket ladder). Shared by the
 *  ReplicaEngine and FleetScheduler constructors. */
void validateReplicaOptions(const ReplicaOptions &options);

class ReplicaEngine
{
  public:
    /** @p options is copied; @p cost must outlive the engine (it
     *  may later be swapped via setCost, e.g. for a degraded-link
     *  cost model). */
    ReplicaEngine(const ReplicaOptions &options,
                  StepCostModel &cost, int replica_id = 0);

    // ---- State queries -----------------------------------------

    /** A step is in flight (launched, not yet completed). */
    bool busy() const { return busy_; }

    /** End of the in-flight step. busy() only. */
    SimTime stepEnd() const;

    // ---- Decode runs -------------------------------------------

    /** Plan a run of the min(@p max_repeats, repeatSteps()) steps
     *  after the in-flight one (none for a cap <= 0) and return
     *  that count. Call it after launchStep(), before anything
     *  else touches the engine. busy() only. */
    int64_t planRun(int64_t max_repeats);

    /** Steps of the planned run after the in-flight one. */
    int64_t plannedRepeats() const { return run_left_; }

    /** End of the run's last step (of the in-flight step when no
     *  run stands); kNever when idle. */
    SimTime wakeAt() const
    {
        return busy_ ? stepEnd() + run_left_ * step_ : kNever;
    }

    /** End the run after the in-flight step. */
    void cutRun() { run_left_ = 0; }

    /** Complete every step that ended by @p now: the run's steps
     *  that ended before it as pure accounting (advanceRepeats),
     *  then a step ending exactly at @p now, which leaves the
     *  engine idle and ends the run. Panics when a step outside
     *  the run ended before @p now. No-op when idle. */
    void completeDue(SimTime now);

    /** Some queued request carries a deadline. */
    bool queuedDeadlines() const { return queue_.hasDeadlines(); }

    /** Resident sequences or queued requests exist. */
    bool hasWork() const
    {
        return !active_.empty() || !queue_.empty();
    }

    int64_t queueDepth() const { return queue_.size(); }

    /** KV load signal for fleet routing: resident occupancy
     *  (active pages × page_tokens) plus the queued requests'
     *  prefill demand. Counting backlog demand matters — resident KV alone
     *  rewards the replica whose batch holds small contexts with
     *  every new arrival while its queue grows without bound.
     *  Inside a decode run the active pages grow as completeDue()
     *  replays the run, so the answer is current only once the
     *  engine has been caught up to now. */
    int64_t kvLoadTokens() const;

    bool draining() const { return draining_; }

    /** The engine's KV pool (tests). */
    const KvPool &pool() const { return pool_; }

    // ---- Request intake ----------------------------------------

    /** True when the request could ever run to completion on this
     *  engine's geometry (bucket ladder + KV capacity). Identical
     *  across engines sharing ReplicaOptions. */
    bool servable(const Request &r) const;

    /** Ingest an arrival: queue it, or record a QueueFull
     *  rejection in result(). The caller has already refused the
     *  rest (FleetRun): FatalError unless @p r is servable() and
     *  its deadline has not passed, and the engine is not
     *  draining. */
    void offer(const Request &r, SimTime now);

    /** Readmit a preempted or failed-over request at the front of
     *  the queue, capacity-exempt. Its progress travels in the
     *  queue entry itself until admission moves it into the
     *  batch. */
    void readmit(const QueuedRequest &entry);

    /** Shed every queued request whose deadline has passed,
     *  recording DeadlineExpired rejections. Resident sequences
     *  are never expired. */
    void expireDeadlines(SimTime now);

    // ---- Step loop ---------------------------------------------

    /** Grow/preempt, admit from the queue head (unless
     *  draining), group by bucketed shapes and cost one step
     *  starting at @p now. A step whose groups and oracle equal the
     *  previous launch's reuses that answer instead of calling the
     *  oracle again (StepCostModel is a pure function of the
     *  groups); the slow factor and the cold-start gate apply
     *  afterwards either way. Returns false when there is nothing
     *  to run (no work, or draining with an empty batch). The
     *  step's cost and its weight-gated end round to whole
     *  nanoseconds, the cost to at least 1 ns; FatalError when the
     *  step would end at or past kNever. The engine is busy() until
     *  completeDue() reaches the step's end. */
    bool launchStep(SimTime now);

    // ---- Faults ------------------------------------------------

    /** Hard-fail the replica: abandon any in-flight step (its
     *  simulated work is lost — the caller decides whether that
     *  counts as an aborted step), evacuate every resident and
     *  queued request with resume state, and drop all KV — the
     *  pool is rebuilt empty (retained prefix pages die with the
     *  replica) while its cumulative stats are preserved. Returns
     *  residents in admission order, then queued requests in pop
     *  order. The engine is immediately reusable — recovery timing
     *  is the caller's decision. */
    std::vector<QueuedRequest> crash();

    /** Evacuate only the queue (graceful drain hand-off): resident
     *  sequences keep running to completion. */
    std::vector<QueuedRequest> evacuateQueue()
    {
        return queue_.drainAll();
    }

    /** Enter/leave drain mode: while draining, launchStep admits
     *  nothing from the queue and offer() refuses arrivals;
     *  residents run to completion. */
    void setDraining(bool draining) { draining_ = draining; }

    /** Step-cost multiplier for a degraded (slowed) replica; must
     *  be positive. 1.0 = nominal. The in-flight step keeps its
     *  cost. */
    void setSlowFactor(double factor);

    /** Swap the cost oracle (inter-die link degradation: steps are
     *  costed by a model built on the degraded platform while the
     *  fault holds). @p cost must outlive the engine. */
    void setCost(StepCostModel &cost)
    {
        cutRun();
        cost_ = &cost;
    }

    // ---- Results -----------------------------------------------

    /** The engine's accumulated result (metrics, step records,
     *  rejections). Call finalize() first at end of run. */
    ReplicaResult &result() { return result_; }
    const ReplicaResult &result() const { return result_; }

    /** Stamp end-of-run aggregates (completed, in_flight,
     *  makespan, queue high-water, pool stats). */
    void finalize(SimTime makespan);

  private:
    /** One sequence resident in the batch. */
    struct ActiveSeq
    {
        Request req;

        /** Progress so far, handed on whole at a preemption or an
         *  evacuation (state.ever_prefilled turns true once the
         *  first output token was emitted; preemption clears
         *  prefilled but never that). */
        ResumeState state;

        /** False while the next step must run a prefill-shaped
         *  pass: the first prefill, or the recompute prefill after
         *  a preemption or failover. */
        bool prefilled = false;

        /** Monotone admission counter; preemption victim order. */
        int64_t admit_tick = 0;
    };

    void reject(const Request &r, RejectReason reason, SimTime at);

    /** How many steps after the in-flight one are certain to
     *  repeat it exactly — the same shape groups, no preemption,
     *  eviction or admission, hence the same cost (reused without
     *  calling the oracle). 0 unless every resident is decoding,
     *  the queue is empty and the in-flight step launched at or
     *  after the cold-start stream's end. Otherwise the largest
     *  j such that, for every resident, the next j contexts stay
     *  within its bucket, no resident finishes before step j, and
     *  the fresh pages launches 1..j grow in all — the sum over
     *  residents of max(0, pagesFor(context + j) - heldPages) — fit
     *  the free list. A page taken off the free list changes
     *  neither a shape nor the cost; reclaiming a retained page or
     *  preempting does, so the run ends before the launch that
     *  would need either. busy() only. */
    int64_t repeatSteps() const;

    /** Complete the in-flight step and launch its repeat, as pure
     *  accounting, once for each step of the run that ends strictly
     *  before @p before — ceil((before - stepEnd()) / step) of them,
     *  at most the run — bit-identical to stepping them. The steps
     *  commit in segments that end at the launches growing a page;
     *  at a segment's end every resident grows, in admission order
     *  as launchStep() grows them, and the in-flight step's page
     *  count (and its record's) is read afresh. */
    void advanceRepeats(SimTime before);

    /** Commit the in-flight step: metrics, step record, one output
     *  token per resident sequence, retire finished sequences. The
     *  engine goes idle and any run ends. */
    void completeStep();

    /** The accounting of @p k steps that repeat the in-flight one,
     *  shared by completeStep() and advanceRepeats(): a record per
     *  step, and k times the step's cost (busy time, step start) and
     *  share (steps, batched sequences, page-steps, tokens). The
     *  batch and the pool's active pages are read as they stand:
     *  nothing moves them between a launch, or a run segment's
     *  growth, and the commit. */
    void commitSteps(int64_t k);

    ReplicaOptions options_;

    /** models::bucketBoundaries(options_.buckets), built once per
     *  engine (about a dozen entries): launchStep buckets every
     *  resident sequence by binary search over it instead of
     *  walking the geometric ladder again each step. */
    std::vector<int64_t> bucket_ladder_;

    StepCostModel *cost_;
    int replica_id_;

    RequestQueue queue_;
    std::vector<ActiveSeq> active_; // admission order
    KvPool pool_;
    int64_t admit_ticks_ = 0;

    bool draining_ = false;
    double slow_factor_ = 1.0;

    // Per-step scratch reused across launchStep() calls: the
    // preemption marks and the step's shape groups.
    std::vector<bool> gone_;
    std::vector<runtime::StepGroup> step_groups_;

    // The last oracle call: its groups, its oracle and its answer
    // (before the slow factor), reused by a launch that repeats it.
    std::vector<runtime::StepGroup> costed_groups_;
    const StepCostModel *costed_by_ = nullptr;
    double costed_ms_ = 0.0;

    // In-flight step (busy_ == true).
    bool busy_ = false;
    SimTime step_start_ = 0;
    SimTime step_ = 0;
    StepRecord pending_record_;

    // Decode run: the steps planned after the in-flight one.
    int64_t run_left_ = 0;

    // The running sum behind metrics.busy_ms.
    SimTime busy_time_ = 0;

    ReplicaResult result_;
};

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_REPLICA_H
