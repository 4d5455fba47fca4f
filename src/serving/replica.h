/**
 * @file
 * ReplicaEngine: the per-replica core of the serving scheduler.
 * The fleet tier (fleet.h) interleaves N engines on one simulated
 * clock — a single replica is the N = 1 case — and needs
 * incremental control: launch a step, complete it later,
 * crash a replica mid-step, evacuate its work, slow it down, swap
 * its cost model while a link is degraded.
 *
 * The engine is a state machine over one replica's queue, paged KV
 * pool, and resident batch:
 *
 *     offer/readmit -> [queue] -> launchStep -> busy -> completeStep
 *                        ^  |                    |
 *                        |  +-- expireDeadlines  +-- crash() abandons
 *                        +----- preemption            the in-flight step
 *
 * All step accounting (metrics, step records, token advancement)
 * commits at completeStep(); a crash between launch and completion
 * abandons the in-flight step — its simulated work is lost, which
 * is exactly what a mid-decode hardware failure costs.
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

#include "serving/kv_pool.h"
#include "serving/queue.h"
#include "serving/scheduler.h"

namespace streamtensor {
namespace serving {

/** Sort @p trace into (arrival, id) service order and validate it
 *  (positive lengths, non-negative arrivals/deadlines, well-formed
 *  prefixes, unique ids). Called by FleetScheduler::run. */
void sortAndValidateTrace(std::vector<Request> &trace);

/** Domain-check @p options (batch room, KV budget, page geometry,
 *  queue depth, step limit, bucket ladder). Shared by the
 *  ReplicaEngine and FleetScheduler constructors. */
void validateSchedulerOptions(const SchedulerOptions &options);

class ReplicaEngine
{
  public:
    /** @p options is copied; @p cost must outlive the engine (it
     *  may later be swapped via setCost, e.g. for a degraded-link
     *  cost model). */
    ReplicaEngine(const SchedulerOptions &options,
                  StepCostModel &cost, int replica_id = 0);

    int replicaId() const { return replica_id_; }
    const SchedulerOptions &options() const { return options_; }

    // ---- State queries -----------------------------------------

    /** A step is in flight (launched, not yet completed). */
    bool busy() const { return busy_; }

    /** Simulated end of the in-flight step. busy() only. */
    double stepEndMs() const;

    /** Decode-run query: how many steps after the in-flight one are
     *  certain to repeat it exactly — the same shape groups, no page
     *  growth, no preemption or admission, hence the same cost
     *  (reused without calling the oracle). 0 unless every resident
     *  is decoding, the queue is empty and the in-flight step
     *  launched at or after the cold-start stream's end_ms.
     *  Otherwise the largest j such that, for every resident, the
     *  next j contexts stay within the pages it holds and within its
     *  bucket, and no resident finishes before step j.
     *
     *  The answer assumes nothing else touches the engine meanwhile:
     *  an offer or readmit, a slow factor, a cost swap, a drain or a
     *  crash changes the next launch, so the fleet cuts the run
     *  there (fleet.h, decode runs). busy() only. */
    int64_t repeatSteps() const;

    /** End of the @p repeats-th repeat of the in-flight step: its
     *  end plus its cost added once per repeat, the same sequence
     *  of additions launchStep() makes stepping them one at a
     *  time. busy() only. */
    double repeatEndMs(int64_t repeats) const;

    /** Decode-run catch-up in one call: complete the in-flight step
     *  and launch its repeat, as pure accounting, once for each
     *  step of the run that ends strictly before @p before, at most
     *  @p max_repeats times. Returns that count k; the in-flight
     *  step is then the k-th repeat, so stepEndMs() equals the old
     *  repeatEndMs(k). Metrics, step records and every resident's
     *  progress come out bit-identical to k completeStep() /
     *  launchStep(stepEndMs()) pairs: steps, batched sequences and
     *  page-steps grow by k times the in-flight step's share, each
     *  resident's generated by k, busy time and the step start by k
     *  sequential additions of the step cost (the additions
     *  repeatEndMs() makes), and the k records differ from the
     *  in-flight one only in start_ms. No oracle call, page growth
     *  or admission runs. k <= repeatSteps() is asserted, so a
     *  caller passes the run it planned from repeatSteps() and cuts
     *  it wherever the engine is touched (fleet.h, decode runs).
     *  k = 0 changes nothing. busy() only. */
    int64_t advanceRepeats(int64_t max_repeats, double before);

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
     *  every new arrival while its queue grows without bound. */
    int64_t kvLoadTokens() const;

    bool draining() const { return draining_; }

    /** The engine's KV pool (tests). */
    const KvPool &pool() const { return pool_; }

    // ---- Request intake ----------------------------------------

    /** True when the request could ever run to completion on this
     *  engine's geometry (bucket ladder + KV capacity). Identical
     *  across engines sharing SchedulerOptions. */
    bool servable(const Request &r) const;

    /** Ingest an arrival: queue it, or record the rejection
     *  (TooLong, Drained, DeadlineExpired, QueueFull — checked in
     *  that order) in result(). */
    void offer(const Request &r, double now);

    /** Readmit a preempted or failed-over request at the front of
     *  the queue, capacity-exempt. Its progress travels in the
     *  queue entry itself until admission moves it into the
     *  batch. */
    void readmit(const QueuedRequest &entry);

    /** Shed every queued request whose deadline has passed,
     *  recording DeadlineExpired rejections. Resident sequences
     *  are never expired. */
    void expireDeadlines(double now);

    // ---- Step loop ---------------------------------------------

    /** Grow/preempt, admit from the queue head (unless
     *  draining), group by bucketed shapes and cost one step
     *  starting at @p now. A step whose groups and oracle equal the
     *  previous launch's reuses that answer instead of calling the
     *  oracle again (StepCostModel is a pure function of the
     *  groups); the slow factor and the cold-start gate apply
     *  afterwards either way. Returns false when there is nothing
     *  to run (no work, or draining with an empty batch). Throws
     *  FatalError when @p now plus the step's cost does not exceed
     *  @p now (a far-future instant where the cost rounds away).
     *  The engine is busy() until completeStep(). */
    bool launchStep(double now);

    /** Commit the in-flight step: metrics, step record, one output
     *  token per resident sequence, retire finished sequences. */
    void completeStep();

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
    std::vector<QueuedRequest> evacuateQueue();

    /** Enter/leave drain mode: while draining, launchStep admits
     *  nothing from the queue and offer() rejects arrivals as
     *  Drained; residents run to completion. */
    void setDraining(bool draining) { draining_ = draining; }

    /** Step-cost multiplier for a degraded (slowed) replica; must
     *  be positive. 1.0 = nominal. */
    void setSlowFactor(double factor);

    /** Swap the cost oracle (inter-die link degradation: steps are
     *  costed by a model built on the degraded platform while the
     *  fault holds). @p cost must outlive the engine. */
    void setCost(StepCostModel &cost) { cost_ = &cost; }

    // ---- Results -----------------------------------------------

    /** The engine's accumulated result (metrics, step records,
     *  rejections). Call finalize() first at end of run. */
    ServingResult &result() { return result_; }
    const ServingResult &result() const { return result_; }

    /** Stamp end-of-run aggregates (completed, in_flight,
     *  makespan, queue high-water, pool stats). */
    void finalize(double makespan_ms);

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

    void reject(const Request &r, RejectReason reason,
                double at_ms);

    /** @p from plus the in-flight step's cost, added @p repeats
     *  times one addition at a time: the sums launchStep() forms
     *  stepping a decode run. repeatEndMs() and advanceRepeats()
     *  both add through here, so a planned run end and the run
     *  accounted for agree to the bit. */
    double addStepMs(double from, int64_t repeats) const;

    SchedulerOptions options_;

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
    double step_start_ms_ = 0.0;
    double step_ms_ = 0.0;
    StepRecord pending_record_;
    int64_t pending_batch_ = 0;
    int64_t pending_pages_active_ = 0;

    ServingResult result_;
};

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_REPLICA_H
