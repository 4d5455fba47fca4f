/**
 * @file
 * ReplicaEngine: the per-replica core of the serving scheduler.
 * The fleet tier (fleet.h) interleaves N engines on one simulated
 * clock — the single-replica Scheduler is the N = 1 case — and
 * needs incremental control: launch a step, complete it later,
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
 * is exactly what a mid-decode hardware failure costs. Evacuated
 * sequences carry a ResumeState so a surviving replica readmits
 * them through the existing preemption-readmission path: one
 * recompute prefill over the accumulated context, then decoding
 * continues — a completed request always emits exactly output_len
 * tokens no matter how many times it moved.
 */

#ifndef STREAMTENSOR_SERVING_REPLICA_H
#define STREAMTENSOR_SERVING_REPLICA_H

#include <cstdint>
#include <map>
#include <vector>

#include "serving/kv_pool.h"
#include "serving/queue.h"
#include "serving/scheduler.h"

namespace streamtensor {
namespace serving {

/** Progress carried across a preemption or a replica failover,
 *  restored on readmission. The generated tokens themselves are
 *  kept (they are known text); only their KV pages were dropped,
 *  so the readmitted sequence recomputes KV with one
 *  prefill-shaped pass over its full context and continues
 *  decoding. */
struct ResumeState
{
    int64_t generated = 0;
    bool ever_prefilled = false;
    double first_token_ms = 0.0;
    int64_t preemptions = 0;

    /** Times the request already moved replicas (fleet tier). */
    int64_t failovers = 0;
};

/** One sequence evacuated from a crashed or draining replica:
 *  the original request plus everything needed to resume it
 *  elsewhere. */
struct EvacuatedSeq
{
    Request req;
    ResumeState state;
};

/** Sort @p trace into (arrival, id) service order and validate it
 *  (positive lengths, non-negative arrivals/deadlines, well-formed
 *  prefixes, unique ids). Called by FleetScheduler::run. */
void sortAndValidateTrace(std::vector<Request> &trace);

/** Domain-check @p options (batch room, KV budget, page geometry,
 *  queue depth, step limit). Shared by Scheduler, ReplicaEngine
 *  and FleetScheduler constructors. */
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

    /** Resident sequences or queued requests exist. */
    bool hasWork() const
    {
        return !active_.empty() || !queue_.empty();
    }

    int64_t activeCount() const
    {
        return static_cast<int64_t>(active_.size());
    }
    int64_t queueDepth() const { return queue_.size(); }

    /** KV load signal for load balancing: resident occupancy
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
     *  its priority class, capacity-exempt, with its resume
     *  state. */
    void readmit(const Request &r, const ResumeState &state);

    /** Shed every queued request whose deadline has passed,
     *  recording DeadlineExpired rejections. Resident sequences
     *  are never expired. */
    void expireDeadlines(double now);

    // ---- Step loop ---------------------------------------------

    /** Grow/preempt, admit from the queue head (unless
     *  draining), group by bucketed shapes and cost one step
     *  starting at @p now. Returns false when there is nothing to
     *  run (no work, or draining with an empty batch). The engine
     *  is busy() until completeStep(). */
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
    std::vector<EvacuatedSeq> crash();

    /** Evacuate only the queue (graceful drain hand-off): resident
     *  sequences keep running to completion. */
    std::vector<EvacuatedSeq> evacuateQueue();

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
        int64_t generated = 0;

        /** False while the next step must run a prefill-shaped
         *  pass: the first prefill, or the recompute prefill after
         *  a preemption or failover. */
        bool prefilled = false;

        /** True once the first output token was emitted
         *  (preemption clears prefilled but never this). */
        bool ever_prefilled = false;

        double first_token_ms = 0.0;
        int64_t preemptions = 0;
        int64_t failovers = 0;

        /** Monotone admission counter; preemption victim order. */
        int64_t admit_tick = 0;
    };

    void reject(const Request &r, RejectReason reason,
                double at_ms);
    ResumeState takeResumeState(const Request &r);

    SchedulerOptions options_;
    StepCostModel *cost_;
    int replica_id_;

    RequestQueue queue_;
    std::vector<ActiveSeq> active_; // admission order
    std::map<int64_t, ResumeState> resume_state_;
    KvPool pool_;
    int64_t admit_ticks_ = 0;

    bool draining_ = false;
    double slow_factor_ = 1.0;

    // In-flight step (busy_ == true).
    bool busy_ = false;
    double step_start_ms_ = 0.0;
    double step_ms_ = 0.0;
    StepRecord pending_record_;
    int64_t pending_batch_ = 0;
    int64_t pending_pages_active_ = 0;

    // Pool stats accumulated across crash-rebuilds.
    KvPoolStats pool_stats_base_;
    int64_t peak_pages_active_base_ = 0;

    ServingResult result_;
};

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_REPLICA_H
