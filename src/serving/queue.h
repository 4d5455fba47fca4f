/**
 * @file
 * Bounded FIFO request queue with a capacity bound: a push beyond
 * capacity is refused so the caller can account the rejection
 * (load shedding at the frontend rather than unbounded queue
 * growth). Each entry is a QueuedRequest: the request plus the
 * progress it carries, so a preempted or failed-over sequence keeps
 * its ResumeState in the queue itself.
 *
 * **Capacity invariant.** Only push() is bounded. pushFront() —
 * the readmission path for preempted or failed-over sequences —
 * is deliberately capacity-exempt: a sequence that already holds
 * progress must never be dropped by its own eviction. The queue
 * therefore enforces, as its own runtime assertion rather than a
 * comment in ReplicaOptions, that any occupancy beyond
 * max_depth is attributable to pushFront() calls: after every
 * insert, size() - max_depth <= cumulative frontInserts().
 *
 * The queue is deliberately oblivious to KV budgets and shapes —
 * admission against accelerator resources is the replica engine's job.
 */

#ifndef STREAMTENSOR_SERVING_QUEUE_H
#define STREAMTENSOR_SERVING_QUEUE_H

#include <cstdint>
#include <deque>
#include <vector>

#include "serving/request.h"

namespace streamtensor {
namespace serving {

class RequestQueue
{
  public:
    /** @p max_depth bounds the queued requests; 0 means
     *  unbounded. */
    explicit RequestQueue(int64_t max_depth = 0)
        : max_depth_(max_depth)
    {}

    /** Enqueue a fresh request (default ResumeState); returns false
     *  (and drops the request) when the queue is at (or, via
     *  readmissions, beyond) capacity. */
    bool push(const Request &request);

    /** Re-enqueue at the *front*, with the progress @p entry
     *  carries. Used for preempted (and failed-over) sequences
     *  going back to the queue: such a request was popped before
     *  everything still queued, so front insertion restores exact
     *  (arrival, id) order. Exempt from the capacity bound — a
     *  readmitted request must never be dropped. */
    void pushFront(const QueuedRequest &entry);

    /** True when no request is queued. */
    bool empty() const { return fifo_.empty(); }

    /** Total queued requests. */
    int64_t size() const { return static_cast<int64_t>(fifo_.size()); }

    /** High-water mark of size() since construction. */
    int64_t maxDepth() const { return max_depth_seen_; }

    /** Sum of queued requests' input_len: the KV prefill demand
     *  waiting in this queue. Load-balancing signal — resident KV
     *  alone is blind to backlog, so a replica whose batch happens
     *  to hold small contexts would otherwise attract every
     *  arrival while its queue grows without bound. Maintained
     *  incrementally (O(1)): fleet routing reads it on every
     *  pick, which at sweep scale used to be an O(queue) walk per
     *  arrival. */
    int64_t queuedInputTokens() const
    {
        return queued_input_tokens_;
    }

    /** Cumulative pushFront() calls — the only inserts allowed to
     *  exceed a nonzero capacity (see the invariant above). */
    int64_t frontInserts() const { return front_inserts_; }

    /** True when some queued request carries a deadline (O(1)). */
    bool hasDeadlines() const { return deadlined_ > 0; }

    /** The entry that pop() would return. Queue must be
     *  non-empty. */
    const QueuedRequest &front() const;

    /** Dequeue the oldest entry. */
    QueuedRequest pop();

    /** Remove every queued entry whose deadline has passed
     *  (deadlinePassed, request.h) and return
     *  them in pop order — the overload-shedding sweep.
     *  Requests without a deadline are untouched. O(1) when no
     *  queued request carries a deadline (the common sweep, run
     *  every event-loop round); O(queue) otherwise. */
    std::vector<QueuedRequest> expireBefore(SimTime now);

    /** Dequeue everything in pop order (crash evacuation, drain
     *  flush), progress included. Leaves the queue empty. */
    std::vector<QueuedRequest> drainAll();

    /** Copy of every queued entry in pop order, without
     *  mutating the queue. O(queue) — test/diagnostic hook; the
     *  property suite recomputes queuedInputTokens() from it to
     *  pin the O(1) counter against every mutation path. */
    std::vector<QueuedRequest> snapshot() const;

  private:
    /** Account one inserted entry and check the capacity
     *  invariant. */
    void countInsert(const Request &request);

    /** Account one removed entry. */
    void countRemove(const Request &request);

    int64_t max_depth_;
    int64_t max_depth_seen_ = 0;
    int64_t front_inserts_ = 0;
    int64_t queued_input_tokens_ = 0;

    /** Queued requests with a nonzero deadline — the
     *  expireBefore() early-out. */
    int64_t deadlined_ = 0;

    std::deque<QueuedRequest> fifo_;
};

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_QUEUE_H
