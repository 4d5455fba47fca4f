#include "serving/replica.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "support/error.h"

namespace streamtensor {
namespace serving {

namespace {

/** Largest context of the request's lifetime — its final decode
 *  step (see the convention note in scheduler.h). */
int64_t
maxContext(const Request &r)
{
    return r.input_len + r.output_len - 1;
}

KvPoolOptions
poolOptionsFor(const SchedulerOptions &options, bool paged)
{
    KvPoolOptions pool_options;
    pool_options.page_tokens = options.page_tokens;
    pool_options.total_pages =
        paged ? options.kv_budget_tokens / options.page_tokens : 1;
    return pool_options;
}

} // namespace

void
sortAndValidateTrace(std::vector<Request> &trace)
{
    std::set<int64_t> ids;
    for (const auto &r : trace) {
        ST_CHECK(r.input_len >= 1 && r.output_len >= 1,
                 "request lengths must be positive");
        ST_CHECK(std::isfinite(r.arrival_ms) && r.arrival_ms >= 0.0,
                 "arrivals must be finite and non-negative");
        ST_CHECK(std::isfinite(r.deadline_ms) &&
                     r.deadline_ms >= 0.0,
                 "deadlines must be finite and non-negative");
        ST_CHECK(r.prefix_id >= 0 && r.prefix_len >= 0 &&
                     r.prefix_len <= r.input_len &&
                     (r.prefix_id != 0 || r.prefix_len == 0),
                 "malformed shared prefix");
        ST_CHECK(ids.insert(r.id).second,
                 "trace ids must be unique");
    }
    // Validated first: a NaN arrival would break the sort's strict
    // weak order.
    std::stable_sort(trace.begin(), trace.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrival_ms < b.arrival_ms ||
                                (a.arrival_ms == b.arrival_ms &&
                                 a.id < b.id);
                     });
}

void
validateSchedulerOptions(const SchedulerOptions &options)
{
    ST_CHECK(options.max_batch >= 1, "need batch room");
    ST_CHECK(options.kv_budget_tokens >= 1, "need a KV budget");
    ST_CHECK(options.max_queue_depth >= 0, "queue depth domain");
    ST_CHECK(options.max_steps >= 1, "step limit domain");
    ST_CHECK(options.metrics.auto_record_limit >= 0,
             "record limit domain");
    ST_CHECK(std::isfinite(options.drain_at_ms),
             "drain instant must be finite (negative = never)");
    if (options.admission == KvAdmission::Paged) {
        ST_CHECK(options.page_tokens >= 1, "page size domain");
        ST_CHECK(options.kv_budget_tokens >= options.page_tokens,
                 "KV budget smaller than one page");
    }
}

ReplicaEngine::ReplicaEngine(const SchedulerOptions &options,
                             StepCostModel &cost, int replica_id)
    : options_(options), cost_(&cost), replica_id_(replica_id),
      paged_(options.admission == KvAdmission::Paged),
      queue_(options.max_queue_depth),
      pool_(poolOptionsFor(options_, paged_))
{
    validateSchedulerOptions(options_);
    if (paged_)
        result_.metrics.pool_pages = pool_.totalPages();
}

double
ReplicaEngine::stepEndMs() const
{
    ST_CHECK(busy_, "stepEndMs() with no step in flight");
    return step_start_ms_ + step_ms_;
}

int64_t
ReplicaEngine::kvLoadTokens() const
{
    int64_t resident = paged_
                           ? pool_.activePages() * pool_.pageTokens()
                           : kv_in_use_;
    return resident + queue_.queuedInputTokens();
}

int64_t
ReplicaEngine::reservedKv(const Request &r) const
{
    // Reserved KV under Reserve admission: the final bucketed
    // context, held from admission to completion (conservative —
    // no preemption). -1 = can never be served.
    if (maxContext(r) > options_.buckets.max_len)
        return -1;
    int64_t reserve =
        models::bucketLen(maxContext(r), options_.buckets);
    return reserve <= options_.kv_budget_tokens ? reserve : -1;
}

bool
ReplicaEngine::servable(const Request &r) const
{
    if (paged_) {
        // Servable under Paged admission when the final decode
        // step's shape exists on the bucket ladder and its page
        // demand fits the whole pool (the guarantee that a lone
        // resident sequence can always grow, so preemption
        // terminates).
        return maxContext(r) <= options_.buckets.max_len &&
               pool_.pagesFor(maxContext(r)) <= pool_.totalPages();
    }
    return reservedKv(r) >= 0;
}

void
ReplicaEngine::reject(const Request &r, RejectReason reason,
                      double at_ms)
{
    switch (reason) {
    case RejectReason::QueueFull:
        ++result_.metrics.rejected_queue_full;
        break;
    case RejectReason::TooLong:
        ++result_.metrics.rejected_too_long;
        break;
    case RejectReason::DeadlineExpired:
        ++result_.metrics.expired_deadline;
        break;
    case RejectReason::Drained:
        ++result_.metrics.rejected_drained;
        break;
    }
    result_.rejected.push_back(
        {r.id, r.arrival_ms, reason, at_ms});
}

void
ReplicaEngine::offer(const Request &r, double now)
{
    // Callers ingest arrivals strictly in (arrival, id) order, so
    // result().rejected inherits that order no matter how many
    // arrivals one ingest round drains.
    if (!servable(r))
        reject(r, RejectReason::TooLong, now);
    else if (draining_)
        reject(r, RejectReason::Drained, now);
    else if (r.deadline_ms > 0.0 && r.deadline_ms <= now)
        reject(r, RejectReason::DeadlineExpired, now);
    else if (!queue_.push(r))
        reject(r, RejectReason::QueueFull, now);
}

void
ReplicaEngine::readmit(const Request &r, const ResumeState &state)
{
    resume_state_[r.id] = state;
    queue_.pushFront(r);
}

ResumeState
ReplicaEngine::takeResumeState(const Request &r)
{
    auto it = resume_state_.find(r.id);
    if (it == resume_state_.end())
        return ResumeState{};
    ResumeState state = it->second;
    resume_state_.erase(it);
    return state;
}

void
ReplicaEngine::expireDeadlines(double now)
{
    for (const Request &r : queue_.expireBefore(now)) {
        // A preempted request can expire too; its progress dies
        // with it.
        resume_state_.erase(r.id);
        reject(r, RejectReason::DeadlineExpired, now);
    }
}

void
ReplicaEngine::shedQueueAsDrained(double now)
{
    for (const Request &r : queue_.drainAll()) {
        resume_state_.erase(r.id);
        reject(r, RejectReason::Drained, now);
    }
}

void
ReplicaEngine::setSlowFactor(double factor)
{
    ST_CHECK(factor > 0.0, "slow factor must be positive");
    slow_factor_ = factor;
}

bool
ReplicaEngine::launchStep(double now)
{
    ST_ASSERT(!busy_, "launchStep() with a step in flight");
    if (!hasWork())
        return false;

    // --- Paged growth: every resident sequence acquires the
    // pages its next step needs. Under pressure, preempt the
    // lowest-priority-class, most-recently-admitted other
    // sequence back to the queue (front of its class) and
    // retry; termination is guaranteed because a lone
    // sequence's demand always fits the pool (servable()).
    std::vector<int64_t> preempted_now;
    if (paged_ && !active_.empty()) {
        std::vector<bool> gone(active_.size(), false);
        auto preempt = [&](size_t victim) {
            ActiveSeq &seq = active_[victim];
            pool_.release(seq.req.id);
            ResumeState state;
            state.generated = seq.generated;
            state.ever_prefilled = seq.ever_prefilled;
            state.first_token_ms = seq.first_token_ms;
            state.preemptions = seq.preemptions + 1;
            state.failovers = seq.failovers;
            resume_state_[seq.req.id] = state;
            queue_.pushFront(seq.req);
            preempted_now.push_back(seq.req.id);
            ++result_.metrics.preemptions;
            gone[victim] = true;
        };
        for (size_t i = 0; i < active_.size(); ++i) {
            if (gone[i])
                continue;
            while (!pool_.grow(active_[i].req.id,
                               active_[i].req.input_len +
                                   active_[i].generated)) {
                int victim = -1;
                for (size_t j = 0; j < active_.size(); ++j) {
                    if (j == i || gone[j])
                        continue;
                    if (victim < 0 ||
                        active_[j].req.priority >
                            active_[victim].req.priority ||
                        (active_[j].req.priority ==
                             active_[victim].req.priority &&
                         active_[j].admit_tick >
                             active_[victim].admit_tick))
                        victim = static_cast<int>(j);
                }
                ST_ASSERT(victim >= 0,
                          "paged growth wedged with no "
                          "preemption victim");
                preempt(static_cast<size_t>(victim));
            }
        }
        size_t keep = 0;
        for (size_t i = 0; i < active_.size(); ++i)
            if (!gone[i])
                active_[keep++] = std::move(active_[i]);
        active_.resize(keep);
    }

    // --- Admission from the queue head while the batch has
    // room and the head's *current* need (Paged) or final
    // reservation (Reserve) fits. Strictly head-of-line: a
    // blocked head is never jumped by a later request. A
    // sequence preempted this very iteration is not readmitted
    // in the same breath — the pressure that evicted it is
    // still standing. A draining engine admits nothing.
    while (!draining_ &&
           static_cast<int64_t>(active_.size()) <
               options_.max_batch &&
           !queue_.empty()) {
        const Request &head = queue_.front();
        if (std::find(preempted_now.begin(), preempted_now.end(),
                      head.id) != preempted_now.end())
            break;
        ActiveSeq seq;
        if (paged_) {
            auto rs = resume_state_.find(head.id);
            int64_t generated = rs != resume_state_.end()
                                    ? rs->second.generated
                                    : 0;
            pool_.bind(head.id, head.prefix_id, head.prefix_len);
            if (!pool_.grow(head.id, head.input_len + generated)) {
                pool_.release(head.id);
                break;
            }
            if (rs != resume_state_.end()) {
                seq.generated = rs->second.generated;
                seq.ever_prefilled = rs->second.ever_prefilled;
                seq.first_token_ms = rs->second.first_token_ms;
                seq.preemptions = rs->second.preemptions;
                seq.failovers = rs->second.failovers;
                resume_state_.erase(rs);
            }
        } else {
            int64_t reserve = reservedKv(head);
            ST_ASSERT(reserve >= 0, "unservable request queued");
            if (kv_in_use_ + reserve > options_.kv_budget_tokens)
                break;
            // Reserve admission never preempts, but a failover
            // can still hand this engine a part-done sequence.
            ResumeState state = takeResumeState(head);
            seq.generated = state.generated;
            seq.ever_prefilled = state.ever_prefilled;
            seq.first_token_ms = state.first_token_ms;
            seq.preemptions = state.preemptions;
            seq.failovers = state.failovers;
            seq.kv_reserved = reserve;
            kv_in_use_ += reserve;
        }
        seq.req = queue_.pop();
        seq.admit_tick = admit_ticks_++;
        active_.push_back(std::move(seq));
    }
    if (active_.empty() && draining_)
        return false; // residents done; queued work is not ours
    // active is non-empty: when it was empty, the pool (or
    // budget) was entirely free and every queued request's
    // current need fits it by the servability check.
    ST_ASSERT(!active_.empty(), "admission stalled");

    // Group the batch by bucketed shapes (map order keeps the
    // group sequence deterministic). An un-prefilled sequence
    // runs a prefill-shaped pass over its full context —
    // input_len for a fresh one, input_len + generated for a
    // readmitted one recomputing its dropped KV.
    std::map<models::BlockShapes, int64_t> shape_counts;
    for (const auto &seq : active_) {
        int64_t ctx = seq.req.input_len + seq.generated;
        models::BlockShapes shapes =
            seq.prefilled
                ? models::bucketedDecodeShapes(ctx,
                                               options_.buckets)
                : models::bucketedPrefillShapes(ctx,
                                                options_.buckets);
        ++shape_counts[shapes];
    }
    std::vector<runtime::StepGroup> groups;
    groups.reserve(shape_counts.size());
    for (const auto &[shapes, count] : shape_counts)
        groups.push_back({shapes, count});

    double step_ms = cost_->stepMs(groups);
    ST_CHECK(step_ms > 0.0,
             "cost model must advance simulated time");
    step_ms *= slow_factor_;

    // Cold start: a step launched while the weight stream is in
    // flight is gated on residency (overlapped per layer or held
    // to the stream's end — scheduler.h). The wait is charged to
    // the step itself, so completion timing, metrics, and records
    // all see it.
    double weights_wait_ms = 0.0;
    const WeightStreamPlan &stream = options_.cold_start.plan;
    if (!stream.empty() && now < stream.end_ms) {
        double gated_end = stream.gatedComputeEndMs(
            now, step_ms, options_.cold_start.overlap);
        weights_wait_ms =
            std::max(0.0, gated_end - (now + step_ms));
        step_ms += weights_wait_ms;
        result_.metrics.weight_stall_ms += weights_wait_ms;
    }

    pending_batch_ = static_cast<int64_t>(active_.size());
    pending_pages_active_ = paged_ ? pool_.activePages() : 0;
    if (options_.record_steps) {
        StepRecord record;
        record.start_ms = now;
        record.step_ms = step_ms;
        record.weights_wait_ms = weights_wait_ms;
        for (const auto &seq : active_)
            (seq.prefilled ? record.decode_ids
                           : record.prefill_ids)
                .push_back(seq.req.id);
        record.preempted_ids = preempted_now;
        if (paged_) {
            record.kv_reserved =
                pool_.activePages() * pool_.pageTokens();
            record.pages_active = pool_.activePages();
            record.pages_cached = pool_.cachedPages();
            record.pages_free = pool_.freePages();
        } else {
            record.kv_reserved = kv_in_use_;
        }
        record.queue_depth = queue_.size();
        pending_record_ = std::move(record);
    }

    busy_ = true;
    step_start_ms_ = now;
    step_ms_ = step_ms;
    return true;
}

void
ReplicaEngine::completeStep()
{
    ST_ASSERT(busy_, "completeStep() with no step in flight");
    double now = step_start_ms_ + step_ms_;
    ServingMetrics &metrics = result_.metrics;

    if (options_.record_steps) {
        result_.steps.push_back(std::move(pending_record_));
        pending_record_ = StepRecord{};
    }
    metrics.busy_ms += step_ms_;
    ++metrics.steps;
    metrics.total_batched_seqs += pending_batch_;
    if (paged_)
        metrics.page_step_sum += pending_pages_active_;

    // Token accounting: every step a sequence runs advances it
    // by one output token — the first prefill emits the first
    // token, a recompute prefill emits the next token its
    // preemption (or failover) interrupted, and each decode
    // emits one more. Finished sequences retire at this step's
    // end, releasing their pages / reservation.
    for (auto &seq : active_) {
        if (!seq.prefilled) {
            seq.prefilled = true;
            if (!seq.ever_prefilled) {
                seq.ever_prefilled = true;
                seq.first_token_ms = now;
            }
        }
        ++seq.generated;
        if (seq.generated == seq.req.output_len) {
            RequestMetrics done;
            done.id = seq.req.id;
            done.priority = seq.req.priority;
            done.input_len = seq.req.input_len;
            done.output_len = seq.req.output_len;
            done.arrival_ms = seq.req.arrival_ms;
            done.first_token_ms = seq.first_token_ms;
            done.finish_ms = now;
            done.preemptions = seq.preemptions;
            done.failovers = seq.failovers;
            done.replica = replica_id_;
            done.deadline_ms = seq.req.deadline_ms;
            metrics.recordCompletion(done, options_.metrics);
            if (paged_)
                pool_.release(seq.req.id);
            else
                kv_in_use_ -= seq.kv_reserved;
        }
    }
    active_.erase(
        std::remove_if(active_.begin(), active_.end(),
                       [](const ActiveSeq &seq) {
                           return seq.generated ==
                                  seq.req.output_len;
                       }),
        active_.end());

    busy_ = false;
}

std::vector<EvacuatedSeq>
ReplicaEngine::crash()
{
    // Abandon any in-flight step: its metrics, record, and token
    // progress were never committed, so the simulated work is
    // simply lost.
    busy_ = false;
    pending_record_ = StepRecord{};

    std::vector<EvacuatedSeq> out;
    out.reserve(active_.size() +
                static_cast<size_t>(queue_.size()));
    for (const auto &seq : active_) {
        ResumeState state;
        state.generated = seq.generated;
        state.ever_prefilled = seq.ever_prefilled;
        state.first_token_ms = seq.first_token_ms;
        state.preemptions = seq.preemptions;
        state.failovers = seq.failovers;
        out.push_back({seq.req, state});
    }
    active_.clear();
    for (const Request &r : queue_.drainAll())
        out.push_back({r, takeResumeState(r)});
    ST_ASSERT(resume_state_.empty(),
              "resume state for a request that was neither "
              "resident nor queued");

    // The pool's contents die with the replica — including
    // retained prefix pages — but its cumulative counters carry
    // over so finalize() reports whole-lifetime stats.
    pool_stats_base_.prefix_hit_pages +=
        pool_.stats().prefix_hit_pages;
    pool_stats_base_.prefix_miss_pages +=
        pool_.stats().prefix_miss_pages;
    pool_stats_base_.evicted_cached_pages +=
        pool_.stats().evicted_cached_pages;
    peak_pages_active_base_ =
        std::max(peak_pages_active_base_,
                 pool_.stats().peak_active_pages);
    pool_ = KvPool(poolOptionsFor(options_, paged_));
    kv_in_use_ = 0;
    return out;
}

std::vector<EvacuatedSeq>
ReplicaEngine::evacuateQueue()
{
    std::vector<EvacuatedSeq> out;
    out.reserve(static_cast<size_t>(queue_.size()));
    for (const Request &r : queue_.drainAll())
        out.push_back({r, takeResumeState(r)});
    ST_ASSERT(resume_state_.empty(),
              "resume state survived a queue evacuation");
    return out;
}

void
ReplicaEngine::finalize(double makespan_ms)
{
    // completed is maintained incrementally by recordCompletion()
    // — it must not be re-derived from requests.size(), which
    // undercounts whenever record retention is off.
    ServingMetrics &metrics = result_.metrics;
    metrics.in_flight = static_cast<int64_t>(active_.size());
    metrics.makespan_ms = makespan_ms;
    metrics.max_queue_depth = queue_.maxDepth();
    if (!options_.cold_start.plan.empty()) {
        metrics.weight_stream_ms =
            options_.cold_start.plan.streamMs();
        metrics.weight_bytes_streamed =
            options_.cold_start.plan.bytes_total;
    }
    if (paged_) {
        metrics.prefix_hit_pages =
            pool_stats_base_.prefix_hit_pages +
            pool_.stats().prefix_hit_pages;
        metrics.prefix_miss_pages =
            pool_stats_base_.prefix_miss_pages +
            pool_.stats().prefix_miss_pages;
        metrics.peak_pages_active =
            std::max(peak_pages_active_base_,
                     pool_.stats().peak_active_pages);
    }
}

} // namespace serving
} // namespace streamtensor
