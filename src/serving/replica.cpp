#include "serving/replica.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "support/error.h"

namespace streamtensor {
namespace serving {

namespace {

/** Largest context of the request's lifetime — its final decode
 *  step (see the convention note in replica.h). Only call it
 *  once maxContextWithin() has passed: the sum may overflow. */
int64_t
maxContext(const Request &r)
{
    return r.input_len + r.output_len - 1;
}

/** maxContext(r) <= @p limit, decided without forming the sum.
 *  Both lengths are >= 1 (FleetScheduler::run), so output_len - 1
 *  is non-negative and, once it is <= limit, limit minus it cannot
 *  overflow either. */
bool
maxContextWithin(const Request &r, int64_t limit)
{
    return r.output_len - 1 <= limit &&
           r.input_len <= limit - (r.output_len - 1);
}

KvPoolOptions
poolOptionsFor(const ReplicaOptions &options)
{
    KvPoolOptions pool_options;
    pool_options.page_tokens = options.page_tokens;
    pool_options.total_pages =
        options.kv_budget_tokens / options.page_tokens;
    return pool_options;
}

/** @p options, domain-checked: runs in the member initializers,
 *  ahead of the pool geometry that divides by page_tokens. */
const ReplicaOptions &
validated(const ReplicaOptions &options)
{
    validateReplicaOptions(options);
    return options;
}

} // namespace

void
validateReplicaOptions(const ReplicaOptions &options)
{
    ST_CHECK(options.max_batch >= 1, "need batch room");
    ST_CHECK(options.kv_budget_tokens >= 1, "need a KV budget");
    ST_CHECK(options.max_queue_depth >= 0, "queue depth domain");
    ST_CHECK(options.max_steps >= 1, "step limit domain");
    ST_CHECK(options.page_tokens >= 1, "page size domain");
    ST_CHECK(options.kv_budget_tokens >= options.page_tokens,
             "KV budget smaller than one page");
    // KvPool names its pages by int32_t id.
    ST_CHECK(options.kv_budget_tokens / options.page_tokens <=
                 std::numeric_limits<int32_t>::max(),
             "KV budget exceeds INT32_MAX pages");
    // Build and drop the ladder: a malformed or over-long bucket
    // policy fails here rather than at the first step.
    (void)models::bucketBoundaries(options.buckets);
}

ReplicaEngine::ReplicaEngine(const ReplicaOptions &options,
                             StepCostModel &cost, int replica_id)
    : options_(validated(options)),
      bucket_ladder_(models::bucketBoundaries(options_.buckets)),
      cost_(&cost), replica_id_(replica_id),
      queue_(options.max_queue_depth),
      pool_(poolOptionsFor(options_))
{
    result_.metrics.replicas = 1;
    result_.metrics.pool_pages = pool_.totalPages();
}

SimTime
ReplicaEngine::stepEnd() const
{
    ST_CHECK(busy_, "stepEnd() with no step in flight");
    return step_start_ + step_;
}

int64_t
ReplicaEngine::repeatSteps() const
{
    ST_CHECK(busy_, "repeatSteps() with no step in flight");
    const WeightStreamPlan &stream = options_.cold_start.plan;
    if (!queue_.empty() ||
        (!stream.empty() && step_start_ < toSimTime(stream.end_ms)))
        return 0;
    int64_t repeats = std::numeric_limits<int64_t>::max();
    for (const auto &seq : active_) {
        if (!seq.prefilled)
            return 0;
        // The in-flight step attends over `context`; repeat m over
        // context + m, which keeps the step's shape while it stays
        // in the bucket; it runs only while the sequence is
        // unfinished, generated + m < output_len.
        int64_t context = seq.req.input_len + seq.state.generated;
        repeats = std::min(
            {repeats,
             models::bucketIn(bucket_ladder_, context) - context,
             seq.req.output_len - seq.state.generated - 1});
    }
    // Repeat m first grows every resident to context + m. The run
    // holds while repeats 1..m together take at most the free list,
    // so its growth never reclaims a retained page or preempts. The
    // pages they take grow with m, so the largest such m is found by
    // bisection.
    auto fresh_pages = [this](int64_t m) {
        int64_t pages = 0;
        for (const auto &seq : active_)
            pages += std::max<int64_t>(
                0, pool_.pagesFor(seq.req.input_len +
                                  seq.state.generated + m) -
                       pool_.heldPages(seq.req.id));
        return pages;
    };
    int64_t free_pages = pool_.freePages();
    if (fresh_pages(repeats) <= free_pages)
        return repeats;
    int64_t fits = 0; // fresh_pages(fits) fits; repeats does not
    while (repeats - fits > 1) {
        int64_t mid = fits + (repeats - fits) / 2;
        if (fresh_pages(mid) <= free_pages)
            fits = mid;
        else
            repeats = mid;
    }
    return fits;
}

int64_t
ReplicaEngine::planRun(int64_t max_repeats)
{
    // The run's last step ends before kNever: wakeAt() cannot
    // overflow, and the launch after the run reports the overflow.
    run_left_ = max_repeats > 0
                    ? std::min({repeatSteps(), max_repeats,
                                (kNever - 1 - stepEnd()) / step_})
                    : 0;
    return run_left_;
}

void
ReplicaEngine::completeDue(SimTime now)
{
    if (!busy_)
        return;
    advanceRepeats(now);
    if (stepEnd() > now)
        return;
    ST_ASSERT(stepEnd() == now,
              "a step outside a decode run ended unseen");
    completeStep();
}

void
ReplicaEngine::advanceRepeats(SimTime before)
{
    // Step m of the run ends at stepEnd() + m * step_; count the m
    // from 0 whose end precedes `before`.
    SimTime ahead = before - stepEnd();
    if (ahead <= 0 || run_left_ == 0)
        return;
    int64_t repeats = std::min(run_left_, (ahead - 1) / step_ + 1);
    // Every resident stays prefilled and in its bucket, none
    // finishes, and the run's page growth fits the free list: each
    // repeat launches the same groups at the same cost.
    ST_ASSERT(repeats <= repeatSteps(),
              "a decode run outran its repeating steps");
    run_left_ -= repeats;

    // Segments end at the launches that grow a page. Within one, the
    // records launchStep() would build differ from the in-flight one
    // only in their start.
    for (int64_t done = 0; done < repeats;) {
        int64_t segment = repeats - done;
        for (const auto &seq : active_)
            segment = std::min(segment,
                               pool_.heldTokens(seq.req.id) -
                                   (seq.req.input_len +
                                    seq.state.generated) +
                                   1);
        ST_ASSERT(segment > 0, "a resident outgrew its pages");
        commitSteps(segment);
        done += segment;

        // The segment's last launch grows every resident, in
        // admission order as launchStep() does; repeatSteps() bounds
        // the run so the pages come off the free list.
        for (const auto &seq : active_) {
            bool grown = pool_.grow(seq.req.id, seq.req.input_len +
                                                    seq.state.generated);
            ST_ASSERT(grown, "a decode run outran the free list");
        }
        if (options_.record_steps) {
            pending_record_.pages_active = pool_.activePages();
            pending_record_.pages_cached = pool_.cachedPages();
            pending_record_.pages_free = pool_.freePages();
        }
    }
}

void
ReplicaEngine::commitSteps(int64_t k)
{
    if (options_.record_steps) {
        for (int64_t m = 0; m < k; ++m) {
            pending_record_.start_ms = toMs(step_start_ + m * step_);
            result_.steps.push_back(pending_record_);
        }
    }
    ServingMetrics &metrics = result_.metrics;
    busy_time_ += k * step_;
    metrics.busy_ms = toMs(busy_time_);
    metrics.steps += k;
    metrics.total_batched_seqs +=
        k * static_cast<int64_t>(active_.size());
    metrics.page_step_sum += k * pool_.activePages();
    for (auto &seq : active_)
        seq.state.generated += k;
    step_start_ += k * step_;
}

int64_t
ReplicaEngine::kvLoadTokens() const
{
    return pool_.activePages() * pool_.pageTokens() +
           queue_.queuedInputTokens();
}

bool
ReplicaEngine::servable(const Request &r) const
{
    // Servable when the final decode step's shape exists on the
    // bucket ladder and its page demand fits the whole pool (the
    // guarantee that a lone resident sequence can always grow, so
    // preemption terminates).
    return maxContextWithin(r, options_.buckets.max_len) &&
           pool_.pagesFor(maxContext(r)) <= pool_.totalPages();
}

void
ReplicaEngine::reject(const Request &r, RejectReason reason, SimTime at)
{
    result_.metrics.countRejection(reason);
    result_.rejected.push_back({r.id, r.arrival_ms, reason, toMs(at)});
}

void
ReplicaEngine::offer(const Request &r, SimTime now)
{
    ST_CHECK(servable(r) && !deadlinePassed(r, now) && !draining_,
             "offer() of a request the fleet must refuse");
    cutRun();
    // Callers ingest arrivals strictly in (arrival, id) order, so
    // result().rejected inherits that order no matter how many
    // arrivals one ingest round drains.
    if (!queue_.push(r))
        reject(r, RejectReason::QueueFull, now);
}

void
ReplicaEngine::readmit(const QueuedRequest &entry)
{
    cutRun();
    queue_.pushFront(entry);
}

void
ReplicaEngine::expireDeadlines(SimTime now)
{
    // A preempted request can expire too; its progress dies with
    // its queue entry.
    for (const QueuedRequest &expired : queue_.expireBefore(now))
        reject(expired.req, RejectReason::DeadlineExpired, now);
}

void
ReplicaEngine::setSlowFactor(double factor)
{
    ST_CHECK(factor > 0.0, "slow factor must be positive");
    cutRun();
    slow_factor_ = factor;
}

bool
ReplicaEngine::launchStep(SimTime now)
{
    ST_ASSERT(!busy_, "launchStep() with a step in flight");
    if (!hasWork())
        return false;

    // --- Growth: every resident sequence acquires the
    // pages its next step needs. Under pressure, preempt the
    // most-recently-admitted other sequence back to the front
    // of the queue and retry; termination is guaranteed because
    // a lone sequence's demand always fits the pool
    // (servable()).
    std::vector<int64_t> preempted_now;
    if (!active_.empty()) {
        gone_.assign(active_.size(), false);
        auto preempt = [&](size_t victim) {
            ActiveSeq &seq = active_[victim];
            // Growth runs before admission, and every resident has
            // completed a step since a crash last cleared the batch.
            ST_ASSERT(seq.prefilled,
                      "preempted a sequence before its first token");
            pool_.release(seq.req.id);
            ++seq.state.preemptions;
            queue_.pushFront({seq.req, seq.state});
            preempted_now.push_back(seq.req.id);
            ++result_.metrics.preemptions;
            gone_[victim] = true;
        };
        for (size_t i = 0; i < active_.size(); ++i) {
            if (gone_[i])
                continue;
            while (!pool_.grow(active_[i].req.id,
                               active_[i].req.input_len +
                                   active_[i].state.generated)) {
                int victim = -1;
                for (size_t j = 0; j < active_.size(); ++j) {
                    if (j == i || gone_[j])
                        continue;
                    if (victim < 0 ||
                        active_[j].admit_tick >
                            active_[victim].admit_tick)
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
            if (!gone_[i])
                active_[keep++] = std::move(active_[i]);
        active_.resize(keep);
    }

    // --- Admission from the queue head while the batch has
    // room and the head's *current* need fits. Strictly
    // head-of-line: a blocked head is never jumped by a later
    // request. A sequence preempted this very iteration is not
    // readmitted in the same breath — the pressure that evicted
    // it is still standing. A draining engine admits nothing.
    while (!draining_ &&
           static_cast<int64_t>(active_.size()) <
               options_.max_batch &&
           !queue_.empty()) {
        const QueuedRequest &head = queue_.front();
        const Request &r = head.req;
        if (std::find(preempted_now.begin(), preempted_now.end(),
                      r.id) != preempted_now.end())
            break;
        pool_.bind(r.id, r.prefix_id, r.prefix_len);
        if (!pool_.grow(r.id, r.input_len + head.state.generated)) {
            pool_.release(r.id);
            break;
        }
        QueuedRequest admitted = queue_.pop();
        ActiveSeq seq;
        seq.req = admitted.req;
        seq.state = admitted.state;
        seq.admit_tick = admit_ticks_++;
        active_.push_back(std::move(seq));
    }
    if (active_.empty() && draining_)
        return false; // residents done; queued work is not ours
    // active is non-empty: when it was empty, the pool was
    // entirely free and every queued request's current need fits
    // it by the servability check.
    ST_ASSERT(!active_.empty(), "admission stalled");

    // Group the batch by bucketed shapes, kept in ascending shape
    // order by sorted insertion into a buffer reused across steps
    // (no per-step allocation once it has grown). Each context is
    // bucketed by binary search over the engine's ladder. An
    // un-prefilled sequence runs a prefill-shaped pass over its
    // full context — input_len for a fresh one, input_len +
    // generated for a readmitted one recomputing its dropped KV.
    step_groups_.clear();
    for (const auto &seq : active_) {
        int64_t bucket = models::bucketIn(
            bucket_ladder_, seq.req.input_len + seq.state.generated);
        models::BlockShapes shapes =
            seq.prefilled ? models::decodeShapes(bucket)
                          : models::prefillShapes(bucket);
        auto pos = std::lower_bound(
            step_groups_.begin(), step_groups_.end(), shapes,
            [](const runtime::StepGroup &g,
               const models::BlockShapes &s) {
                return g.shapes < s;
            });
        if (pos != step_groups_.end() && pos->shapes == shapes)
            ++pos->count;
        else
            step_groups_.insert(pos, {shapes, 1});
    }

    // A repeat of the last costed step reuses its answer: the
    // oracle is a pure function of the groups (StepCostModel).
    if (cost_ != costed_by_ ||
        !std::equal(step_groups_.begin(), step_groups_.end(),
                    costed_groups_.begin(), costed_groups_.end(),
                    [](const runtime::StepGroup &a,
                       const runtime::StepGroup &b) {
                        return a.count == b.count &&
                               a.shapes == b.shapes;
                    })) {
        double fresh_ms = cost_->stepMs(step_groups_);
        ST_CHECK(fresh_ms > 0.0,
                 "cost model must advance simulated time");
        costed_groups_ = step_groups_;
        costed_by_ = cost_;
        costed_ms_ = fresh_ms;
    }
    // Whole nanoseconds, at least one, so the clock advances.
    SimTime step = std::max<SimTime>(1, toSimTime(costed_ms_ * slow_factor_));

    // Cold start: a step launched while the weight stream is in
    // flight is gated on residency (overlapped per layer or held
    // to the stream's end — ColdStartOptions). The wait is charged to
    // the step itself, so completion timing, metrics, and records
    // all see it.
    SimTime weights_wait = 0;
    const WeightStreamPlan &stream = options_.cold_start.plan;
    if (!stream.empty() && now < toSimTime(stream.end_ms)) {
        SimTime gated_end = toSimTime(stream.gatedComputeEndMs(
            toMs(now), toMs(step), options_.cold_start.overlap));
        weights_wait = std::max<SimTime>(0, gated_end - later(now, step));
        step += weights_wait;
        result_.metrics.weight_stall_ms += toMs(weights_wait);
    }
    (void)later(now, step);

    if (options_.record_steps) {
        StepRecord record;
        record.step_ms = toMs(step);
        record.weights_wait_ms = toMs(weights_wait);
        for (const auto &seq : active_)
            (seq.prefilled ? record.decode_ids
                           : record.prefill_ids)
                .push_back(seq.req.id);
        record.preempted_ids = preempted_now;
        record.pages_active = pool_.activePages();
        record.pages_cached = pool_.cachedPages();
        record.pages_free = pool_.freePages();
        record.queue_depth = queue_.size();
        pending_record_ = std::move(record);
    }

    busy_ = true;
    step_start_ = now;
    step_ = step;
    return true;
}

void
ReplicaEngine::completeStep()
{
    SimTime now = stepEnd();
    ServingMetrics &metrics = result_.metrics;

    // Token accounting: every step a sequence runs advances it
    // by one output token — the first prefill emits the first
    // token, a recompute prefill emits the next token its
    // preemption (or failover) interrupted, and each decode
    // emits one more. Finished sequences retire at this step's
    // end, releasing their pages.
    commitSteps(1);
    for (auto &seq : active_) {
        if (!seq.prefilled) {
            seq.prefilled = true;
            if (!seq.state.ever_prefilled) {
                seq.state.ever_prefilled = true;
                seq.state.first_token = now;
            }
        }
        if (seq.state.generated == seq.req.output_len) {
            RequestMetrics done;
            done.id = seq.req.id;
            done.input_len = seq.req.input_len;
            done.output_len = seq.req.output_len;
            done.arrival_ms = seq.req.arrival_ms;
            done.first_token_ms = toMs(seq.state.first_token);
            done.finish_ms = toMs(now);
            done.preemptions = seq.state.preemptions;
            done.failovers = seq.state.failovers;
            done.replica = replica_id_;
            done.deadline_ms = seq.req.deadline_ms;
            metrics.recordCompletion(done, options_.metrics);
            pool_.release(seq.req.id);
        }
    }
    active_.erase(
        std::remove_if(active_.begin(), active_.end(),
                       [](const ActiveSeq &seq) {
                           return seq.state.generated ==
                                  seq.req.output_len;
                       }),
        active_.end());

    busy_ = false;
    run_left_ = 0;
}

std::vector<QueuedRequest>
ReplicaEngine::crash()
{
    // Abandon any in-flight step and its run: its metrics, record,
    // and token progress were never committed, so the simulated
    // work is simply lost.
    busy_ = false;
    run_left_ = 0;

    std::vector<QueuedRequest> out;
    out.reserve(active_.size() +
                static_cast<size_t>(queue_.size()));
    for (const auto &seq : active_)
        out.push_back({seq.req, seq.state});
    active_.clear();
    for (QueuedRequest &queued : queue_.drainAll())
        out.push_back(std::move(queued));

    // The pool's contents die with the replica — including
    // retained prefix pages — but its cumulative counters carry
    // over so finalize() reports whole-lifetime stats.
    pool_.clear();
    return out;
}

void
ReplicaEngine::finalize(SimTime makespan)
{
    // completed is maintained incrementally by recordCompletion()
    // — it must not be re-derived from requests.size(), which
    // undercounts whenever record retention is off.
    ServingMetrics &metrics = result_.metrics;
    metrics.in_flight = static_cast<int64_t>(active_.size());
    metrics.makespan_ms = toMs(makespan);
    metrics.max_queue_depth = queue_.maxDepth();
    if (!options_.cold_start.plan.empty()) {
        metrics.weight_stream_ms =
            options_.cold_start.plan.streamMs();
        metrics.weight_bytes_streamed =
            options_.cold_start.plan.bytes_total;
    }
    metrics.prefix_hit_pages = pool_.stats().prefix_hit_pages;
    metrics.prefix_miss_pages = pool_.stats().prefix_miss_pages;
    metrics.peak_pages_active = pool_.stats().peak_active_pages;
}

} // namespace serving
} // namespace streamtensor
