#include "serving/reference_fleet.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <utility>

#include "models/bucketing.h"
#include "support/error.h"

namespace streamtensor {
namespace serving {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Progress a request carries between replicas (request.h's
 *  ResumeState, restated). */
struct Progress
{
    int64_t generated = 0;
    bool ever_prefilled = false;
    double first_token_ms = 0.0;
    int64_t preemptions = 0;
    int64_t failovers = 0;
};

/** A request waiting in a queue or the retry buffer. */
struct Waiting
{
    Request req;
    Progress progress;
};

/** A resident sequence. */
struct Resident
{
    Request req;
    Progress progress;
    bool prefilled = false; ///< its first step since admission ran
    int64_t admitted = 0;   ///< admission counter: preemption order
};

// ---- KV pages (kv_pool.h) -------------------------------------------

/** A shared prefix page: page @c second of prefix @c first. */
using PageKey = std::pair<int64_t, int64_t>;

/** The paged pool, as vTensor maps it: a shared prefix page is one
 *  physical page that any number of sequences map; a sequence's
 *  other pages are its own. Pages are counted, not named. */
struct Pool
{
    int64_t page_tokens = 1;
    int64_t total = 0;
    int64_t free = 0;

    /** Every shared page in memory -> sequences mapping it. A page
     *  mapped by none is retained, and listed in `retained` oldest
     *  release first. */
    std::map<PageKey, int64_t> shared;
    std::vector<PageKey> retained;

    struct Seq
    {
        int64_t prefix_id = 0;
        int64_t prefix_len = 0;
        std::vector<PageKey> shared; ///< positions 0.. in order
        int64_t own = 0;             ///< the positions after them
    };
    std::map<int64_t, Seq> seqs;

    int64_t hits = 0, misses = 0, peak_active = 0;

    int64_t pagesFor(int64_t tokens) const
    {
        return (tokens + page_tokens - 1) / page_tokens;
    }

    int64_t activePages() const
    {
        int64_t active = 0;
        for (const auto &[id, seq] : seqs)
            active += seq.own;
        for (const auto &[key, maps] : shared)
            active += maps > 0 ? 1 : 0;
        return active;
    }

    /** A fresh page: off the free list, else the oldest retained
     *  page, whose prefix content is forgotten. */
    void takePage()
    {
        if (free > 0) {
            --free;
            return;
        }
        ST_ASSERT(!retained.empty(), "reference pool overdrawn");
        shared.erase(retained.front());
        retained.erase(retained.begin());
    }

    /** Cover @p tokens of sequence @p id, all or nothing. */
    bool grow(int64_t id, int64_t tokens)
    {
        Seq &seq = seqs.at(id);
        int64_t have = static_cast<int64_t>(seq.shared.size()) + seq.own;
        int64_t want = pagesFor(tokens);
        // Shared pages are the ones wholly inside the prefix.
        int64_t prefix_pages =
            seq.prefix_id != 0 ? seq.prefix_len / page_tokens : 0;
        int64_t fresh = 0, revived = 0;
        for (int64_t pos = have; pos < want; ++pos) {
            auto hit = pos < prefix_pages
                           ? shared.find({seq.prefix_id, pos})
                           : shared.end();
            if (hit == shared.end())
                ++fresh;
            else if (hit->second == 0)
                ++revived;
        }
        int64_t retained_pages = static_cast<int64_t>(retained.size());
        if (fresh > free + retained_pages - revived)
            return false;
        for (int64_t pos = have; pos < want; ++pos) {
            PageKey key{seq.prefix_id, pos};
            auto hit = pos < prefix_pages ? shared.find(key)
                                          : shared.end();
            if (hit != shared.end()) {
                if (hit->second == 0)
                    retained.erase(std::find(retained.begin(),
                                             retained.end(), key));
                ++hit->second;
                ++hits;
                seq.shared.push_back(key);
                continue;
            }
            takePage();
            if (pos < prefix_pages) {
                shared[key] = 1;
                ++misses;
                seq.shared.push_back(key);
            } else {
                ++seq.own;
            }
        }
        peak_active = std::max(peak_active, activePages());
        return true;
    }

    /** Unmap every page of @p id, in position order. */
    void release(int64_t id)
    {
        Seq &seq = seqs.at(id);
        for (const PageKey &key : seq.shared)
            if (--shared.at(key) == 0)
                retained.push_back(key);
        free += seq.own;
        seqs.erase(id);
    }

    /** A crash: every page is lost, the counters stay. */
    void wipe()
    {
        free = total;
        shared.clear();
        retained.clear();
        seqs.clear();
    }
};

// ---- One replica (replica.h, scheduler.h) ---------------------------

struct Replica
{
    int id = 0;
    std::deque<Waiting> queue;
    int64_t queue_high_water = 0;
    std::vector<Resident> batch; ///< admission order
    int64_t admissions = 0;
    Pool pool;

    bool up = true;
    double up_since = 0.0;
    double reload_until = kInf;
    bool draining = false;
    double slow = 1.0;
    StepCostModel *cost = nullptr;

    bool busy = false;
    double step_start = 0.0;
    double step_ms = 0.0;
    int64_t step_batch = 0;
    int64_t step_pages = 0;
    StepRecord record;

    ServingResult result;

    bool hasWork() const { return !batch.empty() || !queue.empty(); }

    double stepEnd() const { return step_start + step_ms; }

    int64_t load() const
    {
        int64_t queued = 0;
        for (const Waiting &w : queue)
            queued += w.req.input_len;
        return pool.activePages() * pool.page_tokens + queued;
    }

    void noteQueueDepth()
    {
        queue_high_water = std::max(
            queue_high_water, static_cast<int64_t>(queue.size()));
    }

    void reject(const Request &r, RejectReason reason, double at)
    {
        result.metrics.countRejection(reason);
        result.rejected.push_back({r.id, r.arrival_ms, reason, at});
    }
};

class ReferenceFleet
{
  public:
    ReferenceFleet(const FleetOptions &options, StepCostModel &cost,
                   StepCostModel *degraded_cost,
                   std::vector<Request> trace)
        : options_(options), opts_(options.replica), cost_(cost),
          degraded_cost_(degraded_cost),
          ladder_(models::bucketBoundaries(options.replica.buckets)),
          arrivals_(std::move(trace)), faults_(options.faults.events)
    {
        std::stable_sort(arrivals_.begin(), arrivals_.end(),
                         [](const Request &a, const Request &b) {
                             return a.arrival_ms < b.arrival_ms ||
                                    (a.arrival_ms == b.arrival_ms &&
                                     a.id < b.id);
                         });
        std::stable_sort(faults_.begin(), faults_.end(),
                         [](const FaultEvent &a, const FaultEvent &b) {
                             return a.at_ms < b.at_ms;
                         });
        replicas_.resize(static_cast<size_t>(options.num_replicas));
        for (size_t i = 0; i < replicas_.size(); ++i) {
            Replica &rep = replicas_[i];
            rep.id = static_cast<int>(i);
            rep.cost = &cost_;
            rep.pool.page_tokens = opts_.page_tokens;
            rep.pool.total = opts_.kv_budget_tokens / opts_.page_tokens;
            rep.pool.free = rep.pool.total;
            rep.result.metrics.replicas = 1;
            rep.result.metrics.pool_pages = rep.pool.total;
        }
        result_.metrics.replica_up_ms.assign(replicas_.size(), 0.0);
    }

    FleetResult run()
    {
        // Each instant runs fleet.h's phases in order: completions,
        // faults (with reload windows ending by now rejoining first),
        // arrivals, deadline sweeps, due retries, launches.
        while (true) {
            ++result_.rounds;
            for (Replica &rep : replicas_)
                if (rep.busy && rep.stepEnd() <= now_)
                    completeStep(rep);
            rejoinReloaded();
            while (next_fault_ < faults_.size() &&
                   faults_[next_fault_].at_ms <= now_)
                applyFault(faults_[next_fault_++]);
            rejoinReloaded();
            while (next_arrival_ < arrivals_.size() &&
                   arrivals_[next_arrival_].arrival_ms <= now_)
                dispatch(arrivals_[next_arrival_++]);
            for (Replica &rep : replicas_)
                expireQueue(rep);
            expireRetries();
            redispatchDue();
            for (Replica &rep : replicas_) {
                if (!rep.up || rep.busy)
                    continue;
                launchStep(rep);
                ST_ASSERT(rep.busy || !rep.hasWork() || rep.draining,
                          "reference replica refused its work");
            }

            int64_t steps = 0;
            bool work_left = !retry_.empty() ||
                             next_arrival_ < arrivals_.size();
            for (const Replica &rep : replicas_) {
                steps += rep.result.metrics.steps;
                work_left = work_left || rep.busy || rep.hasWork();
            }
            if (steps >= opts_.max_steps && work_left) {
                result_.hit_step_limit = true;
                break;
            }
            if (!work_left)
                break;
            double next = nextInstant();
            if (next == kInf) {
                for (const auto &[key, w] : retry_)
                    lose(w);
                retry_.clear();
                break;
            }
            ST_ASSERT(next > now_, "reference clock stalled");
            now_ = next;
        }
        finish();
        return std::move(result_);
    }

  private:
    // ---- Steps ------------------------------------------------------

    void preempt(Replica &rep, size_t victim,
                 std::vector<bool> &gone)
    {
        Resident &seq = rep.batch[victim];
        // Growth runs before admission, and every resident has
        // completed a step since a crash last cleared the batch.
        ST_ASSERT(seq.prefilled,
                  "preempted a sequence before its first token");
        rep.pool.release(seq.req.id);
        ++seq.progress.preemptions;
        ++rep.result.metrics.preemptions;
        rep.queue.push_front({seq.req, seq.progress});
        rep.noteQueueDepth();
        rep.record.preempted_ids.push_back(seq.req.id);
        gone[victim] = true;
    }

    void launchStep(Replica &rep)
    {
        if (!rep.hasWork())
            return;
        rep.record = StepRecord{};

        // Growth, in admission order; under pressure the most
        // recently admitted other resident goes back to the queue.
        std::vector<bool> gone(rep.batch.size(), false);
        for (size_t i = 0; i < rep.batch.size(); ++i) {
            if (gone[i])
                continue;
            const Resident &seq = rep.batch[i];
            while (!rep.pool.grow(seq.req.id, seq.req.input_len +
                                                  seq.progress.generated)) {
                size_t victim = rep.batch.size();
                for (size_t j = 0; j < rep.batch.size(); ++j)
                    if (j != i && !gone[j] &&
                        (victim == rep.batch.size() ||
                         rep.batch[j].admitted >
                             rep.batch[victim].admitted))
                        victim = j;
                ST_ASSERT(victim < rep.batch.size(),
                          "reference growth without a victim");
                preempt(rep, victim, gone);
            }
        }
        std::vector<Resident> kept;
        for (size_t i = 0; i < rep.batch.size(); ++i)
            if (!gone[i])
                kept.push_back(rep.batch[i]);
        rep.batch = std::move(kept);

        // Head-of-line admission; never this step's own victims.
        const std::vector<int64_t> &victims = rep.record.preempted_ids;
        while (!rep.draining &&
               static_cast<int64_t>(rep.batch.size()) < opts_.max_batch &&
               !rep.queue.empty()) {
            const Waiting &head = rep.queue.front();
            if (std::count(victims.begin(), victims.end(),
                           head.req.id) > 0)
                break;
            rep.pool.seqs[head.req.id] = {head.req.prefix_id,
                                          head.req.prefix_len, {}, 0};
            if (!rep.pool.grow(head.req.id, head.req.input_len +
                                                head.progress.generated)) {
                rep.pool.seqs.erase(head.req.id);
                break;
            }
            rep.batch.push_back({head.req, head.progress, false,
                                 rep.admissions++});
            rep.queue.pop_front();
        }
        if (rep.batch.empty() && rep.draining)
            return;
        ST_ASSERT(!rep.batch.empty(), "reference admission stalled");

        // Shape groups in ascending shape order.
        std::map<models::BlockShapes, int64_t> counts;
        for (const Resident &seq : rep.batch) {
            int64_t bucket = models::bucketIn(
                ladder_, seq.req.input_len + seq.progress.generated);
            ++counts[seq.prefilled ? models::decodeShapes(bucket)
                                   : models::prefillShapes(bucket)];
        }
        std::vector<runtime::StepGroup> groups;
        for (const auto &[shapes, count] : counts)
            groups.push_back({shapes, count});
        double oracle_ms = rep.cost->stepMs(groups);
        ST_CHECK(oracle_ms > 0.0, "cost model must advance time");
        double step_ms = oracle_ms * rep.slow;

        double wait_ms = 0.0;
        const WeightStreamPlan &stream = opts_.cold_start.plan;
        if (!stream.empty() && now_ < stream.end_ms) {
            double gated = stream.gatedComputeEndMs(
                now_, step_ms, opts_.cold_start.overlap);
            wait_ms = std::max(0.0, gated - (now_ + step_ms));
            step_ms += wait_ms;
            rep.result.metrics.weight_stall_ms += wait_ms;
        }
        ST_CHECK(now_ + step_ms > now_,
                 "step cost vanishes against the simulated clock");

        rep.busy = true;
        rep.step_start = now_;
        rep.step_ms = step_ms;
        rep.step_batch = static_cast<int64_t>(rep.batch.size());
        rep.step_pages = rep.pool.activePages();
        if (opts_.record_steps) {
            rep.record.start_ms = now_;
            rep.record.step_ms = step_ms;
            rep.record.weights_wait_ms = wait_ms;
            for (const Resident &seq : rep.batch)
                (seq.prefilled ? rep.record.decode_ids
                               : rep.record.prefill_ids)
                    .push_back(seq.req.id);
            rep.record.pages_active = rep.step_pages;
            rep.record.pages_cached =
                static_cast<int64_t>(rep.pool.retained.size());
            rep.record.pages_free = rep.pool.free;
            rep.record.queue_depth =
                static_cast<int64_t>(rep.queue.size());
        }
    }

    void completeStep(Replica &rep)
    {
        double end = rep.stepEnd();
        ServingMetrics &m = rep.result.metrics;
        if (opts_.record_steps)
            rep.result.steps.push_back(rep.record);
        m.busy_ms += rep.step_ms;
        ++m.steps;
        m.total_batched_seqs += rep.step_batch;
        m.page_step_sum += rep.step_pages;

        std::vector<Resident> running;
        for (Resident &seq : rep.batch) {
            Progress &p = seq.progress;
            seq.prefilled = true;
            if (!p.ever_prefilled) {
                p.ever_prefilled = true;
                p.first_token_ms = end;
            }
            ++p.generated;
            if (p.generated < seq.req.output_len) {
                running.push_back(seq);
                continue;
            }
            RequestMetrics done;
            done.id = seq.req.id;
            done.input_len = seq.req.input_len;
            done.output_len = seq.req.output_len;
            done.arrival_ms = seq.req.arrival_ms;
            done.first_token_ms = p.first_token_ms;
            done.finish_ms = end;
            done.preemptions = p.preemptions;
            done.failovers = p.failovers;
            done.replica = rep.id;
            done.deadline_ms = seq.req.deadline_ms;
            m.recordCompletion(done, opts_.metrics);
            rep.pool.release(seq.req.id);
        }
        rep.batch = std::move(running);
        rep.busy = false;
    }

    /** Every resident (admission order), then every queued request:
     *  the in-flight step and all KV are lost. */
    std::vector<Waiting> evacuate(Replica &rep)
    {
        rep.busy = false;
        std::vector<Waiting> out;
        for (const Resident &seq : rep.batch)
            out.push_back({seq.req, seq.progress});
        for (const Waiting &w : rep.queue)
            out.push_back(w);
        rep.batch.clear();
        rep.queue.clear();
        rep.pool.wipe();
        return out;
    }

    // ---- Routing, retries, deadlines (fleet.h) ------------------------

    bool servable(const Request &r) const
    {
        int64_t context = r.input_len + r.output_len - 1;
        int64_t pages = (context + opts_.page_tokens - 1) / opts_.page_tokens;
        return context <= opts_.buckets.max_len &&
               pages <= replicas_[0].pool.total;
    }

    /** Least KV load among up, undrained replicas; ties to the
     *  shallower queue, then the lower id. */
    Replica *route()
    {
        Replica *best = nullptr;
        for (Replica &rep : replicas_) {
            if (!rep.up || rep.draining)
                continue;
            if (best == nullptr || rep.load() < best->load() ||
                (rep.load() == best->load() &&
                 rep.queue.size() < best->queue.size()))
                best = &rep;
        }
        return best;
    }

    void rejectAtFleet(const Request &r, RejectReason reason)
    {
        result_.metrics.countRejection(reason);
        result_.rejected.push_back({r.id, r.arrival_ms, reason, now_});
    }

    void lose(const Waiting &w)
    {
        ++result_.metrics.requests_lost;
        result_.lost.push_back({w.req.id, now_, w.progress.failovers});
    }

    void park(double ready, const Waiting &w)
    {
        retry_[{ready, w.req.id}] = w;
    }

    void dispatch(const Request &r)
    {
        if (!servable(r)) {
            rejectAtFleet(r, RejectReason::TooLong);
            return;
        }
        if (r.deadline_ms > 0.0 && r.deadline_ms <= now_) {
            rejectAtFleet(r, RejectReason::DeadlineExpired);
            return;
        }
        Replica *target = route();
        if (target == nullptr) {
            park(now_, {r, Progress{}});
            return;
        }
        if (opts_.max_queue_depth > 0 &&
            static_cast<int64_t>(target->queue.size()) >=
                opts_.max_queue_depth) {
            target->reject(r, RejectReason::QueueFull, now_);
            return;
        }
        target->queue.push_back({r, Progress{}});
        target->noteQueueDepth();
    }

    void expireQueue(Replica &rep)
    {
        std::deque<Waiting> kept;
        for (const Waiting &w : rep.queue) {
            if (w.req.deadline_ms > 0.0 && w.req.deadline_ms <= now_)
                rep.reject(w.req, RejectReason::DeadlineExpired, now_);
            else
                kept.push_back(w);
        }
        rep.queue = std::move(kept);
    }

    void expireRetries()
    {
        for (auto it = retry_.begin(); it != retry_.end();) {
            const Request &r = it->second.req;
            if (r.deadline_ms > 0.0 && r.deadline_ms <= now_) {
                rejectAtFleet(r, RejectReason::DeadlineExpired);
                it = retry_.erase(it);
            } else {
                ++it;
            }
        }
    }

    /** Due entries, latest (ready, id) first, each to the front of
     *  its target's queue, so earlier ones end up nearer the head. */
    void redispatchDue()
    {
        if (route() == nullptr)
            return;
        std::vector<Waiting> due;
        for (auto it = retry_.begin();
             it != retry_.end() && it->first.first <= now_;) {
            due.push_back(it->second);
            it = retry_.erase(it);
        }
        for (auto w = due.rbegin(); w != due.rend(); ++w) {
            Replica *target = route();
            target->queue.push_front(*w);
            target->noteQueueDepth();
        }
    }

    double backoffMs(int64_t attempts) const
    {
        double ms = options_.retry_backoff_ms;
        for (int64_t k = 1; k < attempts; ++k)
            ms *= 2.0;
        return ms;
    }

    // ---- Faults (fault.h, fleet.h) ------------------------------------

    void goDown(Replica &rep)
    {
        rep.up = false;
        result_.metrics.replica_up_ms[static_cast<size_t>(rep.id)] +=
            now_ - rep.up_since;
        if (rep.busy)
            ++result_.metrics.aborted_steps;
        rep.draining = false;
    }

    void startReload(Replica &rep, double window)
    {
        rep.reload_until = now_ + window;
        ++result_.metrics.reloads;
        result_.metrics.reload_ms_total += window;
    }

    void rejoinReloaded()
    {
        for (Replica &rep : replicas_) {
            if (rep.up || rep.reload_until > now_)
                continue;
            rep.up = true;
            rep.up_since = now_;
            rep.reload_until = kInf;
        }
    }

    void applyFault(const FaultEvent &e)
    {
        FleetMetrics &fm = result_.metrics;
        Replica &rep = replicas_[static_cast<size_t>(e.replica)];
        switch (e.kind) {
        case FaultKind::Crash:
            if (!rep.up)
                break;
            goDown(rep);
            ++fm.crashes;
            rep.slow = 1.0;
            rep.cost = &cost_;
            for (Waiting &w : evacuate(rep)) {
                ++w.progress.failovers;
                ++fm.failovers;
                if (w.progress.failovers > options_.max_retries)
                    lose(w);
                else
                    park(now_ + backoffMs(w.progress.failovers), w);
            }
            break;
        case FaultKind::Recover:
            if (rep.up || rep.reload_until < kInf)
                break;
            ++fm.recoveries;
            if (options_.recovery_reload_ms > 0.0) {
                startReload(rep, options_.recovery_reload_ms);
            } else {
                rep.up = true;
                rep.up_since = now_;
            }
            break;
        case FaultKind::SlowStart:
            rep.slow = e.factor;
            ++fm.slowdowns;
            break;
        case FaultKind::SlowEnd:
            rep.slow = 1.0;
            break;
        case FaultKind::DegradeStart:
            if (degraded_cost_ != nullptr) {
                rep.cost = degraded_cost_;
                ++fm.degrades;
            }
            break;
        case FaultKind::DegradeEnd:
            rep.cost = &cost_;
            break;
        case FaultKind::DrainStart:
            if (rep.up && !rep.draining) {
                rep.draining = true;
                ++fm.drains;
                for (const Waiting &w : rep.queue)
                    park(now_, w);
                rep.queue.clear();
            }
            break;
        case FaultKind::DrainEnd:
            rep.draining = false;
            break;
        case FaultKind::Swap:
            if (!rep.up)
                break;
            goDown(rep);
            ++fm.swaps;
            for (const Waiting &w : evacuate(rep))
                park(now_, w);
            startReload(rep, options_.recovery_reload_ms);
            break;
        }
    }

    // ---- The clock ----------------------------------------------------

    double nextInstant() const
    {
        double next = kInf;
        if (next_fault_ < faults_.size())
            next = std::min(next, faults_[next_fault_].at_ms);
        if (next_arrival_ < arrivals_.size())
            next = std::min(next, arrivals_[next_arrival_].arrival_ms);
        for (const Replica &rep : replicas_) {
            if (rep.busy)
                next = std::min(next, rep.stepEnd());
            if (rep.reload_until > now_)
                next = std::min(next, rep.reload_until);
        }
        for (const auto &[key, w] : retry_) {
            if (key.first > now_)
                next = std::min(next, key.first);
            if (w.req.deadline_ms > now_)
                next = std::min(next, w.req.deadline_ms);
        }
        return next;
    }

    void finish()
    {
        FleetMetrics &fm = result_.metrics;
        for (Replica &rep : replicas_) {
            if (rep.up)
                fm.replica_up_ms[static_cast<size_t>(rep.id)] +=
                    now_ - rep.up_since;
            ServingMetrics &m = rep.result.metrics;
            m.in_flight = static_cast<int64_t>(rep.batch.size());
            m.makespan_ms = now_;
            m.max_queue_depth = rep.queue_high_water;
            const WeightStreamPlan &stream = opts_.cold_start.plan;
            if (!stream.empty()) {
                m.weight_stream_ms = stream.end_ms - stream.start_ms;
                m.weight_bytes_streamed = stream.bytes_total;
            }
            m.prefix_hit_pages = rep.pool.hits;
            m.prefix_miss_pages = rep.pool.misses;
            m.peak_pages_active = rep.pool.peak_active;
            fm.merge(m);
            result_.rejected.insert(result_.rejected.end(),
                                    rep.result.rejected.begin(),
                                    rep.result.rejected.end());
            result_.replicas.push_back(std::move(rep.result));
        }
        std::stable_sort(fm.requests.begin(), fm.requests.end(),
                         [](const RequestMetrics &a,
                            const RequestMetrics &b) {
                             return a.finish_ms < b.finish_ms ||
                                    (a.finish_ms == b.finish_ms &&
                                     a.id < b.id);
                         });
        std::stable_sort(result_.rejected.begin(),
                         result_.rejected.end(),
                         [](const RejectedRequest &a,
                            const RejectedRequest &b) {
                             return a.at_ms < b.at_ms ||
                                    (a.at_ms == b.at_ms && a.id < b.id);
                         });
    }

    const FleetOptions &options_;
    const SchedulerOptions &opts_;
    StepCostModel &cost_;
    StepCostModel *degraded_cost_;
    std::vector<int64_t> ladder_;

    std::vector<Request> arrivals_;
    size_t next_arrival_ = 0;
    std::vector<FaultEvent> faults_;
    size_t next_fault_ = 0;

    std::vector<Replica> replicas_;

    /** The retry buffer, in dispatch order: (ready, id). */
    std::map<std::pair<double, int64_t>, Waiting> retry_;

    double now_ = 0.0;
    FleetResult result_;
};

} // namespace

FleetResult
runReferenceFleet(const FleetOptions &options, StepCostModel &cost,
                  StepCostModel *degraded_cost, std::vector<Request> trace)
{
    return ReferenceFleet(options, cost, degraded_cost, std::move(trace))
        .run();
}

} // namespace serving
} // namespace streamtensor
