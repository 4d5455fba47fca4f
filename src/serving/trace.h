/**
 * @file
 * Seeded arrival-trace generators for the serving simulator:
 * Poisson (open-loop steady traffic), bursty (on/off modulated
 * Poisson — the "heavy traffic" shape real frontends see), and
 * replay (hand-written or captured traces).
 *
 * Distribution transforms are hand-rolled on top of
 * std::mt19937_64 (whose output is specified bit-exactly by the
 * standard) instead of <random> distributions (whose mapping is
 * implementation-defined), so every platform generates the
 * identical trace for a given seed — a precondition for the
 * deterministic replay suite.
 *
 * **Generator determinism.** TraceGenerator is the pull-iterator
 * form of the same processes: poissonTrace()/burstyTrace() are
 * now literally take-all loops over it, so for a given
 * (shape, options) the generator's request stream is bit-identical
 * to the materialized vector, element for element — pinned by the
 * differential suite. Million-request sweeps feed the scheduler
 * from the generator directly and never hold the trace in memory;
 * both forms draw from one seeded mt19937_64 in one fixed order,
 * so mixing them (e.g. validating a generator run against a
 * vector run) compares identical streams.
 */

#ifndef STREAMTENSOR_SERVING_TRACE_H
#define STREAMTENSOR_SERVING_TRACE_H

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "serving/request.h"

namespace streamtensor {
namespace serving {

/** Knobs shared by the trace generators. */
struct TraceOptions
{
    int64_t num_requests = 64;
    uint64_t seed = 1;

    /** Mean inter-arrival gap of the base Poisson process. */
    double mean_interarrival_ms = 50.0;

    /** Request length ranges (uniform, inclusive). */
    int64_t min_input_len = 8;
    int64_t max_input_len = 96;
    int64_t min_output_len = 4;
    int64_t max_output_len = 48;

    /** Priority classes drawn uniformly from [0, num_priorities). */
    int num_priorities = 1;

    /** Shared system-prompt modeling: when num_prefix_groups > 0,
     *  each request draws a prefix group uniformly and its prompt
     *  becomes shared_prefix_len common leading tokens (identical
     *  across the group — one physical copy under paged KV) plus
     *  its drawn input length. 0 disables and leaves traces
     *  bit-identical to pre-prefix generators. */
    int64_t num_prefix_groups = 0;
    int64_t shared_prefix_len = 0;

    /** Deadline modeling: when positive, every request gets
     *  deadline_ms = arrival_ms + deadline_slack_ms. Deterministic
     *  (no RNG draw), so enabling it never perturbs the other
     *  drawn fields and the default (0 = no deadlines) leaves
     *  traces bit-identical to older generators. */
    double deadline_slack_ms = 0.0;

    /** Bursty modulation: the arrival rate alternates between a
     *  burst phase (gap / burst_factor) lasting
     *  burst_duty * burst_period_ms and a quiet phase. Used by
     *  burstyTrace only. */
    double burst_period_ms = 2000.0;
    double burst_duty = 0.25;
    double burst_factor = 8.0;
};

/** Open-loop Poisson arrivals: exponential inter-arrival gaps at
 *  the mean rate, uniform lengths and priorities. Sorted by
 *  arrival time; ids are 0..n-1 in arrival order. */
std::vector<Request> poissonTrace(const TraceOptions &options);

/** On/off bursty arrivals: Poisson whose rate is multiplied by
 *  burst_factor inside periodic burst windows. Stresses queue
 *  growth and tail latency. */
std::vector<Request> burstyTrace(const TraceOptions &options);

/** The arrival process behind a TraceGenerator. */
enum class TraceShape
{
    Poisson,
    Bursty,
};

/** Lazy pull-iterator over a seeded arrival process. Yields the
 *  exact request stream of poissonTrace()/burstyTrace() for the
 *  same options (see the generator-determinism note above) one
 *  request at a time — O(1) memory however long the trace, which
 *  is what lets a 10M-request sweep run without materializing a
 *  10M-element vector.
 *
 *  The stream is sorted and valid by construction: arrivals are
 *  non-decreasing (gaps are >= 0), ids are 0..n-1 in arrival
 *  order, and the options were domain-checked at construction —
 *  the properties sortAndValidateTrace() establishes for caller-
 *  supplied vectors, which is why the scheduler's generator
 *  overloads skip that O(n log n) pass. */
class TraceGenerator
{
  public:
    TraceGenerator(TraceShape shape, const TraceOptions &options);

    const TraceOptions &options() const { return options_; }

    /** All num_requests requests have been consumed. */
    bool exhausted() const
    {
        return emitted_ >= options_.num_requests && !staged_;
    }

    /** Requests handed out by next() so far. */
    int64_t emitted() const
    {
        return emitted_ - (staged_ ? 1 : 0);
    }

    /** The request next() will return, without consuming it (the
     *  draw happens here; peeking never perturbs the stream).
     *  !exhausted() only. */
    const Request &peek();

    /** Consume and return the next request. !exhausted() only. */
    Request next();

  private:
    void stage();

    TraceShape shape_;
    TraceOptions options_;
    std::mt19937_64 rng_;
    double now_ = 0.0;
    int64_t emitted_ = 0; ///< requests drawn (staged included)
    bool staged_ = false;
    Request staged_request_;
};

/** Uniform arrival source for the serving event loop: either a
 *  (sorted, validated) materialized trace or a TraceGenerator,
 *  consumed strictly in (arrival, id) order. The referenced trace
 *  or generator must outlive the cursor. */
class ArrivalCursor
{
  public:
    /** @p trace must already be in (arrival, id) order. */
    explicit ArrivalCursor(const std::vector<Request> &trace)
        : trace_(&trace)
    {}

    explicit ArrivalCursor(TraceGenerator &generator)
        : generator_(&generator)
    {}

    bool exhausted() const
    {
        return trace_ ? index_ >= trace_->size()
                      : generator_->exhausted();
    }

    /** Arrival instant of the next request. !exhausted() only. */
    double nextArrivalMs()
    {
        return trace_ ? (*trace_)[index_].arrival_ms
                      : generator_->peek().arrival_ms;
    }

    /** Consume the next request. !exhausted() only. */
    Request take()
    {
        return trace_ ? (*trace_)[index_++] : generator_->next();
    }

  private:
    const std::vector<Request> *trace_ = nullptr;
    size_t index_ = 0;
    TraceGenerator *generator_ = nullptr;
};

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_TRACE_H
