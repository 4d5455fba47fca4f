/**
 * @file
 * Serving metrics: per-request records (arrival, first token,
 * finish) plus aggregates the scheduler accumulates step by step
 * — throughput, TTFT, time-between-tokens, latency percentiles,
 * queue depth, accelerator utilization, and (under paged KV
 * admission) page occupancy, preemption, and prefix-reuse
 * counters. Everything derives from simulated time, so repeated
 * runs aggregate identically.
 *
 * **Record retention.** Historically every completed request left
 * a RequestMetrics record in `requests`, and every percentile
 * query copied and sorted the whole vector — O(n) memory and
 * O(n log n) per query, which is what capped sweeps at ~100k
 * requests. Retention is now governed by MetricsOptions
 * (SchedulerOptions::metrics): records are kept by default up to
 * auto_record_limit completions (so every existing test and its
 * exact percentiles are untouched) and dropped beyond it, at
 * which point the accessors answer from streaming state instead —
 * a deterministic QuantileSketch per latency/TTFT plus running
 * sums — making a 10M-request run O(sketch) memory. The
 * `records_complete` flag says which regime a result is in; exact
 * queries on complete records now sort once into a cache instead
 * of once per query (see percentile()).
 *
 * **Partial-run accounting.** When a run stops at the step limit
 * (`ServingResult::hit_step_limit`), `requests` holds only the
 * sequences that *completed*, while the step-derived aggregates —
 * `steps`, `busy_ms`, `total_batched_seqs`, and therefore
 * `meanBatchSize()` / `utilization()` / `pageUtilization()` —
 * cover every executed step, including work done for the
 * `in_flight` sequences that never finished. The two views are
 * deliberately split rather than reconciled: per-request metrics
 * answer "what did completed requests experience", step metrics
 * answer "what did the accelerator do". On a run that drains
 * normally, `in_flight == 0` and the views agree.
 */

#ifndef STREAMTENSOR_SERVING_METRICS_H
#define STREAMTENSOR_SERVING_METRICS_H

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "serving/quantile_sketch.h"
#include "serving/request.h"

namespace streamtensor {
namespace serving {

/** Per-request record retention policy (SchedulerOptions::
 *  metrics). Streaming aggregates — counters, running sums, and
 *  the quantile sketches — are always maintained; this only
 *  decides whether the full RequestMetrics vector is kept
 *  alongside them. */
struct MetricsOptions
{
    enum class KeepRecords
    {
        /** Keep records up to auto_record_limit completions, then
         *  drop them all and answer from the sketches — small runs
         *  stay exact, million-request sweeps stay bounded. */
        Auto,

        Always, ///< keep every record regardless of run size
        Never,  ///< streaming aggregates only, O(sketch) memory
    };

    KeepRecords keep_records = KeepRecords::Auto;

    /** Completions beyond which Auto drops the record vector. */
    int64_t auto_record_limit = 100000;
};

/** Lifecycle timestamps of one completed request. */
struct RequestMetrics
{
    int64_t id = 0;
    int priority = 0;
    int64_t input_len = 0;
    int64_t output_len = 0;
    double arrival_ms = 0.0;

    /** End of the step that ran this request's prefill (the first
     *  output token exists from here). Preemption does not reset
     *  it: a recompute prefill re-derives KV, not the already
     *  emitted first token. */
    double first_token_ms = 0.0;

    /** End of the step that produced the last output token. */
    double finish_ms = 0.0;

    /** Times the request was preempted back to the queue. */
    int64_t preemptions = 0;

    /** Times the request failed over to another replica after a
     *  crash or drain evacuation (0 outside the fleet tier). */
    int64_t failovers = 0;

    /** Replica the request *finished* on (0 in the single-replica
     *  scheduler). */
    int replica = 0;

    /** Absolute deadline copied from the request (0 = none). */
    double deadline_ms = 0.0;

    /** True when a deadline existed and the request finished past
     *  it (it still completed — resident sequences are never
     *  expired, see Request::deadline_ms). */
    bool missedDeadline() const
    {
        return deadline_ms > 0.0 && finish_ms > deadline_ms;
    }

    double ttftMs() const { return first_token_ms - arrival_ms; }
    double latencyMs() const { return finish_ms - arrival_ms; }

    /** Mean gap between output tokens after the first. Zero for
     *  single-token outputs (which must finish at their first
     *  token — asserted by tbtMeanMs()). */
    double tbtMs() const
    {
        return output_len > 1 ? (finish_ms - first_token_ms) /
                                    static_cast<double>(
                                        output_len - 1)
                              : 0.0;
    }
};

/** Nearest-rank percentile (p in [0, 100]) of @p values.
 *  std::nullopt on an empty sample set — an empty window is not a
 *  percentile of 0.0, and callers that want a sentinel must pick
 *  one explicitly (the ServingMetrics accessors document NaN).
 *
 *  Takes the sample by value and sorts it: O(n log n) per call,
 *  deliberately — it is the one-shot convenience entry point.
 *  Callers querying several percentiles of the same sample sort
 *  once and use percentileOfSorted() (the ServingMetrics
 *  accessors do, via a cached sorted view); callers with millions
 *  of samples should not be holding them at all (QuantileSketch /
 *  MetricsOptions). */
std::optional<double> percentile(std::vector<double> values,
                                 double p);

/** Nearest-rank percentile of an already ascending-sorted sample:
 *  O(1), same convention and empty-set contract as
 *  percentile(). */
std::optional<double>
percentileOfSorted(const std::vector<double> &sorted, double p);

/** Sort-once cache of one per-request sample (latency, TTFT)
 *  behind the percentile accessors of ServingMetrics and
 *  FleetMetrics. The sorted view is rebuilt only when the
 *  (revision, records.size()) key moves: owners bump the revision
 *  on every mutation of their records, so a query followed by more
 *  completions always re-answers from the updated window — keying
 *  on size alone would miss any size-preserving mutation
 *  (regression-tested query-record-query). */
class SortedSampleCache
{
  public:
    using Sample = double (RequestMetrics::*)() const;

    explicit SortedSampleCache(Sample sample) : sample_(sample) {}

    /** Nearest-rank percentile @p p of the sample: exact over
     *  @p records while @p records_complete, @p sketch's estimate
     *  otherwise; NaN on an empty window. */
    double percentileMs(const std::vector<RequestMetrics> &records,
                        int64_t revision, bool records_complete,
                        const QuantileSketch &sketch,
                        double p) const;

  private:
    Sample sample_;
    mutable std::vector<double> sorted_;
    mutable std::pair<int64_t, int64_t> key_{-1, -1};
};

/** Aggregated result of one serving run. */
struct ServingMetrics
{
    /** Completed requests in finish order — complete only while
     *  records_complete (see MetricsOptions); empty or truncated
     *  otherwise, with the streaming fields below standing in. */
    std::vector<RequestMetrics> requests;

    /** True while `requests` holds every completion. Cleared the
     *  moment a record is dropped (KeepRecords::Never, or Auto
     *  crossing its limit — which also discards the records
     *  already accumulated, so the vector is never a misleading
     *  prefix sample). */
    bool records_complete = true;

    int64_t completed = 0;
    int64_t rejected_queue_full = 0;
    int64_t rejected_too_long = 0;

    /** Queued requests shed because their deadline passed
     *  (RejectReason::DeadlineExpired). */
    int64_t expired_deadline = 0;

    /** Requests shed by drain mode — queued at drain entry or
     *  arriving while draining (RejectReason::Drained). */
    int64_t rejected_drained = 0;

    /** Completed requests that finished past a nonzero deadline
     *  (they still count in `completed`). */
    int64_t deadline_misses = 0;

    int64_t total_output_tokens = 0;

    /** Sequences still resident in the batch when the run stopped
     *  — nonzero only on hit_step_limit (see the partial-run
     *  accounting note in the file header). */
    int64_t in_flight = 0;

    /** Simulated end of the last step (0 for an empty run). */
    double makespan_ms = 0.0;

    /** Simulated time the accelerator spent executing steps. */
    double busy_ms = 0.0;

    int64_t steps = 0;
    int64_t total_batched_seqs = 0; ///< Σ per-step batch size
    int64_t max_queue_depth = 0;

    // --- Paged-admission counters (all zero under Reserve). ---

    /** Physical pages of the KV pool (0 under Reserve). */
    int64_t pool_pages = 0;

    /** Sequences preempted back to the queue (a request preempted
     *  twice counts twice). */
    int64_t preemptions = 0;

    /** Prefix-position pages shared instead of allocated, and
     *  first-touch allocated, across the run (KvPoolStats). */
    int64_t prefix_hit_pages = 0;
    int64_t prefix_miss_pages = 0;

    /** High-water mark of active (refcount > 0) pages. */
    int64_t peak_pages_active = 0;

    /** Σ per-step active pages (pageUtilization numerator). */
    int64_t page_step_sum = 0;

    // --- Streaming per-request aggregates, maintained by
    // recordCompletion() for every completion whether or not its
    // record is retained. ---

    /** Request-latency / TTFT distributions (deterministic
     *  streaming sketches; quantile_sketch.h documents the rank
     *  error). The percentile accessors fall back to these when
     *  records_complete is false. */
    QuantileSketch latency_sketch;
    QuantileSketch ttft_sketch;

    /** Running sums backing the mean accessors without records:
     *  Σ ttftMs, Σ (finish − first token), Σ (output_len − 1). */
    double ttft_sum_ms = 0.0;
    double decode_sum_ms = 0.0;
    int64_t decode_gaps = 0;

    // --- Cold-start weight streaming (weights.h). All zero on a
    // warm run; stamped when the scheduler ran with a cold-start
    // plan (SchedulerOptions::cold_start). ---

    /** Simulated storage→HBM window of the cold-start stream. */
    double weight_stream_ms = 0.0;

    /** Artifact bytes the stream moved. */
    int64_t weight_bytes_streamed = 0;

    /** Σ step time added waiting on weight residency (the part of
     *  the stream the compute overlap could not hide). */
    double weight_stall_ms = 0.0;

    /** Fraction of the stream window hidden under compute:
     *  1 − weight_stall_ms / weight_stream_ms, clamped to [0, 1].
     *  1.0 when nothing was streamed. */
    double weightOverlapFraction() const;

    /** Commit one completed request: counters (completed,
     *  total_output_tokens, deadline_misses), the running sums and
     *  sketches above, and — policy permitting — the record
     *  itself. The single entry point for completions, so the
     *  streaming state can never drift from the record vector. */
    void recordCompletion(const RequestMetrics &done,
                          const MetricsOptions &options);

    double requestsPerSecond() const;
    double tokensPerSecond() const;

    /** busy_ms / makespan_ms — fraction of simulated time the
     *  accelerator was executing a step (includes work for
     *  in-flight sequences on a step-limited run). */
    double utilization() const;

    /** Mean sequences per step (includes in-flight work on a
     *  step-limited run). */
    double meanBatchSize() const;

    /** Mean fraction of pool pages active across steps; 0 under
     *  Reserve admission. */
    double pageUtilization() const;

    /** Prefix pages shared over all prefix pages touched; 0 when
     *  the run touched none. */
    double prefixHitRate() const;

    double ttftMeanMs() const;

    /** NaN when no request completed (empty percentile window —
     *  see percentile()). */
    double ttftP95Ms() const;

    /** Token-weighted mean time-between-tokens over completed
     *  requests. Single-token requests contribute no gaps; their
     *  decode window must be empty (finish == first token), which
     *  this asserts rather than silently folding a nonzero window
     *  into the mean. */
    double tbtMeanMs() const;

    /** Request latency percentile (nearest rank). NaN when no
     *  request completed. Exact — O(1) after a one-time
     *  O(n log n) sort cached across queries — while
     *  records_complete; a sketch estimate within the documented
     *  rank error otherwise. recordCompletion bumps the record
     *  revision on every completion, so the cache
     *  (SortedSampleCache) never answers from a stale window. */
    double latencyPercentileMs(double p) const;

  private:
    /** Monotone mutation counter bumped by every
     *  recordCompletion(); half of the percentile-cache key. */
    int64_t record_revision_ = 0;

    /** Sorted-sample caches behind the exact percentile path. */
    SortedSampleCache latency_cache_{&RequestMetrics::latencyMs};
    SortedSampleCache ttft_cache_{&RequestMetrics::ttftMs};
};

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_METRICS_H
