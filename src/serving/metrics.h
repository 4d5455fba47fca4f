/**
 * @file
 * Serving metrics: per-request records (arrival, first token,
 * finish) plus aggregates a replica accumulates step by step —
 * throughput, TTFT, time-between-tokens, latency percentiles,
 * queue depth, accelerator utilization, and the paged KV pool's
 * page occupancy, preemption, and prefix-reuse counters. There is
 * one accumulator type: each replica fills its own, and the fleet
 * merges them in replica-id order (ServingMetrics::merge) into
 * FleetMetrics, which adds only the fleet-level counters.
 * Everything derives from simulated time, so repeated runs
 * aggregate identically.
 *
 * **Record retention.** MetricsOptions (ReplicaOptions::metrics)
 * decides whether the RequestMetrics records are kept next to the
 * streaming state (counters, running sums, and one QuantileSketch
 * per latency/TTFT), which is always maintained. The means read the
 * running sums only, so they do not depend on retention. By default
 * (KeepRecords::Always) every record is kept, so percentiles are
 * exact; a million-request sweep selects KeepRecords::Never and
 * stays O(sketch) memory, answering percentiles from the sketches.
 * `records_complete` says which regime a result is in; an exact
 * percentile query collects and sorts its sample on each call.
 *
 * **Partial-run accounting.** When a run stops at the step limit
 * (`FleetResult::hit_step_limit`), `requests` holds only the
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
#include <vector>

#include "serving/quantile_sketch.h"
#include "serving/request.h"

namespace streamtensor {
namespace serving {

/** Per-request record retention policy (ReplicaOptions::
 *  metrics). Streaming aggregates — counters, running sums, and
 *  the quantile sketches — are always maintained; this only
 *  decides whether the full RequestMetrics vector is kept
 *  alongside them. */
struct MetricsOptions
{
    enum class KeepRecords
    {
        Always, ///< keep every record regardless of run size
        Never,  ///< streaming aggregates only, O(sketch) memory
    };

    KeepRecords keep_records = KeepRecords::Always;
};

/** Lifecycle timestamps of one completed request. */
struct RequestMetrics
{
    int64_t id = 0;
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

    /** Replica the request *finished* on (0 on a one-replica
     *  fleet). */
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
     *  token — asserted by ServingMetrics::recordCompletion()). */
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
 *  Takes the sample by value and sorts it: O(n log n) per call.
 *  Callers with millions of samples should not be holding them at
 *  all (QuantileSketch / MetricsOptions). */
std::optional<double> percentile(std::vector<double> values,
                                 double p);

/** Aggregated result of one serving run: one replica's
 *  accumulator, or several merged (merge()). Every accessor keeps
 *  its per-replica meaning on a merged value. */
struct ServingMetrics
{
    /** Completed requests in finish order — complete only while
     *  records_complete (see MetricsOptions); empty or truncated
     *  otherwise, with the streaming fields below standing in. */
    std::vector<RequestMetrics> requests;

    /** True while `requests` holds every completion: cleared at
     *  the first completion under KeepRecords::Never, which keeps
     *  `requests` empty, and ANDed by merge(). */
    bool records_complete = true;

    int64_t completed = 0;
    int64_t rejected_queue_full = 0;
    int64_t rejected_too_long = 0;

    /** Queued requests shed because their deadline passed
     *  (RejectReason::DeadlineExpired). */
    int64_t expired_deadline = 0;

    /** Always 0: a drain re-routes its replica's queue and routing
     *  skips draining replicas, so drain mode refuses nothing. Kept
     *  only because e2e_stack reads it. */
    int64_t rejected_drained = 0;

    /** Completed requests that finished past a nonzero deadline
     *  (they still count in `completed`). */
    int64_t deadline_misses = 0;

    int64_t total_output_tokens = 0;

    /** Sequences still resident in the batch when the run stopped
     *  — nonzero only on hit_step_limit (see the partial-run
     *  accounting note in the file header). */
    int64_t in_flight = 0;

    /** Replicas whose work this accumulator covers: 1 for an
     *  engine's own metrics (stamped by ReplicaEngine), their sum
     *  after merge(), 0 while nothing was stamped or merged. */
    int64_t replicas = 0;

    /** Simulated end of the run (0 for an empty run; every replica
     *  of a fleet is stamped with the same instant). */
    double makespan_ms = 0.0;

    /** Simulated time the accelerator spent executing steps. */
    double busy_ms = 0.0;

    int64_t steps = 0;
    int64_t total_batched_seqs = 0; ///< Σ per-step batch size

    /** High-water mark of one replica's queue. */
    int64_t max_queue_depth = 0;

    // --- Paged KV pool counters. ---

    /** Physical pages of one replica's KV pool (merged replicas
     *  share one geometry). */
    int64_t pool_pages = 0;

    /** Sequences preempted back to the queue (a request preempted
     *  twice counts twice). */
    int64_t preemptions = 0;

    /** Prefix-position pages shared instead of allocated, and
     *  first-touch allocated, across the run (KvPoolStats). */
    int64_t prefix_hit_pages = 0;
    int64_t prefix_miss_pages = 0;

    /** High-water mark of active (refcount > 0) pages on one
     *  replica. */
    int64_t peak_pages_active = 0;

    /** Σ per-step active pages (pageUtilization numerator). */
    int64_t page_step_sum = 0;

    // --- Streaming per-request aggregates, maintained by
    // recordCompletion() for every completion whether or not its
    // record is retained. ---

    /** Request-latency / TTFT distributions (deterministic
     *  streaming sketches; quantile_sketch.h documents the rank
     *  error). The percentile accessors fall back to these when
     *  records_complete is false. The initialisers let
     *  `ServingMetrics{}` value-initialise past the sketch's
     *  explicit constructor without a warning. */
    QuantileSketch latency_sketch = QuantileSketch();
    QuantileSketch ttft_sketch = QuantileSketch();

    /** Running sums behind the mean accessors: Σ ttftMs,
     *  Σ (finish − first token), Σ (output_len − 1). */
    double ttft_sum_ms = 0.0;
    double decode_sum_ms = 0.0;
    int64_t decode_gaps = 0;

    // --- Cold-start weight streaming (weights.h). All zero on a
    // warm run; stamped when the replica ran with a cold-start
    // plan (ReplicaOptions::cold_start). ---

    /** Simulated storage→HBM window of the cold-start stream. */
    double weight_stream_ms = 0.0;

    /** Artifact bytes the stream moved. */
    int64_t weight_bytes_streamed = 0;

    /** Σ step time added waiting on weight residency (the part of
     *  the stream the compute overlap could not hide). */
    double weight_stall_ms = 0.0;

    /** Fraction of the stream window hidden under compute:
     *  1 − weight_stall_ms / weight_stream_ms (both summed over
     *  merged replicas), clamped to [0, 1]. 1.0 when nothing was
     *  streamed. */
    double weightOverlapFraction() const;

    /** Commit one completed request: counters (completed,
     *  total_output_tokens, deadline_misses), the running sums and
     *  sketches above, and — policy permitting — the record
     *  itself. The single entry point for completions, so the
     *  streaming state can never drift from the record vector.
     *  Asserts that a single-token request has an empty decode
     *  window (finish == first token): it contributes no gaps, so
     *  a nonzero window would inflate every other request's
     *  time-between-tokens. */
    void recordCompletion(const RequestMetrics &done,
                          const MetricsOptions &options);

    /** Count one rejection in its reason's counter. */
    void countRejection(RejectReason reason);

    /** Fold @p other (another replica of the same fleet) into this
     *  accumulator: counters and running sums add, high-water
     *  marks take the max, the sketches merge and records append
     *  (`records_complete` ANDs). Merging in a fixed order keeps
     *  the result bit-identical across runs. */
    void merge(const ServingMetrics &other);

    double requestsPerSecond() const;
    double tokensPerSecond() const;

    /** busy_ms / (replicas × makespan_ms) — fraction of simulated
     *  replica time spent executing a step (includes work for
     *  in-flight sequences on a step-limited run). */
    double utilization() const;

    /** Mean sequences per step (includes in-flight work on a
     *  step-limited run). */
    double meanBatchSize() const;

    /** Mean fraction of pool pages active across steps:
     *  page_step_sum over Σ per-step pool pages. 0 for a run
     *  without steps. */
    double pageUtilization() const;

    /** Prefix pages shared over all prefix pages touched; 0 when
     *  the run touched none. */
    double prefixHitRate() const;

    /** ttft_sum_ms / completed; 0 when no request completed. */
    double ttftMeanMs() const;

    /** NaN when no request completed (empty percentile window —
     *  see percentile()). */
    double ttftP95Ms() const;

    /** Token-weighted mean time-between-tokens over completed
     *  requests: decode_sum_ms / decode_gaps, 0 without gaps.
     *  Single-token requests contribute no gaps (their empty
     *  decode window is asserted by recordCompletion()). */
    double tbtMeanMs() const;

    /** Request latency percentile (nearest rank). NaN when no
     *  request completed. Exact while records_complete — each call
     *  collects and sorts the sample, O(n log n); a sketch
     *  estimate within the documented rank error otherwise. */
    double latencyPercentileMs(double p) const;
};

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_METRICS_H
