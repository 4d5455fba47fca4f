#include "serving/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.h"

namespace streamtensor {
namespace serving {

namespace {

/** The documented sentinel of the ServingMetrics percentile
 *  accessors on an empty window. */
double
quietNan()
{
    return std::numeric_limits<double>::quiet_NaN();
}

} // namespace

std::optional<double>
percentile(std::vector<double> values, double p)
{
    std::sort(values.begin(), values.end());
    return percentileOfSorted(values, p);
}

std::optional<double>
percentileOfSorted(const std::vector<double> &sorted, double p)
{
    ST_CHECK(p >= 0.0 && p <= 100.0, "percentile domain");
    if (sorted.empty())
        return std::nullopt;
    // Nearest rank: smallest value with at least p% of the sample
    // at or below it.
    auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<int64_t>(std::ceil(p / 100.0 * n));
    rank = std::max<int64_t>(rank, 1);
    return sorted[static_cast<size_t>(rank - 1)];
}

double
SortedSampleCache::percentileMs(
    const std::vector<RequestMetrics> &records, int64_t revision,
    bool records_complete, const QuantileSketch &sketch,
    double p) const
{
    if (!records_complete)
        return sketch.quantile(p).value_or(quietNan());
    std::pair<int64_t, int64_t> key{
        revision, static_cast<int64_t>(records.size())};
    if (key_ != key) {
        sorted_.clear();
        sorted_.reserve(records.size());
        for (const auto &r : records)
            sorted_.push_back((r.*sample_)());
        std::sort(sorted_.begin(), sorted_.end());
        key_ = key;
    }
    return percentileOfSorted(sorted_, p).value_or(quietNan());
}

void
ServingMetrics::recordCompletion(const RequestMetrics &done,
                                 const MetricsOptions &options)
{
    ++record_revision_; // every completion invalidates the caches
    ++completed;
    total_output_tokens += done.output_len;
    if (done.missedDeadline())
        ++deadline_misses;

    latency_sketch.add(done.latencyMs());
    ttft_sketch.add(done.ttftMs());
    ttft_sum_ms += done.ttftMs();
    // The decode-window sum mirrors tbtMeanMs()'s invariant: a
    // single-token request must have an empty window.
    ST_ASSERT(done.output_len > 1 ||
                  done.finish_ms == done.first_token_ms,
              "single-token request with a decode window");
    decode_sum_ms += done.finish_ms - done.first_token_ms;
    decode_gaps += done.output_len - 1;

    switch (options.keep_records) {
    case MetricsOptions::KeepRecords::Always:
        requests.push_back(done);
        break;
    case MetricsOptions::KeepRecords::Never:
        records_complete = false;
        break;
    }
}

void
ServingMetrics::countRejection(RejectReason reason)
{
    switch (reason) {
    case RejectReason::QueueFull:
        ++rejected_queue_full;
        break;
    case RejectReason::TooLong:
        ++rejected_too_long;
        break;
    case RejectReason::DeadlineExpired:
        ++expired_deadline;
        break;
    case RejectReason::Drained:
        ++rejected_drained;
        break;
    }
}

void
ServingMetrics::merge(const ServingMetrics &other)
{
    // One geometry per fleet keeps pageUtilization()'s denominator,
    // steps × pool_pages, equal to Σ per-step pool pages.
    ST_CHECK(pool_pages == 0 || other.pool_pages == 0 ||
                 pool_pages == other.pool_pages,
             "merged replicas differ in KV pool geometry");
    ++record_revision_;
    requests.insert(requests.end(), other.requests.begin(),
                    other.requests.end());
    records_complete = records_complete && other.records_complete;

    completed += other.completed;
    rejected_queue_full += other.rejected_queue_full;
    rejected_too_long += other.rejected_too_long;
    expired_deadline += other.expired_deadline;
    rejected_drained += other.rejected_drained;
    deadline_misses += other.deadline_misses;
    total_output_tokens += other.total_output_tokens;
    in_flight += other.in_flight;
    replicas += other.replicas;
    busy_ms += other.busy_ms;
    steps += other.steps;
    total_batched_seqs += other.total_batched_seqs;
    preemptions += other.preemptions;
    prefix_hit_pages += other.prefix_hit_pages;
    prefix_miss_pages += other.prefix_miss_pages;
    page_step_sum += other.page_step_sum;
    ttft_sum_ms += other.ttft_sum_ms;
    decode_sum_ms += other.decode_sum_ms;
    decode_gaps += other.decode_gaps;
    weight_stream_ms += other.weight_stream_ms;
    weight_bytes_streamed += other.weight_bytes_streamed;
    weight_stall_ms += other.weight_stall_ms;

    makespan_ms = std::max(makespan_ms, other.makespan_ms);
    max_queue_depth = std::max(max_queue_depth, other.max_queue_depth);
    pool_pages = std::max(pool_pages, other.pool_pages);
    peak_pages_active =
        std::max(peak_pages_active, other.peak_pages_active);

    latency_sketch.merge(other.latency_sketch);
    ttft_sketch.merge(other.ttft_sketch);
}

double
ServingMetrics::requestsPerSecond() const
{
    return makespan_ms > 0.0 ? completed / makespan_ms * 1e3 : 0.0;
}

double
ServingMetrics::tokensPerSecond() const
{
    return makespan_ms > 0.0
               ? total_output_tokens / makespan_ms * 1e3
               : 0.0;
}

double
ServingMetrics::utilization() const
{
    return makespan_ms > 0.0 && replicas > 0
               ? busy_ms / (static_cast<double>(replicas) *
                            makespan_ms)
               : 0.0;
}

double
ServingMetrics::meanBatchSize() const
{
    return steps > 0 ? static_cast<double>(total_batched_seqs) /
                           static_cast<double>(steps)
                     : 0.0;
}

double
ServingMetrics::ttftMeanMs() const
{
    // The exact record loop is kept while records are complete so
    // results stay bit-identical to the pre-streaming accessors
    // (same floating-point summation order); the running sum only
    // answers when the records are gone.
    if (!records_complete)
        return completed > 0
                   ? ttft_sum_ms / static_cast<double>(completed)
                   : 0.0;
    if (requests.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : requests)
        sum += r.ttftMs();
    return sum / static_cast<double>(requests.size());
}

double
ServingMetrics::ttftP95Ms() const
{
    return ttft_cache_.percentileMs(requests, record_revision_,
                                    records_complete, ttft_sketch,
                                    95.0);
}

double
ServingMetrics::pageUtilization() const
{
    return steps > 0 && pool_pages > 0
               ? static_cast<double>(page_step_sum) /
                     (static_cast<double>(steps) *
                      static_cast<double>(pool_pages))
               : 0.0;
}

double
ServingMetrics::prefixHitRate() const
{
    int64_t touched = prefix_hit_pages + prefix_miss_pages;
    return touched > 0 ? static_cast<double>(prefix_hit_pages) /
                             static_cast<double>(touched)
                       : 0.0;
}

double
ServingMetrics::tbtMeanMs() const
{
    if (!records_complete)
        return decode_gaps > 0
                   ? decode_sum_ms /
                         static_cast<double>(decode_gaps)
                   : 0.0;
    double decode_ms = 0.0;
    int64_t gaps = 0;
    for (const auto &r : requests) {
        // A single-token request has zero decode gaps, so a
        // nonzero decode window would silently inflate the mean
        // of every other request. Such a window is impossible by
        // construction (the request finishes at its prefill
        // step); make the impossibility loud.
        ST_ASSERT(r.output_len > 1 ||
                      r.finish_ms == r.first_token_ms,
                  "single-token request with a decode window");
        decode_ms += r.finish_ms - r.first_token_ms;
        gaps += r.output_len - 1;
    }
    return gaps > 0 ? decode_ms / static_cast<double>(gaps) : 0.0;
}

double
ServingMetrics::latencyPercentileMs(double p) const
{
    return latency_cache_.percentileMs(requests, record_revision_,
                                       records_complete,
                                       latency_sketch, p);
}

double
ServingMetrics::weightOverlapFraction() const
{
    if (weight_stream_ms <= 0.0)
        return 1.0;
    return std::clamp(1.0 - weight_stall_ms / weight_stream_ms,
                      0.0, 1.0);
}

} // namespace serving
} // namespace streamtensor
