#include "serving/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "support/error.h"

namespace streamtensor {
namespace serving {

namespace {

/** Nearest-rank percentile @p p of one per-request sample: exact
 *  over the records while they are complete, @p sketch's estimate
 *  otherwise; NaN on an empty window. */
double
samplePercentileMs(const ServingMetrics &metrics,
                   double (RequestMetrics::*sample)() const,
                   const QuantileSketch &sketch, double p)
{
    std::optional<double> q;
    if (metrics.records_complete) {
        std::vector<double> values;
        values.reserve(metrics.requests.size());
        for (const auto &r : metrics.requests)
            values.push_back((r.*sample)());
        q = percentile(std::move(values), p);
    } else {
        q = sketch.quantile(p);
    }
    return q.value_or(std::numeric_limits<double>::quiet_NaN());
}

} // namespace

std::optional<double>
percentile(std::vector<double> values, double p)
{
    ST_CHECK(p >= 0.0 && p <= 100.0, "percentile domain");
    if (values.empty())
        return std::nullopt;
    std::sort(values.begin(), values.end());
    // Nearest rank: smallest value with at least p% of the sample
    // at or below it.
    auto n = static_cast<double>(values.size());
    auto rank = static_cast<int64_t>(std::ceil(p / 100.0 * n));
    rank = std::max<int64_t>(rank, 1);
    return values[static_cast<size_t>(rank - 1)];
}

void
ServingMetrics::recordCompletion(const RequestMetrics &done,
                                 const MetricsOptions &options)
{
    ++completed;
    total_output_tokens += done.output_len;
    if (done.missedDeadline())
        ++deadline_misses;

    latency_sketch.add(done.latencyMs());
    ttft_sketch.add(done.ttftMs());
    ttft_sum_ms += done.ttftMs();
    // Impossible by construction (a single-token request finishes
    // at its prefill step); loud because it would skew tbtMeanMs().
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
    requests.insert(requests.end(), other.requests.begin(),
                    other.requests.end());
    records_complete = records_complete && other.records_complete;

    completed += other.completed;
    rejected_queue_full += other.rejected_queue_full;
    rejected_too_long += other.rejected_too_long;
    expired_deadline += other.expired_deadline;
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
    return completed > 0
               ? ttft_sum_ms / static_cast<double>(completed)
               : 0.0;
}

double
ServingMetrics::ttftP95Ms() const
{
    return samplePercentileMs(*this, &RequestMetrics::ttftMs,
                              ttft_sketch, 95.0);
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
    return decode_gaps > 0
               ? decode_sum_ms / static_cast<double>(decode_gaps)
               : 0.0;
}

double
ServingMetrics::latencyPercentileMs(double p) const
{
    return samplePercentileMs(*this, &RequestMetrics::latencyMs,
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
