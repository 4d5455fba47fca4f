#include "serving/trace.h"

#include <cmath>
#include <limits>
#include <random>

#include "support/error.h"

namespace streamtensor {
namespace serving {

namespace {

/** Uniform double in [0, 1) from the top 53 bits (the standard
 *  fixes mt19937_64's output bit-exactly; the transform here is
 *  ours, so it is portable too). */
double
uniform01(std::mt19937_64 &rng)
{
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/** Exponential with the given mean (inverse-CDF transform). */
double
exponential(std::mt19937_64 &rng, double mean)
{
    return -mean * std::log1p(-uniform01(rng));
}

/** Uniform integer in [lo, hi]. Modulo bias is irrelevant at
 *  trace-generation scale and keeps the mapping trivially
 *  portable. */
int64_t
uniformInt(std::mt19937_64 &rng, int64_t lo, int64_t hi)
{
    return lo + static_cast<int64_t>(
                    rng() % static_cast<uint64_t>(hi - lo + 1));
}

void
checkOptions(const TraceOptions &o)
{
    ST_CHECK(o.num_requests >= 1, "trace needs requests");
    ST_CHECK(std::isfinite(o.mean_interarrival_ms) &&
                 std::isfinite(o.deadline_slack_ms) &&
                 std::isfinite(o.burst_period_ms) &&
                 std::isfinite(o.burst_duty) &&
                 std::isfinite(o.burst_factor),
             "trace options must be finite");
    ST_CHECK(o.mean_interarrival_ms > 0.0,
             "mean inter-arrival must be positive");
    ST_CHECK(o.min_input_len >= 1 &&
                 o.max_input_len >= o.min_input_len,
             "malformed input length range");
    ST_CHECK(o.min_output_len >= 1 &&
                 o.max_output_len >= o.min_output_len,
             "malformed output length range");
    ST_CHECK(o.num_prefix_groups >= 0, "prefix group domain");
    ST_CHECK(o.num_prefix_groups == 0 || o.shared_prefix_len >= 1,
             "prefix groups need a shared prefix length");
    // The longest request the generator can draw must fit int64_t:
    // max_input_len + shared_prefix_len + max_output_len, checked
    // term by term so the check itself cannot overflow.
    constexpr int64_t kMaxLen = std::numeric_limits<int64_t>::max();
    ST_CHECK(o.shared_prefix_len >= 0 &&
                 o.max_input_len <= kMaxLen - o.shared_prefix_len &&
                 o.max_input_len + o.shared_prefix_len <=
                     kMaxLen - o.max_output_len,
             "request lengths overflow int64_t");
    ST_CHECK(o.deadline_slack_ms >= 0.0, "deadline slack domain");
}

Request
drawRequest(std::mt19937_64 &rng, const TraceOptions &o,
            int64_t id, double arrival_ms)
{
    Request r;
    r.id = id;
    r.arrival_ms = arrival_ms;
    r.input_len = uniformInt(rng, o.min_input_len, o.max_input_len);
    r.output_len =
        uniformInt(rng, o.min_output_len, o.max_output_len);
    // Older generators drew a priority class here; the draw stays
    // so every seeded trace (and the simulated metrics built on
    // it) is bit-identical to theirs.
    rng();
    // Prefix draws come last so disabling them (the default)
    // leaves the whole trace bit-identical to older generators.
    if (o.num_prefix_groups > 0) {
        r.prefix_id = uniformInt(rng, 1, o.num_prefix_groups);
        r.prefix_len = o.shared_prefix_len;
        r.input_len += o.shared_prefix_len;
    }
    // Deadlines consume no randomness, so enabling them leaves
    // every drawn field identical.
    if (o.deadline_slack_ms > 0.0)
        r.deadline_ms = arrival_ms + o.deadline_slack_ms;
    return r;
}

/** Materialize a whole generator — the vector builders are
 *  take-all loops over the lazy form, so the two can never drift
 *  apart. */
std::vector<Request>
takeAll(TraceGenerator generator)
{
    std::vector<Request> trace;
    trace.reserve(
        static_cast<size_t>(generator.options().num_requests));
    while (!generator.exhausted())
        trace.push_back(generator.next());
    return trace;
}

} // namespace

TraceGenerator::TraceGenerator(TraceShape shape,
                               const TraceOptions &options)
    : shape_(shape), options_(options), rng_(options.seed)
{
    checkOptions(options_);
    if (shape_ == TraceShape::Bursty)
        ST_CHECK(options_.burst_period_ms > 0.0 &&
                     options_.burst_duty > 0.0 &&
                     options_.burst_duty < 1.0 &&
                     options_.burst_factor >= 1.0,
                 "malformed burst shape");
}

void
TraceGenerator::draw()
{
    ST_ASSERT(emitted_ < options_.num_requests,
              "TraceGenerator drawn past its trace");
    double mean = options_.mean_interarrival_ms;
    if (shape_ == TraceShape::Bursty) {
        double burst_end =
            options_.burst_period_ms * options_.burst_duty;
        double phase = std::fmod(now_, options_.burst_period_ms);
        if (phase < burst_end)
            mean /= options_.burst_factor;
    }
    now_ += exponential(rng_, mean);
    staged_request_ =
        drawRequest(rng_, options_, emitted_, now_);
    ++emitted_;
    staged_ = true;
}

const Request &
TraceGenerator::peek()
{
    ST_CHECK(!exhausted(), "peek() on an exhausted generator");
    if (!staged_)
        draw();
    return staged_request_;
}

Request
TraceGenerator::next()
{
    ST_CHECK(!exhausted(), "next() on an exhausted generator");
    if (!staged_)
        draw();
    staged_ = false;
    return staged_request_;
}

std::vector<Request>
poissonTrace(const TraceOptions &options)
{
    return takeAll(TraceGenerator(TraceShape::Poisson, options));
}

std::vector<Request>
burstyTrace(const TraceOptions &options)
{
    return takeAll(TraceGenerator(TraceShape::Bursty, options));
}

} // namespace serving
} // namespace streamtensor
