/**
 * @file
 * Serving-layer request descriptor, the progress a request carries
 * across a preemption or failover (ResumeState), the entry a waiting
 * request occupies (QueuedRequest), and the serving clock.
 *
 * **Time** is simulated, driven by per-step accelerator costs; there
 * is no wall clock in src/serving/, so a trace replays to
 * bit-identical schedules. Inside the loop every instant and
 * duration is a SimTime, integer nanoseconds, so sums are exact in
 * any order. The public structs (Request, FaultEvent, FleetOptions,
 * StepCostModel, WeightStreamPlan, every result) keep double
 * milliseconds: toSimTime() converts on entry, to the nearest ns,
 * and toMs() on exit. The clock ends at kNever, about 9.22e12 ms;
 * toSimTime() and later() throw FatalError instead of passing it.
 */

#ifndef STREAMTENSOR_SERVING_REQUEST_H
#define STREAMTENSOR_SERVING_REQUEST_H

#include <cmath>
#include <cstdint>
#include <limits>

#include "support/error.h"

namespace streamtensor {
namespace serving {

/** Simulated time in nanoseconds. */
using SimTime = int64_t;

/** The instant that never comes (an idle replica's wake-up). */
constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

/** @p ms rounded to the nearest nanosecond. FatalError when @p ms is
 *  not finite, negative, or at or past kNever. */
inline SimTime
toSimTime(double ms)
{
    double ns = ms * 1e6;
    ST_CHECK(std::isfinite(ns) && ns >= 0.0 && ns < 0x1p63,
             "simulated time must lie in [0, 9.2e12) ms");
    return std::llround(ns);
}

inline double
toMs(SimTime t)
{
    return static_cast<double>(t) / 1e6;
}

/** @p t + @p d for d >= 0; FatalError when the sum reaches kNever. */
inline SimTime
later(SimTime t, SimTime d)
{
    ST_CHECK(d < kNever - t,
             "simulated time overflows past 9.2e12 ms");
    return t + d;
}

/** One inference request of an arrival trace. */
struct Request
{
    /** Unique per trace; ties in arrival time break by id. */
    int64_t id = 0;

    /** Simulated arrival time. */
    double arrival_ms = 0.0;

    int64_t input_len = 1;
    int64_t output_len = 1;

    /** Shared-prefix identity: every request with the same nonzero
     *  prefix_id starts with the identical prefix_len prompt
     *  tokens (a common system prompt), so the paged KV pool can
     *  pin one physical copy of those pages across all of them.
     *  0 = no shared prefix. */
    int64_t prefix_id = 0;

    /** Leading prompt tokens covered by prefix_id; must satisfy
     *  0 <= prefix_len <= input_len (0 unless prefix_id != 0). */
    int64_t prefix_len = 0;

    /** Absolute simulated deadline; 0 = none. A *queued* request
     *  whose deadline has passed is expired (shed) instead of
     *  wedging the queue; a resident one always runs to completion
     *  and merely counts a deadline miss if it finishes late —
     *  work already paid for is never thrown away mid-decode.
     *  Snapped to the nanosecond grid on entry, as arrival_ms is,
     *  so expiry (deadlinePassed) and the miss count
     *  (RequestMetrics::missedDeadline) read one instant; a
     *  deadline under 0.5 ns rounds to 0, none. */
    double deadline_ms = 0.0;
};

/** @p r carries a deadline and it is due by @p now on the clock. */
inline bool
deadlinePassed(const Request &r, SimTime now)
{
    return r.deadline_ms > 0.0 && toSimTime(r.deadline_ms) <= now;
}

/** Progress carried across a preemption or a replica failover,
 *  restored on readmission. The generated tokens themselves are
 *  kept (they are known text); only their KV pages were dropped,
 *  so the readmitted sequence recomputes KV with one
 *  prefill-shaped pass over its full context and continues
 *  decoding. */
struct ResumeState
{
    int64_t generated = 0;
    bool ever_prefilled = false;
    SimTime first_token = 0;
    int64_t preemptions = 0;

    /** Times the request already moved replicas (fleet tier). */
    int64_t failovers = 0;
};

/** A request waiting to run — in a replica's queue, in the fleet's
 *  retry buffer, or on its way between them after an evacuation —
 *  together with its progress: the one place a waiting request's
 *  ResumeState lives. A fresh arrival carries a default state. */
struct QueuedRequest
{
    Request req;
    ResumeState state;
};

/** Why a request left the system without completing. */
enum class RejectReason
{
    /** The bounded request queue was full on arrival. */
    QueueFull,

    /** The request's maximum context (input_len + output_len - 1,
     *  the context of its last decode step) exceeds the bucket
     *  ladder or the KV pool's page count — it could never run
     *  to completion. */
    TooLong,

    /** The request's deadline passed while it was still queued
     *  (overload shedding; never applied to resident sequences). */
    DeadlineExpired,
};

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_REQUEST_H
