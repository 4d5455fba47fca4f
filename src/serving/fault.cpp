#include "serving/fault.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "support/error.h"

namespace streamtensor {
namespace serving {

namespace {

/** Uniform double in [0, 1) from the top 53 bits — the same
 *  portable transform as the trace generators (trace.cpp). */
double
uniform01(std::mt19937_64 &rng)
{
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

double
uniformIn(std::mt19937_64 &rng, double lo, double hi)
{
    return lo + (hi - lo) * uniform01(rng);
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::Crash:
        return "crash";
    case FaultKind::Recover:
        return "recover";
    case FaultKind::SlowStart:
        return "slow_start";
    case FaultKind::SlowEnd:
        return "slow_end";
    case FaultKind::DegradeStart:
        return "degrade_start";
    case FaultKind::DegradeEnd:
        return "degrade_end";
    case FaultKind::DrainStart:
        return "drain_start";
    case FaultKind::DrainEnd:
        return "drain_end";
    case FaultKind::Swap:
        return "swap";
    }
    ST_PANIC("unknown fault kind");
}

FaultPlan
seededFaultPlan(const SeededFaultOptions &o)
{
    ST_CHECK(o.num_replicas >= 1, "fault plan needs replicas");
    ST_CHECK(o.horizon_ms > 0.0, "fault horizon domain");
    ST_CHECK(o.crash_prob >= 0.0 && o.crash_prob <= 1.0 &&
                 o.slow_prob >= 0.0 && o.slow_prob <= 1.0 &&
                 o.drain_prob >= 0.0 && o.drain_prob <= 1.0 &&
                 o.degrade_prob >= 0.0 && o.degrade_prob <= 1.0,
             "fault probability domain");
    ST_CHECK(o.min_slow_factor > 1.0 &&
                 o.max_slow_factor >= o.min_slow_factor,
             "slow factor domain");

    std::mt19937_64 rng(o.seed);
    FaultPlan plan;
    // Draw order (per replica, then per window kind) is part of
    // the contract: reordering the draws changes every seeded plan
    // and with it the property suite's coverage accounting.
    for (int replica = 0; replica < o.num_replicas; ++replica) {
        if (uniform01(rng) < o.crash_prob) {
            double down =
                uniformIn(rng, 0.15, 0.60) * o.horizon_ms;
            double up =
                down + uniformIn(rng, 0.10, 0.30) * o.horizon_ms;
            plan.events.push_back(
                {down, replica, FaultKind::Crash, 1.0});
            plan.events.push_back(
                {up, replica, FaultKind::Recover, 1.0});
        }
        if (uniform01(rng) < o.slow_prob) {
            double start =
                uniformIn(rng, 0.05, 0.50) * o.horizon_ms;
            double end =
                start + uniformIn(rng, 0.10, 0.40) * o.horizon_ms;
            double factor = uniformIn(rng, o.min_slow_factor,
                                      o.max_slow_factor);
            plan.events.push_back(
                {start, replica, FaultKind::SlowStart, factor});
            plan.events.push_back(
                {end, replica, FaultKind::SlowEnd, 1.0});
        }
        if (uniform01(rng) < o.drain_prob) {
            double start =
                uniformIn(rng, 0.20, 0.60) * o.horizon_ms;
            double end =
                start + uniformIn(rng, 0.10, 0.30) * o.horizon_ms;
            plan.events.push_back(
                {start, replica, FaultKind::DrainStart, 1.0});
            plan.events.push_back(
                {end, replica, FaultKind::DrainEnd, 1.0});
        }
        if (uniform01(rng) < o.degrade_prob) {
            double start =
                uniformIn(rng, 0.10, 0.50) * o.horizon_ms;
            double end =
                start + uniformIn(rng, 0.15, 0.40) * o.horizon_ms;
            plan.events.push_back(
                {start, replica, FaultKind::DegradeStart, 1.0});
            plan.events.push_back(
                {end, replica, FaultKind::DegradeEnd, 1.0});
        }
    }
    return plan;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : events_(std::move(plan.events))
{
    for (const auto &e : events_) {
        ST_CHECK(std::isfinite(e.at_ms) && e.at_ms >= 0.0,
                 "fault times must be finite and non-negative");
        ST_CHECK(e.replica >= 0, "fault replica domain");
        ST_CHECK(e.kind != FaultKind::SlowStart ||
                     (std::isfinite(e.factor) && e.factor > 0.0),
                 "slowdown factor must be finite and positive");
    }
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at_ms < b.at_ms;
                     });
}

double
FaultInjector::nextAtMs() const
{
    return exhausted() ? std::numeric_limits<double>::infinity()
                       : events_[next_].at_ms;
}

std::vector<FaultEvent>
FaultInjector::drainDue(double now)
{
    std::vector<FaultEvent> due;
    while (!exhausted() && events_[next_].at_ms <= now)
        due.push_back(events_[next_++]);
    return due;
}

} // namespace serving
} // namespace streamtensor
