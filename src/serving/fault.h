/**
 * @file
 * Deterministic fault injection for the replicated serving tier.
 *
 * A FaultPlan is a scripted list of timed events against named
 * replicas — crash, recovery, slowdown (step-cost multiplier),
 * inter-die link degradation (cost-model swap), drain — that the
 * FleetScheduler executes at exact simulated instants. Because the
 * plan is data (not callbacks) and all time is simulated, a
 * faulted run replays bit-identically: the golden fleet suite pins
 * availability and tail-latency numbers under a fixed plan.
 *
 * Plans come from two sources: hand-written scripts (tests,
 * examples) and seededFaultPlan(), which draws a plan from a
 * mt19937_64 stream with the same hand-rolled transforms as the
 * trace generators, so a (seed, options) pair produces the
 * identical plan on every platform — the 100-seed fault property
 * suite depends on it.
 *
 * Event semantics are *tolerant*: crashing a replica that is
 * already down, recovering an up one, or un-slowing a nominal one
 * is a no-op. That keeps seeded plans valid by construction and
 * scripted plans composable.
 */

#ifndef STREAMTENSOR_SERVING_FAULT_H
#define STREAMTENSOR_SERVING_FAULT_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "serving/request.h"

namespace streamtensor {
namespace serving {

/** What happens to a replica at a fault instant. */
enum class FaultKind
{
    /** Hard failure: the in-flight step is abandoned, all resident
     *  and queued requests are evacuated for failover, and every
     *  KV page (including retained prefix pages) is lost. The
     *  replica takes no work until Recover. */
    Crash,

    /** The replica rejoins with fresh serving state (empty pool,
     *  empty queue) once FleetOptions recovery_reload_ms has
     *  elapsed — at once when it is 0. Crash already cleared
     *  transient degradations; slow/degrade/drain events landing
     *  while the replica was down still update its knobs, so a
     *  recovery inside a standing slowdown window comes back slow.
     *  No-op on a replica that is up or mid-reload. */
    Recover,

    /** Steps on the replica cost `factor`× their modeled time (a
     *  thermally throttled or contended accelerator). */
    SlowStart,

    /** Back to nominal step cost. */
    SlowEnd,

    /** Inter-die link degradation: the replica's steps are costed
     *  by the degraded cost model the FleetScheduler was built
     *  with (e.g. one compiled against inflated
     *  inter_die_latency_cycles). No-op when the fleet has no
     *  degraded model. */
    DegradeStart,

    /** Back to the nominal cost model. */
    DegradeEnd,

    /** Graceful drain: the replica finishes residents, admits
     *  nothing; its queue is handed back to the fleet for
     *  immediate redistribution (no retry penalty). */
    DrainStart,

    /** Leave drain mode and accept work again. */
    DrainEnd,

    /** Hot model swap: the replica's resident and queued requests
     *  are handed back to the fleet gracefully (no retry attempt
     *  consumed, no backoff — operator-initiated, nothing was
     *  lost), its KV dies with the old weights, and it leaves
     *  service for FleetOptions recovery_reload_ms while the new
     *  artifact re-streams from storage. It rejoins automatically
     *  when the reload window elapses — no Recover event needed —
     *  and at once when the window is 0, so later events at the
     *  swap's instant find it up. No-op on a replica that is down
     *  (or mid-reload). */
    Swap,
};

/** One scripted fault. */
struct FaultEvent
{
    /** Simulated instant the event fires. */
    double at_ms = 0.0;

    /** Target replica id in [0, num_replicas). */
    int replica = 0;

    FaultKind kind = FaultKind::Crash;

    /** Step-cost multiplier for SlowStart (> 1 degrades); ignored
     *  by every other kind. */
    double factor = 1.0;
};

/** A scripted fault schedule. Events need not be sorted; the
 *  injector orders them by at_ms, keeping authoring order at equal
 *  instants (so a script can express "crash 0 then drain 1 at
 *  t=100" unambiguously). */
struct FaultPlan
{
    std::vector<FaultEvent> events;
};

/** Knobs of seededFaultPlan(). Probabilities are per replica. */
struct SeededFaultOptions
{
    uint64_t seed = 1;
    int num_replicas = 2;

    /** Plan horizon; fault windows are drawn inside it. */
    double horizon_ms = 1000.0;

    /** Chance a replica crashes once (with a later recovery drawn
     *  inside the horizon). */
    double crash_prob = 0.5;

    /** Chance of one slowdown window (factor in
     *  [min_slow_factor, max_slow_factor]). */
    double slow_prob = 0.5;

    /** Chance of one graceful drain window. */
    double drain_prob = 0.25;

    /** Chance of one link-degradation window (only meaningful when
     *  the fleet has a degraded cost model). */
    double degrade_prob = 0.0;

    double min_slow_factor = 1.5;
    double max_slow_factor = 4.0;
};

/** Draw a fault plan from a seeded stream: per replica, in id
 *  order, at most one crash/recover window, one slowdown window,
 *  one drain window, and one degradation window inside the
 *  horizon. Deterministic and platform-portable for a given
 *  (seed, options). */
FaultPlan seededFaultPlan(const SeededFaultOptions &options);

/** Cursor over a FaultPlan in firing order. */
class FaultInjector
{
  public:
    /** Sorts the plan by at_ms on the clock (toSimTime(); stable:
     *  authoring order breaks ties) and validates it. */
    explicit FaultInjector(FaultPlan plan);

    bool exhausted() const { return next_ == events_.size(); }

    /** Firing instant of the next event; kNever when exhausted. */
    SimTime nextAt() const;

    /** Pop every event due at or before @p now, in firing order. */
    std::vector<FaultEvent> drainDue(SimTime now);

  private:
    std::vector<std::pair<SimTime, FaultEvent>> events_;
    size_t next_ = 0;
};

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_FAULT_H
