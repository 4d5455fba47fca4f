/**
 * @file
 * Leap-ahead batched discrete-event simulator.
 *
 * The classic loop (kept as the test-only oracle
 * tests/oracles/sim/reference_simulator.cpp) pops one
 * heap event per firing per component: prefill-scale graphs pay
 * O(total tokens * log n). This implementation advances by *batch
 * commitment* instead. When a component is processed at time t it
 * commits the longest run of k consecutive firings that are
 * provably feasible at its own pace t, t+II, ..., t+(k-1)*II, then
 * reschedules itself at t + k*II. Feasibility of the whole run is
 * established in closed form from the cumulativeTokens inverses:
 * with counterpart channel state frozen at the run's start, both
 * the input-occupancy and output-headroom conditions become integer
 * stair inequalities whose crossing points are computed directly,
 * so a segment of thousands of firings costs O(channels) work.
 *
 * Exactness rests on the commitment discipline: a batch may rely
 * only on channel pushes/pops *already committed* (by earlier
 * events) with firing times derived from the shared window-anchored
 * expression (sim_internal.h). Commitments are unconditional, so a
 * blocked component's wake-up time — the time its counterpart's
 * n-th committed firing satisfies its need — is exact, and a
 * component whose need outruns every commitment registers as the
 * channel's (unique) waiting endpoint and is re-examined when the
 * counterpart commits again. The general epoch-stamped registration
 * degenerates to one boolean per channel side because every channel
 * has exactly one producer and one consumer. Firing times therefore
 * reproduce the reference event order bit-for-bit, which the
 * differential suite (tests/sim_differential_test.cpp) asserts.
 *
 * Inter-die channels shift visibility in time rather than changing
 * the firing expressions: a crossing push is visible to the
 * consumer latency cycles after the producer's fire time, and a
 * crossing pop's credit reaches the producer latency cycles after
 * the consumer's fire time. Visibility queries therefore evaluate
 * the counterpart's committed schedule at tau - latency — which can
 * predate the counterpart's current window anchor, so re-anchoring
 * retires the old window into a per-component history instead of
 * forgetting it. Wake times add the latency to the exact
 * counterpart fire time. With latency 0 every expression reduces to
 * the previous code (x - 0.0 == x), keeping the zero-cost model
 * bit-identical.
 */

#include "sim/simulator.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "sim/sim_internal.h"
#include "support/error.h"
#include "support/thread_pool.h"

namespace streamtensor {
namespace sim {

namespace {

using detail::ChannelSpec;
using detail::ComponentSpec;
using detail::cumulativeTokens;
using detail::firstFiringReaching;
using detail::fireTimeAt;
using detail::GroupSpec;
using detail::lastFiringWithin;

/** Mutable per-component state. */
struct CompRt
{
    int64_t fired = 0; ///< committed firings
    /** Current pace window: committed firing j >= anchor_fired ran
     *  at fireTimeAt(anchor, anchor_fired, j, ii); firings before
     *  anchor_fired all ran at times <= anchor. */
    double anchor = 0.0;
    int64_t anchor_fired = 0;
    double finish_time = 0.0;
    double blocked_since = -1.0;
    bool blocked_on_crossing = false;
    bool in_queue = false;

    /** Retired pace windows, oldest first: (anchor, anchor_fired)
     *  pairs whose firings [anchor_fired, next anchor_fired) ran
     *  at fireTimeAt of that window. Appended on re-anchor (one
     *  entry per blocking episode that committed firings), so the
     *  history is bounded by heap events. Inter-die latency makes
     *  counterpart visibility queries reach `latency` cycles into
     *  the past — past the current window's anchor — and the
     *  history keeps those queries exact. Anchors are strictly
     *  increasing and windows tile [0, current anchor_fired). */
    std::vector<std::pair<double, int64_t>> windows;
};

/** Mutable per-channel state: committed cumulative token counts
 *  plus the (unique) blocked endpoints. */
struct ChanRt
{
    int64_t pushed = 0;
    int64_t popped = 0;
    bool cons_waiting = false; ///< consumer blocked for data
    bool prod_waiting = false; ///< producer blocked for space
    ChannelStats stats;
};

class LeapSim
{
  public:
    LeapSim(const GroupSpec &spec, const SimOptions &options)
        : spec_(spec), options_(options), comps_(spec.comps.size()),
          chans_(spec.chans.size())
    {}

    SimResult run();

  private:
    using Event = std::pair<double, int64_t>; // time, comp index

    bool
    done(int64_t i) const
    {
        return comps_[i].fired >= spec_.comps[i].firings;
    }

    /** In-window delivery count helper: last firing of a window
     *  anchored at (@p anchor, 0) whose *delivery* time (fire
     *  time + @p lat) is <= tau, where @p w firings exist.
     *  Estimates from real division, then fixes up against the
     *  canonical time expression so the count agrees exactly with
     *  the reference engine, which compares fireTime + lat <= tau
     *  — the comparison MUST happen in that addition domain
     *  (fireTime <= tau - lat is not FP-equivalent). Returns m in
     *  [-1, w-1]; the caller adds the window's base count. */
    int64_t
    windowCountAt(double anchor, int64_t w, double ii, double tau,
                  double lat) const
    {
        double rel = (tau - lat - anchor) / ii;
        int64_t m;
        if (!(rel < static_cast<double>(w - 1)))
            m = w - 1;
        else if (rel < 0.0)
            m = -1;
        else
            m = static_cast<int64_t>(rel);
        while (m + 1 <= w - 1 &&
               fireTimeAt(anchor, 0, m + 1, ii) + lat <= tau)
            ++m;
        while (m >= 0 && fireTimeAt(anchor, 0, m, ii) + lat > tau)
            --m;
        return m;
    }

    /** Committed firings of component @p i delivered by @p tau:
     *  fire time + @p lat <= tau (lat = 0 for co-located
     *  channels, where x + 0.0 == x keeps the old semantics bit
     *  for bit). Latency-free queries always have tau >= the
     *  component's current anchor (events are processed in time
     *  order); a crossing channel's delivery horizon tau - lat
     *  can land before it, in which case the retired-window
     *  history resolves the exact count. */
    int64_t
    committedCountAt(int64_t i, double tau, double lat) const
    {
        const CompRt &s = comps_[i];
        if (tau < s.anchor + lat)
            return historicCountAt(i, tau, lat);
        int64_t w = s.fired - s.anchor_fired;
        if (w <= 0)
            return s.fired; // whole history predates the window
        double ii = spec_.comps[i].ii;
        return s.anchor_fired +
               windowCountAt(s.anchor, w, ii, tau, lat) + 1;
    }

    /** Delivered-by-tau count when the horizon precedes the
     *  current window's anchor: binary-search the retired windows
     *  (window k's firings all precede window k+1's anchor, and
     *  x <= y implies x + lat <= y + lat, so the per-window
     *  anchor+lat keys stay sorted). */
    int64_t
    historicCountAt(int64_t i, double tau, double lat) const
    {
        const CompRt &s = comps_[i];
        const auto &h = s.windows;
        auto it = std::upper_bound(
            h.begin(), h.end(), tau,
            [lat](double v, const std::pair<double, int64_t> &w) {
                return v < w.first + lat;
            });
        if (it == h.begin())
            return 0; // before the first committed delivery
        --it;
        int64_t f_lo = it->second;
        int64_t f_hi = (it + 1 == h.end()) ? s.anchor_fired
                                           : (it + 1)->second;
        int64_t w = f_hi - f_lo; // > 0: empty windows not retired
        double ii = spec_.comps[i].ii;
        return f_lo + windowCountAt(it->first, w, ii, tau, lat) + 1;
    }

    /** Exact fire time of committed firing @p n of component
     *  @p i (n < fired), reconstructed from the window that
     *  committed it — the same fireTimeAt doubles the reference
     *  engine produced at its events. */
    double
    fireTimeOf(int64_t i, int64_t n) const
    {
        const CompRt &s = comps_[i];
        double ii = spec_.comps[i].ii;
        if (n >= s.anchor_fired)
            return fireTimeAt(s.anchor, s.anchor_fired, n, ii);
        const auto &h = s.windows;
        auto it = std::upper_bound(
            h.begin(), h.end(), n,
            [](int64_t v, const std::pair<double, int64_t> &w) {
                return v < w.second;
            });
        ST_ASSERT(it != h.begin(),
                  "sim: firing predates all windows");
        --it;
        return fireTimeAt(it->first, it->second, n, ii);
    }

    /** Channel tokens pushed by committed firings *and visible to
     *  the consumer by @p tau*: a crossing push lands latency
     *  cycles after the firing. */
    int64_t
    pushedAt(int64_t c, double tau) const
    {
        const ChannelSpec &ch = spec_.chans[c];
        int64_t n = committedCountAt(ch.src, tau, ch.latency);
        return cumulativeTokens(n - 1, spec_.comps[ch.src].firings,
                                ch.tokens);
    }

    /** Channel tokens popped by committed firings *whose credit
     *  has reached the producer by @p tau* (crossing pops return
     *  their credit latency cycles late). */
    int64_t
    poppedAt(int64_t c, double tau) const
    {
        const ChannelSpec &ch = spec_.chans[c];
        int64_t n = committedCountAt(ch.dst, tau, ch.latency);
        return cumulativeTokens(n - 1, spec_.comps[ch.dst].firings,
                                ch.tokens);
    }

    /** Exact feasibility of firing @p j of component @p i at time
     *  @p tau against all committed counterpart schedules. */
    bool
    feasibleAt(int64_t i, int64_t j, double tau) const
    {
        const ComponentSpec &cs = spec_.comps[i];
        for (int64_t c : cs.in_channels) {
            if (pushedAt(c, tau) <
                cumulativeTokens(j, cs.firings,
                                 spec_.chans[c].tokens))
                return false;
        }
        for (int64_t c : cs.out_channels) {
            if (cumulativeTokens(j, cs.firings,
                                 spec_.chans[c].tokens) >
                spec_.chans[c].capacity + poppedAt(c, tau))
                return false;
        }
        return true;
    }

    /** Largest firing of @p i whose pace time stays within
     *  max_cycles (the reference stops at the first event beyond
     *  the cap, so batches must not leap across it). */
    int64_t
    timeCapFiring(int64_t i) const
    {
        const CompRt &s = comps_[i];
        const ComponentSpec &cs = spec_.comps[i];
        int64_t last = cs.firings - 1;
        if (fireTimeAt(s.anchor, s.anchor_fired, last, cs.ii) <=
            options_.max_cycles)
            return last;
        int64_t lo = s.fired, hi = last;
        while (lo < hi) {
            int64_t mid = lo + (hi - lo + 1) / 2;
            if (fireTimeAt(s.anchor, s.anchor_fired, mid, cs.ii) <=
                options_.max_cycles)
                lo = mid;
            else
                hi = mid - 1;
        }
        return lo;
    }

    void
    schedule(int64_t i, double when)
    {
        if (comps_[i].in_queue)
            return;
        queue_.push({when, i});
        comps_[i].in_queue = true;
    }

    /** Component @p i cannot fire at @p t: compute its exact
     *  wake-up from committed counterpart schedules, or register it
     *  as a channel waiter when its need outruns every
     *  commitment. Crossing channels satisfy the need only when
     *  the firing's data (or credit) lands, latency cycles after
     *  the counterpart's fire time. */
    void
    block(int64_t i, double t)
    {
        CompRt &s = comps_[i];
        const ComponentSpec &cs = spec_.comps[i];
        if (s.blocked_since < 0.0)
            s.blocked_since = t;
        int64_t f0 = s.fired;
        double wake_t = t;
        bool covered = true;
        for (int64_t c : cs.in_channels) {
            const ChannelSpec &ch = spec_.chans[c];
            int64_t need =
                cumulativeTokens(f0, cs.firings, ch.tokens);
            if (pushedAt(c, t) >= need)
                continue; // not a blocking channel
            s.blocked_on_crossing |= ch.inter_die;
            const CompRt &p = comps_[ch.src];
            int64_t pf = spec_.comps[ch.src].firings;
            int64_t n = firstFiringReaching(need, pf, ch.tokens);
            if (n < p.fired) {
                double avail =
                    fireTimeOf(ch.src, n) + ch.latency;
                wake_t = std::max(wake_t, avail);
            } else {
                chans_[c].cons_waiting = true;
                covered = false;
            }
        }
        for (int64_t c : cs.out_channels) {
            const ChannelSpec &ch = spec_.chans[c];
            int64_t need_pops =
                cumulativeTokens(f0, cs.firings, ch.tokens) -
                ch.capacity;
            if (need_pops <= 0 || poppedAt(c, t) >= need_pops)
                continue;
            s.blocked_on_crossing |= ch.inter_die;
            const CompRt &x = comps_[ch.dst];
            int64_t xf = spec_.comps[ch.dst].firings;
            int64_t n =
                firstFiringReaching(need_pops, xf, ch.tokens);
            if (n < x.fired) {
                double avail =
                    fireTimeOf(ch.dst, n) + ch.latency;
                wake_t = std::max(wake_t, avail);
            } else {
                chans_[c].prod_waiting = true;
                covered = false;
            }
        }
        if (covered) {
            ST_ASSERT(wake_t > t,
                      "sim: blocked component has no future wake");
            schedule(i, wake_t);
        }
    }

    /** After the producer of @p c committed more firings: wake the
     *  waiting consumer at the exact time its need is met (arrival
     *  = fire time + link latency), or keep it registered when
     *  still uncovered. */
    void
    wakeConsumer(int64_t c, double now)
    {
        const ChannelSpec &ch = spec_.chans[c];
        int64_t x = ch.dst;
        int64_t need = cumulativeTokens(
            comps_[x].fired, spec_.comps[x].firings, ch.tokens);
        const CompRt &p = comps_[ch.src];
        int64_t n = firstFiringReaching(
            need, spec_.comps[ch.src].firings, ch.tokens);
        if (n >= p.fired)
            return; // still uncovered: stay registered
        chans_[c].cons_waiting = false;
        double avail = fireTimeOf(ch.src, n) + ch.latency;
        schedule(x, std::max(avail, now));
    }

    /** After the consumer of @p c committed more firings: wake the
     *  space-waiting producer symmetrically (credit return pays
     *  the link latency too). */
    void
    wakeProducer(int64_t c, double now)
    {
        const ChannelSpec &ch = spec_.chans[c];
        int64_t p = ch.src;
        int64_t need_pops =
            cumulativeTokens(comps_[p].fired,
                             spec_.comps[p].firings, ch.tokens) -
            ch.capacity;
        if (need_pops <= 0)
            need_pops = 1;
        const CompRt &x = comps_[ch.dst];
        int64_t n = firstFiringReaching(
            need_pops, spec_.comps[ch.dst].firings, ch.tokens);
        if (n >= x.fired)
            return; // still uncovered: stay registered
        chans_[c].prod_waiting = false;
        double avail = fireTimeOf(ch.dst, n) + ch.latency;
        schedule(p, std::max(avail, now));
    }

    void process(double t, int64_t i);

    const GroupSpec &spec_;
    const SimOptions &options_;
    std::vector<CompRt> comps_;
    std::vector<ChanRt> chans_;
    std::priority_queue<Event, std::vector<Event>,
                        std::greater<Event>>
        queue_;
    SimResult result_;
    double now_ = 0.0;
    int64_t live_ = 0;
    bool first_output_seen_ = false;

    /** Scratch (per process() call, capacity reused). */
    std::vector<int64_t> frozen_pops_;
    std::vector<int64_t> occ_bound_;
};

void
LeapSim::process(double t, int64_t i)
{
    CompRt &s = comps_[i];
    const ComponentSpec &cs = spec_.comps[i];

    // A firing at its predicted pace extends the current window; an
    // off-pace event (a wake after a stall) re-anchors it, retiring
    // the old window into the history (crossing-channel visibility
    // queries reach latency cycles into the past). Either way
    // firing fired happens at exactly t if it happens now.
    if (t != fireTimeAt(s.anchor, s.anchor_fired, s.fired, cs.ii)) {
        if (s.fired > s.anchor_fired)
            s.windows.emplace_back(s.anchor, s.anchor_fired);
        s.anchor = t;
        s.anchor_fired = s.fired;
    }

    int64_t f0 = s.fired;
    if (!feasibleAt(i, f0, t)) {
        block(i, t);
        return;
    }
    if (s.blocked_since >= 0.0) {
        result_.components[i].stall_cycles += t - s.blocked_since;
        if (s.blocked_on_crossing)
            result_.crossing_stall_cycles += t - s.blocked_since;
        s.blocked_since = -1.0;
        s.blocked_on_crossing = false;
    }

    // ---- Find the batch [f0, j_end]: the longest on-pace run
    // whose every firing is feasible. Each loop turn either jumps
    // a whole segment (counterpart state frozen at tau: both stair
    // conditions invert in closed form, and with frozen state they
    // are monotone in j, so the segment needs no per-firing checks)
    // or extends by one exactly-verified firing that picks up
    // counterpart progress committed inside the window.
    int64_t jcap = timeCapFiring(i);
    size_t n_out = cs.out_channels.size();
    frozen_pops_.assign(n_out, 0);
    occ_bound_.assign(n_out, 0);
    int64_t j = f0;
    for (;;) {
        double tau = fireTimeAt(s.anchor, s.anchor_fired, j, cs.ii);
        int64_t lim = jcap;
        for (int64_t c : cs.in_channels) {
            lim = std::min(
                lim, lastFiringWithin(pushedAt(c, tau), cs.firings,
                                      spec_.chans[c].tokens));
        }
        for (size_t oi = 0; oi < n_out; ++oi) {
            int64_t c = cs.out_channels[oi];
            int64_t pops = poppedAt(c, tau);
            frozen_pops_[oi] = pops;
            lim = std::min(
                lim, lastFiringWithin(spec_.chans[c].capacity + pops,
                                      cs.firings,
                                      spec_.chans[c].tokens));
        }
        ST_ASSERT(lim >= j, "sim: frozen limit below feasible j");
        // Peak-occupancy bound for the segment: pushes grow through
        // lim while pops stay frozen, so the segment peak is at its
        // end; feasibility keeps it within capacity.
        for (size_t oi = 0; oi < n_out; ++oi) {
            int64_t c = cs.out_channels[oi];
            int64_t occ = cumulativeTokens(lim, cs.firings,
                                           spec_.chans[c].tokens) -
                          frozen_pops_[oi];
            occ_bound_[oi] = std::max(occ_bound_[oi], occ);
        }
        if (lim >= jcap) {
            j = jcap;
            break;
        }
        if (lim > j) {
            j = lim;
            continue;
        }
        double tau_next =
            fireTimeAt(s.anchor, s.anchor_fired, j + 1, cs.ii);
        if (!feasibleAt(i, j + 1, tau_next))
            break;
        j = j + 1;
        if (j >= jcap) {
            for (size_t oi = 0; oi < n_out; ++oi) {
                int64_t c = cs.out_channels[oi];
                int64_t occ =
                    cumulativeTokens(j, cs.firings,
                                     spec_.chans[c].tokens) -
                    poppedAt(c, tau_next);
                occ_bound_[oi] = std::max(occ_bound_[oi], occ);
            }
            break;
        }
    }
    int64_t j_end = j;
    double tau_end =
        fireTimeAt(s.anchor, s.anchor_fired, j_end, cs.ii);

    // ---- Commit the batch: advance the window *first* (the wake
    // computations below read this component's committed schedule),
    // then bulk-update channel state and wake the unique waiting
    // endpoints at their exact enabling times.
    s.fired = j_end + 1;
    s.finish_time = tau_end;
    result_.components[i].firings = s.fired;
    result_.components[i].finish_time = tau_end;
    for (size_t ci = 0; ci < cs.in_channels.size(); ++ci) {
        int64_t c = cs.in_channels[ci];
        ChanRt &cr = chans_[c];
        int64_t target = cumulativeTokens(j_end, cs.firings,
                                          spec_.chans[c].tokens);
        cr.stats.pops += target - cr.popped;
        cr.popped = target;
        if (cr.prod_waiting)
            wakeProducer(c, t);
    }
    for (size_t oi = 0; oi < n_out; ++oi) {
        int64_t c = cs.out_channels[oi];
        ChanRt &cr = chans_[c];
        int64_t target = cumulativeTokens(j_end, cs.firings,
                                          spec_.chans[c].tokens);
        cr.stats.pushes += target - cr.pushed;
        cr.pushed = target;
        cr.stats.max_occupancy =
            std::max(cr.stats.max_occupancy, occ_bound_[oi]);
        if (cr.cons_waiting)
            wakeConsumer(c, t);
    }

    // First token reaching a store DMA marks group TTFT.
    if (cs.is_store && !first_output_seen_ && f0 == 0) {
        result_.first_output_cycle = t;
        first_output_seen_ = true;
    }

    if (done(i)) {
        --live_;
        return;
    }
    schedule(i, fireTimeAt(s.anchor, s.anchor_fired, s.fired,
                           cs.ii));
}

SimResult
LeapSim::run()
{
    result_.components.resize(comps_.size());
    result_.channels.resize(chans_.size());
    for (const ChannelSpec &ch : spec_.chans)
        if (ch.inter_die)
            ++result_.crossing_channels;
    live_ = static_cast<int64_t>(comps_.size());
    for (size_t i = 0; i < comps_.size(); ++i) {
        comps_[i].anchor = spec_.comps[i].initial_delay;
        schedule(static_cast<int64_t>(i),
                 spec_.comps[i].initial_delay);
    }

    while (!queue_.empty()) {
        auto [t, i] = queue_.top();
        queue_.pop();
        comps_[i].in_queue = false;
        now_ = std::max(now_, t);
        if (now_ > options_.max_cycles) {
            result_.timed_out = true;
            break;
        }
        if (done(i))
            continue;
        ++result_.events;
        process(t, i);
    }

    if (live_ > 0 && !result_.timed_out) {
        result_.deadlock = true;
        for (size_t i = 0; i < comps_.size(); ++i)
            if (!done(static_cast<int64_t>(i)))
                result_.blocked_components.push_back(
                    spec_.comps[i].id);
    }
    for (size_t c = 0; c < chans_.size(); ++c)
        result_.channels[c] = chans_[c].stats;
    for (const auto &cstat : result_.components)
        result_.cycles = std::max(result_.cycles, cstat.finish_time);
    if (!first_output_seen_)
        result_.first_output_cycle = result_.cycles;
    return std::move(result_);
}

} // namespace

SimResult
simulateGroup(const dataflow::ComponentGraph &g, int64_t group,
              const SimOptions &options)
{
    GroupSpec spec = detail::buildGroupSpec(g, group);
    LeapSim sim(spec, options);
    return sim.run();
}

double
steadyIntervalCycles(const SimResult &r)
{
    // The bottleneck process is busy (initial delay + firings at
    // its II) for finish_time - stall_cycles; back-to-back reruns
    // of the group pipeline behind it at exactly that interval.
    double interval = 0.0;
    for (const auto &c : r.components)
        interval =
            std::max(interval, c.finish_time - c.stall_cycles);
    if (interval <= 0.0)
        return r.cycles;
    return std::min(interval, r.cycles);
}

double
batchedCycles(const SimResult &r, int64_t batch)
{
    ST_CHECK(batch >= 1, "batch must be positive");
    return r.cycles + static_cast<double>(batch - 1) *
                          steadyIntervalCycles(r);
}

std::vector<SimResult>
simulateAll(const dataflow::ComponentGraph &g,
            const SimOptions &options)
{
    int64_t groups = g.numGroups();
    std::vector<SimResult> results(groups);
    auto simulate_one = [&](int64_t group) {
        results[group] = simulateGroup(g, group, options);
    };
    if (groups <= 1 || options.threads == 1) {
        for (int64_t group = 0; group < groups; ++group)
            simulate_one(group);
    } else if (options.threads <= 0) {
        support::ThreadPool::shared().run(groups, simulate_one);
    } else {
        support::ThreadPool pool(options.threads);
        pool.run(groups, simulate_one);
    }
    return results;
}

} // namespace sim
} // namespace streamtensor
