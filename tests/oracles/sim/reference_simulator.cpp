#include "sim/reference_simulator.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "sim/sim_internal.h"
#include "support/error.h"

namespace streamtensor {
namespace sim {

namespace {

using detail::ChannelSpec;
using detail::ComponentSpec;
using detail::cumulativeTokens;
using detail::fireTimeAt;
using detail::GroupSpec;

/** Simulation state of one FIFO channel, split into the two die
 *  views an inter-die link decouples: the producer sees pushed
 *  minus credited (pop credits return link-latency cycles after
 *  the pop), the consumer sees arrived minus popped (pushes land
 *  link-latency cycles after the firing). Co-located channels
 *  (latency 0) keep both views equal at every examination, which
 *  reduces to the old single-occupancy code bit for bit. */
struct ChannelState
{
    int64_t pushed = 0;   ///< tokens pushed (producer side)
    int64_t arrived = 0;  ///< tokens landed on the consumer side
    int64_t popped = 0;   ///< tokens popped
    int64_t credited = 0; ///< pop credits back at the producer
    /** In-flight (time, count) queues, drained lazily at
     *  examinations; arrival/credit times are nondecreasing
     *  because pushes/pops happen in event order. Empty for
     *  latency-0 channels. */
    std::vector<std::pair<double, int64_t>> pending_arrivals;
    std::vector<std::pair<double, int64_t>> pending_credits;
    size_t arrival_head = 0;
    size_t credit_head = 0;
    ChannelStats stats;
};

/** Simulation state of one component process. */
struct ComponentState
{
    int64_t fired = 0;
    /** Window anchor: firing j >= anchor_fired is paced at
     *  fireTimeAt(anchor, anchor_fired, j, ii); re-anchored when a
     *  firing lands off its predicted time (i.e. after a stall). */
    double anchor = 0.0;
    int64_t anchor_fired = 0;
    double ready_time = 0.0; ///< own pipeline availability
    double blocked_since = -1.0;
    bool blocked_on_crossing = false;
    bool in_queue = false;
    std::vector<int64_t> consumed; ///< per in channel
    std::vector<int64_t> produced; ///< per out channel
    /** Channels this component currently sits in a waiter list of;
     *  keeps re-examinations from pushing duplicates. */
    std::vector<int64_t> waiting_on;
};

} // namespace

SimResult
simulateGroupReference(const dataflow::ComponentGraph &g,
                       int64_t group, const SimOptions &options)
{
    GroupSpec spec = detail::buildGroupSpec(g, group);

    std::vector<ChannelState> channels(spec.chans.size());
    std::vector<ComponentState> comps(spec.comps.size());
    for (size_t i = 0; i < comps.size(); ++i) {
        const ComponentSpec &cs = spec.comps[i];
        ComponentState &s = comps[i];
        s.anchor = cs.initial_delay;
        s.ready_time = cs.initial_delay;
        s.consumed.assign(cs.in_channels.size(), 0);
        s.produced.assign(cs.out_channels.size(), 0);
    }

    // Waiters: components blocked on a channel (for data or for
    // space).
    std::vector<std::vector<int64_t>> data_waiters(channels.size());
    std::vector<std::vector<int64_t>> space_waiters(channels.size());

    using Event = std::pair<double, int64_t>; // time, comp index
    std::priority_queue<Event, std::vector<Event>,
                        std::greater<Event>>
        queue;
    for (size_t i = 0; i < comps.size(); ++i) {
        queue.push({comps[i].ready_time, static_cast<int64_t>(i)});
        comps[i].in_queue = true;
    }

    SimResult result;
    result.components.resize(comps.size());
    result.channels.resize(channels.size());
    for (const ChannelSpec &ch : spec.chans)
        if (ch.inter_die)
            ++result.crossing_channels;
    double now = 0.0;
    int64_t live = static_cast<int64_t>(comps.size());
    bool first_output_seen = false;

    auto done = [&](int64_t i) {
        return comps[i].fired >= spec.comps[i].firings;
    };

    auto wake = [&](int64_t i, double t) {
        ComponentState &s = comps[i];
        if (s.in_queue || done(i))
            return;
        queue.push({std::max(t, s.ready_time), i});
        s.in_queue = true;
    };

    // Lazy delivery: move in-flight tokens/credits whose link
    // transit completed by @p t into the visible counters. The
    // drained prefix is compacted away once it dominates the
    // vector, keeping a crossing channel's state proportional to
    // the tokens actually in flight rather than to every push of
    // the run.
    auto compact = [](std::vector<std::pair<double, int64_t>> &q,
                      size_t &head) {
        if (head >= 64 && head * 2 >= q.size()) {
            q.erase(q.begin(), q.begin() + head);
            head = 0;
        }
    };
    auto drainArrivals = [&](ChannelState &c, double t) {
        while (c.arrival_head < c.pending_arrivals.size() &&
               c.pending_arrivals[c.arrival_head].first <= t) {
            c.arrived += c.pending_arrivals[c.arrival_head].second;
            ++c.arrival_head;
        }
        compact(c.pending_arrivals, c.arrival_head);
    };
    auto drainCredits = [&](ChannelState &c, double t) {
        while (c.credit_head < c.pending_credits.size() &&
               c.pending_credits[c.credit_head].first <= t) {
            c.credited += c.pending_credits[c.credit_head].second;
            ++c.credit_head;
        }
        compact(c.pending_credits, c.credit_head);
    };

    /** Earliest pending-arrival time by which the channel's
     *  consumer-visible tokens reach arrived + @p deficit; < 0
     *  when the in-flight tokens cannot cover it. */
    auto arrivalCovering = [&](const ChannelState &c,
                               int64_t deficit) {
        int64_t extra = 0;
        for (size_t k = c.arrival_head;
             k < c.pending_arrivals.size(); ++k) {
            extra += c.pending_arrivals[k].second;
            if (extra >= deficit)
                return c.pending_arrivals[k].first;
        }
        return -1.0;
    };
    auto creditCovering = [&](const ChannelState &c,
                              int64_t deficit) {
        int64_t extra = 0;
        for (size_t k = c.credit_head;
             k < c.pending_credits.size(); ++k) {
            extra += c.pending_credits[k].second;
            if (extra >= deficit)
                return c.pending_credits[k].first;
        }
        return -1.0;
    };

    // A component blocked across several channels registers once
    // per channel, not once per re-examination: waiting_on tracks
    // live registrations and draining a list clears them.
    auto registerWaiter = [&](std::vector<std::vector<int64_t>> &lists,
                              int64_t c, int64_t i) {
        auto &on = comps[i].waiting_on;
        if (std::find(on.begin(), on.end(), c) == on.end()) {
            on.push_back(c);
            lists[c].push_back(i);
        }
    };
    auto drainWaiters = [&](std::vector<std::vector<int64_t>> &lists,
                            int64_t c, double t) {
        auto waiters = std::move(lists[c]);
        lists[c].clear();
        for (int64_t w : waiters) {
            auto &on = comps[w].waiting_on;
            on.erase(std::remove(on.begin(), on.end(), c),
                     on.end());
            wake(w, t);
        }
    };

    while (!queue.empty()) {
        auto [t, i] = queue.top();
        queue.pop();
        ComponentState &s = comps[i];
        const ComponentSpec &cs = spec.comps[i];
        s.in_queue = false;
        now = std::max(now, t);
        if (now > options.max_cycles) {
            result.timed_out = true;
            break;
        }
        if (done(i))
            continue;
        ++result.events;

        // Check input availability and output space for firing k.
        // Crossing channels satisfy the checks only with tokens
        // (credits) whose link transit completed by t; pending
        // in-flight entries that will cover the deficit give the
        // exact self-wake time, mirroring the leap engine's
        // covered-block path.
        int64_t k = s.fired;
        bool blocked = false;
        bool covered = true;
        double wake_t = t;
        for (size_t ci = 0; ci < cs.in_channels.size(); ++ci) {
            int64_t c = cs.in_channels[ci];
            ChannelState &chan = channels[c];
            drainArrivals(chan, t);
            int64_t need =
                cumulativeTokens(k, cs.firings,
                                 spec.chans[c].tokens) -
                s.consumed[ci];
            int64_t avail = chan.arrived - chan.popped;
            if (avail < need) {
                blocked = true;
                s.blocked_on_crossing |= spec.chans[c].inter_die;
                double ta = arrivalCovering(chan, need - avail);
                if (ta >= 0.0) {
                    wake_t = std::max(wake_t, ta);
                } else {
                    registerWaiter(data_waiters, c, i);
                    covered = false;
                }
            }
        }
        for (size_t ci = 0; ci < cs.out_channels.size(); ++ci) {
            int64_t c = cs.out_channels[ci];
            ChannelState &chan = channels[c];
            drainCredits(chan, t);
            int64_t put =
                cumulativeTokens(k, cs.firings,
                                 spec.chans[c].tokens) -
                s.produced[ci];
            int64_t over = chan.pushed + put - chan.credited -
                           spec.chans[c].capacity;
            if (over > 0) {
                blocked = true;
                s.blocked_on_crossing |= spec.chans[c].inter_die;
                double ta = creditCovering(chan, over);
                if (ta >= 0.0) {
                    wake_t = std::max(wake_t, ta);
                } else {
                    registerWaiter(space_waiters, c, i);
                    covered = false;
                }
            }
        }
        if (blocked) {
            if (s.blocked_since < 0.0)
                s.blocked_since = t;
            if (covered)
                wake(i, wake_t); // in-flight entries cover the need
            continue;
        }

        // A blocking episode ends with the firing it held up: its
        // stall runs from the examination that first found the
        // firing blocked to now, and counts as crossing stall when
        // an inter-die channel blocked it at any examination.
        if (s.blocked_since >= 0.0) {
            double stall = t - s.blocked_since;
            result.components[i].stall_cycles += stall;
            if (stall > 0.0 && s.blocked_on_crossing)
                result.crossing_stall_cycles += stall;
            s.blocked_since = -1.0;
            s.blocked_on_crossing = false;
        }

        // Fire: consume, produce, advance. Crossing pops return
        // their credit (and crossing pushes land) latency cycles
        // from now, so waiters are woken at the delivery time.
        for (size_t ci = 0; ci < cs.in_channels.size(); ++ci) {
            int64_t c = cs.in_channels[ci];
            const ChannelSpec &cspec = spec.chans[c];
            int64_t need =
                cumulativeTokens(k, cs.firings, cspec.tokens) -
                s.consumed[ci];
            if (need <= 0)
                continue;
            ChannelState &chan = channels[c];
            chan.popped += need;
            s.consumed[ci] += need;
            chan.stats.pops += need;
            if (cspec.latency > 0.0) {
                chan.pending_credits.emplace_back(
                    t + cspec.latency, need);
            } else {
                chan.credited += need;
            }
            drainWaiters(space_waiters, c, t + cspec.latency);
        }
        for (size_t ci = 0; ci < cs.out_channels.size(); ++ci) {
            int64_t c = cs.out_channels[ci];
            const ChannelSpec &cspec = spec.chans[c];
            int64_t put =
                cumulativeTokens(k, cs.firings, cspec.tokens) -
                s.produced[ci];
            if (put <= 0)
                continue;
            ChannelState &chan = channels[c];
            chan.pushed += put;
            s.produced[ci] += put;
            chan.stats.pushes += put;
            if (cspec.latency > 0.0) {
                chan.pending_arrivals.emplace_back(
                    t + cspec.latency, put);
            } else {
                chan.arrived += put;
            }
            // Peak of the producer-side view: what the capacity
            // check constrains.
            chan.stats.max_occupancy =
                std::max(chan.stats.max_occupancy,
                         chan.pushed - chan.credited);
            drainWaiters(data_waiters, c, t + cspec.latency);
        }

        // First token reaching a store DMA marks group TTFT.
        if (!first_output_seen && cs.is_store) {
            result.first_output_cycle = t;
            first_output_seen = true;
        }

        // A firing at its predicted pace extends the current
        // window; a delayed (stalled) firing re-anchors it.
        if (t != fireTimeAt(s.anchor, s.anchor_fired, s.fired,
                            cs.ii)) {
            s.anchor = t;
            s.anchor_fired = s.fired;
        }
        s.fired += 1;
        result.components[i].firings = s.fired;
        result.components[i].finish_time = t;
        if (done(i)) {
            --live;
            continue;
        }
        s.ready_time =
            fireTimeAt(s.anchor, s.anchor_fired, s.fired, cs.ii);
        queue.push({s.ready_time, i});
        s.in_queue = true;
    }

    if (live > 0 && !result.timed_out) {
        result.deadlock = true;
        for (size_t i = 0; i < comps.size(); ++i)
            if (!done(static_cast<int64_t>(i)))
                result.blocked_components.push_back(
                    spec.comps[i].id);
    }
    for (size_t c = 0; c < channels.size(); ++c)
        result.channels[c] = channels[c].stats;
    for (const auto &cstat : result.components)
        result.cycles = std::max(result.cycles, cstat.finish_time);
    if (!first_output_seen)
        result.first_output_cycle = result.cycles;
    return result;
}

} // namespace sim
} // namespace streamtensor
