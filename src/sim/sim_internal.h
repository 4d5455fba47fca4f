/**
 * @file
 * Shared substrate of the two simulators: the flat per-group spec
 * (dense component/channel tables built once per group) and the
 * token-interleave closed forms with their integer inverses.
 *
 * Both simulateGroup (leap-ahead) and simulateGroupReference
 * (per-firing oracle) are built on this header so that they derive
 * firings, IIs, capacities and -- critically -- firing *times* from
 * the same expressions. Times are always produced by fireTimeAt();
 * as long as both simulators feed it the same anchors, the doubles
 * they compute are bit-identical, which is what lets the
 * differential suite assert exact equality on cycles and
 * finish times.
 */

#ifndef STREAMTENSOR_SIM_SIM_INTERNAL_H
#define STREAMTENSOR_SIM_SIM_INTERNAL_H

#include <cstdint>
#include <vector>

#include "dataflow/graph.h"
#include "support/flat_index.h"
#include "support/math_util.h"

namespace streamtensor {
namespace sim {
namespace detail {

/** One channel endpoint's token stair: cumulativeTokens(k,
 *  firings, tokens) and its two inverses for the endpoint's
 *  @p firings, specialised once per endpoint on the ratio of
 *  tokens to firings. Every endpoint of the serving graphs moves a
 *  whole number of tokens per firing or fires a whole number of
 *  times per token, and there the stair and its inverses
 *  need no ceilDiv fix-up loop: a 1:1 endpoint divides nothing,
 *  and each multiple form divides once by its ratio in one of
 *  the three queries. Every form returns exactly the integers of
 *  the general functions below, which the general form calls. */
struct Stair
{
    enum class Form
    {
        Unit,            ///< tokens == firings
        TokensPerFiring, ///< tokens == ratio * firings
        FiringsPerToken, ///< firings == ratio * tokens
        General,
    };

    int64_t firings = 1;
    int64_t tokens = 0;
    Form form = Form::General;
    int64_t ratio = 1;

    static Stair of(int64_t firings, int64_t tokens);

    /** cumulativeTokens(k, firings, tokens). */
    int64_t cumulative(int64_t k) const;

    /** lastFiringWithin(budget, firings, tokens). */
    int64_t lastWithin(int64_t budget) const;

    /** firstFiringReaching(need, firings, tokens). */
    int64_t firstReaching(int64_t need) const;
};

/** Hoisted per-channel constants: everything the inner loops need,
 *  resolved once per group instead of through g.channel() per
 *  examination. */
struct ChannelSpec
{
    int64_t tokens = 0;   ///< tokens moved per accelerator run
    int64_t capacity = 2; ///< FIFO depth (folded: consumer burst)
    int64_t src = -1;     ///< producer, dense component index
    int64_t dst = -1;     ///< consumer, dense component index

    /** Inter-die link latency in cycles: a push becomes visible
     *  to the consumer `latency` cycles after the firing, and a
     *  pop's credit reaches the producer `latency` cycles after
     *  the pop. 0 for co-located channels (today's semantics,
     *  bit for bit). */
    double latency = 0.0;

    /** True when the channel crosses a die boundary (stall
     *  attribution and crossing counts). */
    bool inter_die = false;

    /** The producer's push stair and the consumer's pop stair
     *  (each over its own endpoint's firings). */
    Stair src_stair;
    Stair dst_stair;
};

/** Hoisted per-component constants. */
struct ComponentSpec
{
    int64_t id = -1; ///< graph component id
    int64_t firings = 1;
    double ii = 1.0; ///< pace, inclusive of ii_penalty
    double initial_delay = 0.0;
    bool is_store = false;

    /** Largest inter-die II penalty over the component's channels
     *  (already folded into ii; kept for reporting). */
    double ii_penalty = 0.0;

    std::vector<int64_t> in_channels;  ///< dense channel indices
    std::vector<int64_t> out_channels;
};

/** One fused group, flattened for simulation. */
struct GroupSpec
{
    std::vector<ComponentSpec> comps;
    std::vector<ChannelSpec> chans;
};

/** Target cumulative tokens on a channel after an endpoint fires
 *  k of its @p firings: uniform interleave of the channel's tokens
 *  across the endpoint's firings. k == -1 means "none yet". */
inline int64_t
cumulativeTokens(int64_t k, int64_t firings, int64_t tokens)
{
    if (k < 0)
        return 0;
    return ceilDiv((k + 1) * tokens, firings);
}

/** Largest firing j in [-1, firings-1] whose cumulative tokens stay
 *  within @p budget (inverse of cumulativeTokens from above). */
inline int64_t
lastFiringWithin(int64_t budget, int64_t firings, int64_t tokens)
{
    if (budget <= 0)
        return -1;
    if (budget >= tokens)
        return firings - 1;
    // cum(j) <= budget  <=>  ceil((j+1)*T/F) <= budget; start from
    // the real-division estimate and fix up (cum is a stair, the
    // estimate is within a step of the answer).
    int64_t j = budget * firings / tokens;
    if (j > firings - 1)
        j = firings - 1;
    while (j >= 0 && cumulativeTokens(j, firings, tokens) > budget)
        --j;
    while (j + 1 <= firings - 1 &&
           cumulativeTokens(j + 1, firings, tokens) <= budget)
        ++j;
    return j;
}

/** Smallest firing j in [0, firings] whose cumulative tokens reach
 *  @p need (j == firings when the need exceeds the channel total;
 *  need <= 0 returns -1: already satisfied). */
inline int64_t
firstFiringReaching(int64_t need, int64_t firings, int64_t tokens)
{
    if (need <= 0)
        return -1;
    if (need > tokens)
        return firings;
    return lastFiringWithin(need - 1, firings, tokens) + 1;
}

inline Stair
Stair::of(int64_t firings, int64_t tokens)
{
    Stair st;
    st.firings = firings;
    st.tokens = tokens;
    if (tokens <= 0)
        return st;
    if (tokens == firings) {
        st.form = Form::Unit;
    } else if (tokens % firings == 0) {
        st.form = Form::TokensPerFiring;
        st.ratio = tokens / firings;
    } else if (firings % tokens == 0) {
        st.form = Form::FiringsPerToken;
        st.ratio = firings / tokens;
    }
    return st;
}

inline int64_t
Stair::cumulative(int64_t k) const
{
    if (k < 0)
        return 0;
    switch (form) {
    case Form::Unit:
        return k + 1;
    case Form::TokensPerFiring:
        return (k + 1) * ratio;
    case Form::FiringsPerToken:
        return ceilDiv(k + 1, ratio);
    case Form::General:
        break;
    }
    return cumulativeTokens(k, firings, tokens);
}

inline int64_t
Stair::lastWithin(int64_t budget) const
{
    if (budget <= 0)
        return -1;
    if (budget >= tokens)
        return firings - 1;
    // cumulative(j) <= budget solved for the largest j.
    switch (form) {
    case Form::Unit:
        return budget - 1;
    case Form::TokensPerFiring:
        return budget / ratio - 1;
    case Form::FiringsPerToken:
        return budget * ratio - 1;
    case Form::General:
        break;
    }
    return lastFiringWithin(budget, firings, tokens);
}

inline int64_t
Stair::firstReaching(int64_t need) const
{
    if (need <= 0)
        return -1;
    if (need > tokens)
        return firings;
    return lastWithin(need - 1) + 1;
}

/** Canonical firing-time formula. BOTH simulators compute every
 *  firing time through this expression so the resulting doubles are
 *  bit-identical: a window anchored at (@p anchor, @p anchor_fired)
 *  places firing @p j at anchor + (j - anchor_fired) * ii. */
inline double
fireTimeAt(double anchor, int64_t anchor_fired, int64_t j, double ii)
{
    return anchor + static_cast<double>(j - anchor_fired) * ii;
}

/** Build the flat spec of one fused group. */
inline GroupSpec
buildGroupSpec(const dataflow::ComponentGraph &g, int64_t group)
{
    GroupSpec spec;
    auto member_ids = g.groupComponents(group);
    auto channel_ids = g.groupChannels(group);

    // Dense indices: sorted-vector flat lookup instead of a
    // node-per-entry tree map (every channel endpoint resolves
    // through this).
    support::FlatIndex comp_index =
        support::FlatIndex::positionsOf(member_ids);

    spec.comps.resize(member_ids.size());
    spec.chans.resize(channel_ids.size());
    for (size_t c = 0; c < channel_ids.size(); ++c) {
        const dataflow::Channel &ch = g.channel(channel_ids[c]);
        ChannelSpec &cs = spec.chans[c];
        cs.tokens = ch.tokens;
        // A folded channel is the merged producer/consumer buffer:
        // it holds exactly one consumer burst (the shared tile).
        cs.capacity =
            ch.folded ? g.channelBurst(channel_ids[c]) : ch.depth;
        cs.src = comp_index.at(ch.src);
        cs.dst = comp_index.at(ch.dst);
        cs.latency = ch.link_latency;
        cs.inter_die = ch.inter_die;
        spec.comps[cs.src].out_channels.push_back(
            static_cast<int64_t>(c));
        spec.comps[cs.dst].in_channels.push_back(
            static_cast<int64_t>(c));
    }
    for (size_t i = 0; i < member_ids.size(); ++i) {
        const dataflow::Component &c = g.component(member_ids[i]);
        ComponentSpec &s = spec.comps[i];
        s.id = member_ids[i];
        s.initial_delay = c.initial_delay;
        s.is_store = c.kind == dataflow::ComponentKind::StoreDma;
        // Firings: one per token on the widest out channel; sinks
        // fire per input token.
        int64_t t = 0;
        for (int64_t ci : s.out_channels)
            t = std::max(t, spec.chans[ci].tokens);
        if (t == 0) {
            for (int64_t ci : s.in_channels)
                t = std::max(t, spec.chans[ci].tokens);
        }
        s.firings = std::max<int64_t>(t, 1);
        double span =
            std::max(c.total_cycles - c.initial_delay, 0.0);
        s.ii = s.firings > 1
                   ? span / static_cast<double>(s.firings - 1)
                   : span;
        s.ii = std::max(s.ii, 1e-9);
    }
    // Die-crossing II penalty: every firing of a component that
    // pushes or pops across a die boundary pays the link handshake
    // on top of its profiled pace. Applied here, in the shared
    // spec builder, so both simulators see the identical double
    // (x + 0.0 == x keeps the zero-cost model bit-identical).
    for (size_t c = 0; c < channel_ids.size(); ++c) {
        double penalty =
            g.channel(channel_ids[c]).link_ii_penalty;
        if (penalty <= 0.0)
            continue;
        ComponentSpec &src = spec.comps[spec.chans[c].src];
        ComponentSpec &dst = spec.comps[spec.chans[c].dst];
        src.ii_penalty = std::max(src.ii_penalty, penalty);
        dst.ii_penalty = std::max(dst.ii_penalty, penalty);
    }
    for (ComponentSpec &s : spec.comps)
        s.ii += s.ii_penalty;
    for (ChannelSpec &cs : spec.chans) {
        cs.src_stair =
            Stair::of(spec.comps[cs.src].firings, cs.tokens);
        cs.dst_stair =
            Stair::of(spec.comps[cs.dst].firings, cs.tokens);
    }
    return spec;
}

} // namespace detail
} // namespace sim
} // namespace streamtensor

#endif // STREAMTENSOR_SIM_SIM_INTERNAL_H
