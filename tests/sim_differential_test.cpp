/**
 * @file
 * Randomized differential tests: the leap-ahead batched simulator
 * (sim/simulator.h) against the retained per-firing reference
 * (sim/reference_simulator.h).
 *
 * Both simulators derive firing times from the shared
 * window-anchored expression, so the suite asserts *exact* (bitwise
 * double) equality on cycles, first_output_cycle, per-component
 * firings, finish times and stall cycles, crossing stall cycles,
 * and per-channel push/pop counts — over
 * randomized layered DAGs (mixed rates, non-divisible token
 * interleaves, folded channels, shallow and deep FIFOs), known
 * deadlock fixtures, and timeout fixtures. Peak occupancy is
 * asserted within capacity on both paths (the leap simulator
 * reports an upper bound, so exact equality is not required).
 * Both simulators credit a blocking episode's stall once, when the
 * firing that ends it fires; an episode a deadlock never ends
 * credits nothing.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/reference_simulator.h"
#include "sim/sim_internal.h"
#include "sim/simulator.h"

using namespace streamtensor;
using dataflow::Channel;
using dataflow::Component;
using dataflow::ComponentGraph;
using dataflow::ComponentKind;

namespace {

class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed ? seed : 1) {}

    uint64_t
    next()
    {
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        return state_ * 0x2545f4914f6cdd1dull;
    }

    /** Uniform in [0, bound). */
    int64_t pick(int64_t bound) { return next() % bound; }

  private:
    uint64_t state_;
};

ir::ITensorType
tokenType(int64_t n)
{
    return ir::ITensorType(ir::DataType::I8, {1}, {n}, {1},
                           ir::AffineMap::identity(1));
}

int64_t
addComponent(ComponentGraph &g, ComponentKind kind, double delay,
             double total)
{
    Component c;
    c.kind = kind;
    c.name = "c";
    c.initial_delay = delay;
    c.total_cycles = total;
    return g.addComponent(c);
}

void
addChannel(ComponentGraph &g, int64_t src, int64_t dst,
           int64_t tokens, int64_t depth, bool folded = false,
           double link_latency = 0.0, double link_ii_penalty = 0.0)
{
    Channel ch;
    ch.src = src;
    ch.dst = dst;
    ch.type = tokenType(tokens);
    ch.tokens = tokens;
    ch.depth = depth;
    ch.folded = folded;
    ch.inter_die = link_latency > 0.0 || link_ii_penalty > 0.0;
    ch.link_latency = link_latency;
    ch.link_ii_penalty = link_ii_penalty;
    g.addChannel(ch);
}

/** Assert the leap-ahead and reference results agree exactly for
 *  one group (see file comment for what is and is not compared).
 *  Channel stats are indexed group-locally, so capacities are
 *  resolved through the group's channel ids. */
void
expectIdenticalGroup(const ComponentGraph &g, int64_t group,
                     const sim::SimResult &leap,
                     const sim::SimResult &ref)
{
    auto channel_ids = g.groupChannels(group);
    EXPECT_EQ(leap.deadlock, ref.deadlock);
    EXPECT_EQ(leap.timed_out, ref.timed_out);
    EXPECT_EQ(leap.cycles, ref.cycles);
    EXPECT_EQ(leap.first_output_cycle, ref.first_output_cycle);
    EXPECT_EQ(leap.crossing_channels, ref.crossing_channels);
    ASSERT_EQ(leap.components.size(), ref.components.size());
    for (size_t i = 0; i < leap.components.size(); ++i) {
        EXPECT_EQ(leap.components[i].firings,
                  ref.components[i].firings)
            << "component " << i;
        EXPECT_EQ(leap.components[i].finish_time,
                  ref.components[i].finish_time)
            << "component " << i;
        EXPECT_EQ(leap.components[i].stall_cycles,
                  ref.components[i].stall_cycles)
            << "component " << i;
    }
    EXPECT_EQ(leap.crossing_stall_cycles, ref.crossing_stall_cycles);
    ASSERT_EQ(leap.channels.size(), ref.channels.size());
    ASSERT_EQ(leap.channels.size(), channel_ids.size());
    for (size_t c = 0; c < leap.channels.size(); ++c) {
        EXPECT_EQ(leap.channels[c].pushes, ref.channels[c].pushes)
            << "channel " << c;
        EXPECT_EQ(leap.channels[c].pops, ref.channels[c].pops)
            << "channel " << c;
        const Channel &ch = g.channel(channel_ids[c]);
        int64_t capacity = ch.folded
                               ? g.channelBurst(channel_ids[c])
                               : ch.depth;
        EXPECT_LE(leap.channels[c].max_occupancy, capacity)
            << "channel " << c;
        EXPECT_LE(ref.channels[c].max_occupancy, capacity)
            << "channel " << c;
    }
    EXPECT_EQ(leap.blocked_components, ref.blocked_components);
}

void
runBoth(const ComponentGraph &g, const sim::SimOptions &options = {})
{
    for (int64_t group = 0; group < g.numGroups(); ++group) {
        auto leap = sim::simulateGroup(g, group, options);
        auto ref = sim::simulateGroupReference(g, group, options);
        expectIdenticalGroup(g, group, leap, ref);
    }
}

/** Random layered DAG: every component gets at least one input from
 *  an earlier layer, plus extra reconvergent edges; tokens mix
 *  divisible and jittery interleaves; depths span deadlock-prone
 *  shallow to ample; some channels are folded. With @p with_links,
 *  roughly a third of the channels become inter-die crossings with
 *  random link latency / II penalty (the die-placement cost
 *  model). */
ComponentGraph
randomGraph(Rng &rng, bool with_links = false)
{
    ComponentGraph g;
    int64_t n = 3 + rng.pick(8);
    std::vector<int64_t> ids;
    for (int64_t i = 0; i < n; ++i) {
        double delay = 1.0 + static_cast<double>(rng.pick(200));
        double span = static_cast<double>(16 + rng.pick(2048));
        ComponentKind kind = ComponentKind::Kernel;
        if (i == 0 && rng.pick(3) == 0)
            kind = ComponentKind::LoadDma;
        if (i == n - 1 && rng.pick(2) == 0)
            kind = ComponentKind::StoreDma;
        ids.push_back(addComponent(g, kind, delay, delay + span));
    }
    const int64_t token_choices[] = {1,  2,  3,  5,  7,  8, 12,
                                     16, 24, 31, 48, 64, 96, 128};
    const int64_t depth_choices[] = {1, 2, 2, 3, 4, 8, 16, 64, 256};
    const double latency_choices[] = {1.0, 3.0, 8.0, 50.0, 333.0};
    const double penalty_choices[] = {0.0, 0.0, 1.0, 2.5};
    auto channel = [&](int64_t src, int64_t dst) {
        int64_t tokens = token_choices[rng.pick(14)];
        int64_t depth = depth_choices[rng.pick(9)];
        bool folded = rng.pick(8) == 0;
        double latency = 0.0, penalty = 0.0;
        if (with_links && rng.pick(3) == 0) {
            latency = latency_choices[rng.pick(5)];
            penalty = penalty_choices[rng.pick(4)];
        }
        addChannel(g, src, dst, tokens, depth, folded, latency,
                   penalty);
    };
    for (int64_t i = 1; i < n; ++i)
        channel(ids[rng.pick(i)], ids[i]);
    int64_t extra = rng.pick(n);
    for (int64_t e = 0; e < extra; ++e) {
        int64_t dst = 1 + rng.pick(n - 1);
        channel(ids[rng.pick(dst)], ids[dst]);
    }
    return g;
}

} // namespace

// ---- Randomized graphs (completing, deadlocking, or timing out;
// ---- whichever way they go, the two simulators must agree) ----

class Differential : public ::testing::TestWithParam<int>
{};

TEST_P(Differential, LeapMatchesReference)
{
    Rng rng(0x5eed0000 + GetParam());
    ComponentGraph g = randomGraph(rng);
    sim::SimOptions options;
    options.max_cycles = 2.0e6;
    runBoth(g, options);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::Range(0, 100));

// ---- The same contract under the inter-die link model: random
// ---- crossing channels with latency and II penalty. The two
// ---- engines implement the link very differently (time-shifted
// ---- visibility queries vs in-flight arrival/credit queues), so
// ---- exact equality here is the load-bearing guarantee that
// ---- placement-aware cycles are well-defined. ----

class DifferentialLinked : public ::testing::TestWithParam<int>
{};

TEST_P(DifferentialLinked, LeapMatchesReferenceWithLinkCosts)
{
    Rng rng(0x11780000 + GetParam());
    ComponentGraph g = randomGraph(rng, /*with_links=*/true);
    sim::SimOptions options;
    options.max_cycles = 2.0e6;
    runBoth(g, options);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialLinked,
                         ::testing::Range(0, 100));

// ---- Crossing-cost fixtures ----

TEST(SimDifferential, LinkLatencyShiftsChainByExactlyL)
{
    // Ample depths and data-bound consumers (faster pace than the
    // source): the only effect of a single crossing on the chain
    // is a rigid downstream shift by the link latency.
    constexpr double kLatency = 37.0;
    auto build = [&](double latency) {
        ComponentGraph g;
        int64_t a =
            addComponent(g, ComponentKind::Kernel, 1.0, 65.0);
        int64_t b =
            addComponent(g, ComponentKind::Kernel, 0.5, 33.0);
        int64_t s =
            addComponent(g, ComponentKind::StoreDma, 0.25, 17.0);
        addChannel(g, a, b, 64, 1024, false, latency);
        addChannel(g, b, s, 64, 1024);
        return g;
    };
    ComponentGraph base = build(0.0);
    ComponentGraph linked = build(kLatency);
    auto r0 = sim::simulateGroup(base, 0);
    auto r1 = sim::simulateGroup(linked, 0);
    ASSERT_FALSE(r0.deadlock);
    ASSERT_FALSE(r1.deadlock);
    EXPECT_EQ(r0.crossing_channels, 0);
    EXPECT_EQ(r1.crossing_channels, 1);
    EXPECT_GT(r1.cycles, r0.cycles);
    EXPECT_DOUBLE_EQ(r1.cycles, r0.cycles + kLatency);
    EXPECT_DOUBLE_EQ(r1.first_output_cycle,
                     r0.first_output_cycle + kLatency);
    // Every stall of b waits on a token still crossing the link,
    // none of the store's does: b waits 37.5 cycles for its first
    // token, then 0.5 per later one (a's II 64/63 against b's
    // 32.5/63), so the crossing share is b's stall exactly.
    EXPECT_EQ(r0.crossing_stall_cycles, 0.0);
    EXPECT_EQ(r1.crossing_stall_cycles, r1.components[1].stall_cycles);
    EXPECT_NEAR(r1.crossing_stall_cycles, 37.5 + 63 * 0.5, 1e-9);
    EXPECT_GT(r1.components[2].stall_cycles, 0.0);
    runBoth(linked);
}

TEST(SimDifferential, CreditReturnLatencyBackpressuresProducer)
{
    // A shallow crossing FIFO: the producer must wait for pop
    // credits that return a full link latency late, so the link
    // hurts even when the raw data path is long done.
    auto build = [&](double latency) {
        ComponentGraph g;
        int64_t a =
            addComponent(g, ComponentKind::Kernel, 1.0, 65.0);
        int64_t b =
            addComponent(g, ComponentKind::Kernel, 1.0, 65.0);
        addChannel(g, a, b, 64, 2, false, latency);
        return g;
    };
    auto r0 = sim::simulateGroup(build(0.0), 0);
    ComponentGraph linked = build(100.0);
    auto r1 = sim::simulateGroup(linked, 0);
    ASSERT_FALSE(r0.deadlock);
    ASSERT_FALSE(r1.deadlock);
    EXPECT_GT(r1.cycles, r0.cycles + 100.0);
    runBoth(linked);
}

TEST(SimDifferential, IiPenaltySlowsCrossingEndpoints)
{
    auto build = [&](double penalty) {
        ComponentGraph g;
        int64_t a =
            addComponent(g, ComponentKind::Kernel, 1.0, 129.0);
        int64_t b =
            addComponent(g, ComponentKind::StoreDma, 2.0, 130.0);
        addChannel(g, a, b, 128, 256, false, 0.0, penalty);
        return g;
    };
    auto r0 = sim::simulateGroup(build(0.0), 0);
    ComponentGraph linked = build(2.0);
    auto r1 = sim::simulateGroup(linked, 0);
    ASSERT_FALSE(r1.deadlock);
    // Both endpoints pace 2 cycles slower per firing (within
    // rounding of the per-firing interval arithmetic).
    EXPECT_GT(r1.cycles, r0.cycles + 250.0);
    runBoth(linked);
}

// ---- Per-endpoint stairs: every specialised form answers with
// ---- the general form's integers ----

TEST(SimDifferential, StairFormsMatchGeneralStair)
{
    using sim::detail::Stair;
    int64_t forms[4] = {0, 0, 0, 0};
    for (int64_t firings = 1; firings <= 36; ++firings) {
        for (int64_t tokens = 0; tokens <= 36; ++tokens) {
            Stair st = Stair::of(firings, tokens);
            ++forms[static_cast<int>(st.form)];
            for (int64_t k = -1; k < firings; ++k)
                ASSERT_EQ(st.cumulative(k),
                          sim::detail::cumulativeTokens(k, firings,
                                                        tokens))
                    << firings << " " << tokens << " " << k;
            for (int64_t n = -1; n <= tokens + 1; ++n) {
                ASSERT_EQ(st.lastWithin(n),
                          sim::detail::lastFiringWithin(n, firings,
                                                        tokens))
                    << firings << " " << tokens << " " << n;
                ASSERT_EQ(st.firstReaching(n),
                          sim::detail::firstFiringReaching(
                              n, firings, tokens))
                    << firings << " " << tokens << " " << n;
            }
        }
    }
    for (int f = 0; f < 4; ++f)
        EXPECT_GT(forms[f], 0) << "form " << f;
}

// ---- Commit-time blocking: a component whose batch ends on a
// ---- firing already known infeasible blocks at that firing's
// ---- pace time without probing it by an event ----

TEST(SimDifferential, FastFollowersNeedNoProbeEvents)
{
    // A slow load feeding two II-1 stages through depth-2 FIFOs:
    // each follower fires once per token and then waits ten
    // cycles for the next. The leap engine wakes a follower when
    // the token lands; it must not also spend an event probing
    // the follower's pace time, one cycle after each firing.
    constexpr int64_t kTokens = 1000;
    ComponentGraph g;
    int64_t load =
        addComponent(g, ComponentKind::LoadDma, 1.0,
                     1.0 + 10.0 * static_cast<double>(kTokens - 1));
    int64_t kernel =
        addComponent(g, ComponentKind::Kernel, 2.0,
                     2.0 + static_cast<double>(kTokens - 1));
    int64_t store =
        addComponent(g, ComponentKind::StoreDma, 3.0,
                     3.0 + static_cast<double>(kTokens - 1));
    addChannel(g, load, kernel, kTokens, 2);
    addChannel(g, kernel, store, kTokens, 2);
    auto leap = sim::simulateGroup(g, 0);
    auto ref = sim::simulateGroupReference(g, 0);
    ASSERT_FALSE(leap.deadlock);
    EXPECT_EQ(leap.components.back().firings, kTokens);
    expectIdenticalGroup(g, 0, leap, ref);
    EXPECT_LE(leap.events, 3 * kTokens);
}

// ---- Known-deadlock fixtures ----

TEST(SimDifferential, BurstLargerThanCapacityDeadlocks)
{
    ComponentGraph g;
    int64_t a = addComponent(g, ComponentKind::Kernel, 1.0, 65.0);
    int64_t b = addComponent(g, ComponentKind::Kernel, 1.0, 65.0);
    int64_t s = addComponent(g, ComponentKind::Kernel, 1.0, 9.0);
    // b needs 16 of a's tokens per firing but capacity is 8.
    addChannel(g, a, b, 64, 8);
    addChannel(g, b, s, 4, 2);
    sim::SimOptions options;
    options.max_cycles = 1e6;
    auto leap = sim::simulateGroup(g, 0, options);
    EXPECT_TRUE(leap.deadlock);
    EXPECT_FALSE(leap.timed_out);
    runBoth(g, options);
}

TEST(SimDifferential, ReconvergentBackpressureDeadlocks)
{
    // Reconvergent pair where the join's burst on the direct edge
    // exceeds that FIFO's depth: the join can never fire, the
    // upstream chain wedges behind it.
    ComponentGraph g;
    int64_t src = addComponent(g, ComponentKind::Kernel, 5.0, 69.0);
    int64_t a = addComponent(g, ComponentKind::Kernel, 2.0, 66.0);
    int64_t join = addComponent(g, ComponentKind::Kernel, 1.0, 65.0);
    int64_t sink = addComponent(g, ComponentKind::Kernel, 1.0, 9.0);
    addChannel(g, src, a, 64, 64);
    addChannel(g, src, join, 64, 8); // join burst is 16 > 8
    addChannel(g, a, join, 64, 64);
    addChannel(g, join, sink, 4, 2);
    sim::SimOptions options;
    options.max_cycles = 1e7;
    auto leap = sim::simulateGroup(g, 0, options);
    EXPECT_TRUE(leap.deadlock);
    EXPECT_FALSE(leap.timed_out);
    EXPECT_FALSE(leap.blocked_components.empty());
    runBoth(g, options);
}

TEST(SimDifferential, FoldedBurstChainCompletes)
{
    ComponentGraph g;
    int64_t a = addComponent(g, ComponentKind::Kernel, 1.0, 65.0);
    int64_t b = addComponent(g, ComponentKind::Kernel, 1.0, 65.0);
    int64_t s = addComponent(g, ComponentKind::StoreDma, 1.0, 9.0);
    addChannel(g, a, b, 64, 2, /*folded=*/true);
    addChannel(g, b, s, 4, 2);
    auto leap = sim::simulateGroup(g, 0);
    EXPECT_FALSE(leap.deadlock);
    runBoth(g);
}

// ---- Timeout fixtures: both report timed_out, not deadlock, and
// ---- agree on everything committed before the cap ----

TEST(SimDifferential, TimeoutAgreesWithReference)
{
    ComponentGraph g;
    int64_t a = addComponent(g, ComponentKind::Kernel, 1.0,
                             1.0 + 4095.0 * 50.0);
    int64_t b = addComponent(g, ComponentKind::Kernel, 2.0,
                             2.0 + 4095.0 * 50.0);
    addChannel(g, a, b, 4096, 16);
    sim::SimOptions options;
    options.max_cycles = 20000.0;
    auto leap = sim::simulateGroup(g, 0, options);
    EXPECT_TRUE(leap.timed_out);
    EXPECT_FALSE(leap.deadlock);
    EXPECT_TRUE(leap.blocked_components.empty());
    runBoth(g, options);
}

// ---- Leap efficiency: a single unblocked pipeline costs
// ---- O(components) heap events, not O(firings) ----

TEST(SimDifferential, UnblockedPipelineEventsLinearInComponents)
{
    constexpr int64_t kComponents = 8;
    constexpr int64_t kTokens = 20000;
    ComponentGraph g;
    std::vector<int64_t> ids;
    for (int64_t i = 0; i < kComponents; ++i) {
        // Equal rates (II = 1), staggered starts, ample depths: a
        // pure steady-state stream.
        double delay = 1.0 + 100.0 * static_cast<double>(i);
        ids.push_back(addComponent(
            g, i + 1 == kComponents ? ComponentKind::StoreDma
                                    : ComponentKind::Kernel,
            delay, delay + static_cast<double>(kTokens - 1)));
    }
    for (int64_t i = 0; i + 1 < kComponents; ++i)
        addChannel(g, ids[i], ids[i + 1], kTokens, kTokens);
    auto leap = sim::simulateGroup(g, 0);
    ASSERT_FALSE(leap.deadlock);
    EXPECT_EQ(leap.components.back().firings, kTokens);
    // One initial event plus at most a few wakes per component.
    EXPECT_LE(leap.events, 4 * kComponents);
    // The reference pays one event per firing.
    auto ref = sim::simulateGroupReference(g, 0);
    EXPECT_GE(ref.events, kComponents * kTokens);
    expectIdenticalGroup(g, 0, leap, ref);
}
