/** @file Unit + property tests for the cycle-level dataflow
 *  simulator. */

#include <gtest/gtest.h>

#include <thread>

#include "sim/simulator.h"

using namespace streamtensor;
using dataflow::Channel;
using dataflow::Component;
using dataflow::ComponentGraph;
using dataflow::ComponentKind;

namespace {

ir::ITensorType
tokenType(int64_t n)
{
    return ir::ITensorType(ir::DataType::I8, {1}, {n}, {1},
                           ir::AffineMap::identity(1));
}

int64_t
addKernel(ComponentGraph &g, const char *name, double d,
          double cycles)
{
    Component c;
    c.kind = ComponentKind::Kernel;
    c.name = name;
    c.initial_delay = d;
    c.total_cycles = cycles;
    return g.addComponent(c);
}

void
addChannel(ComponentGraph &g, int64_t src, int64_t dst,
           int64_t tokens, int64_t depth, bool folded = false)
{
    Channel ch;
    ch.src = src;
    ch.dst = dst;
    ch.type = tokenType(tokens);
    ch.tokens = tokens;
    ch.depth = depth;
    ch.folded = folded;
    g.addChannel(ch);
}

} // namespace

TEST(Sim, TwoKernelPipelineMakespan)
{
    ComponentGraph g;
    int64_t a = addKernel(g, "a", 10.0, 10.0 + 63.0);
    int64_t b = addKernel(g, "b", 5.0, 5.0 + 63.0);
    addChannel(g, a, b, 64, 64);
    auto r = sim::simulateGroup(g, 0);
    ASSERT_FALSE(r.deadlock);
    // b consumes a's tokens as they arrive: last token at
    // a's finish (73) and b fires right then.
    EXPECT_NEAR(r.cycles, 73.0, 2.0);
}

TEST(Sim, WorkConservation)
{
    ComponentGraph g;
    int64_t a = addKernel(g, "a", 1.0, 65.0);
    int64_t b = addKernel(g, "b", 1.0, 129.0);
    addChannel(g, a, b, 64, 8);
    auto r = sim::simulateGroup(g, 0);
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(r.channels[0].pushes, 64);
    EXPECT_EQ(r.channels[0].pops, 64);
}

TEST(Sim, BackPressureStallsProducer)
{
    ComponentGraph g;
    // Fast producer, slow consumer, tiny FIFO: producer stalls.
    int64_t a = addKernel(g, "a", 1.0, 65.0);    // II ~1
    int64_t b = addKernel(g, "b", 1.0, 641.0);   // II ~10
    addChannel(g, a, b, 64, 2);
    auto r = sim::simulateGroup(g, 0);
    ASSERT_FALSE(r.deadlock);
    EXPECT_GT(r.components[0].stall_cycles, 0.0);
    // Consumer-bound makespan.
    EXPECT_GE(r.cycles, 600.0);
}

TEST(Sim, MaxOccupancyBoundedByDepth)
{
    ComponentGraph g;
    int64_t a = addKernel(g, "a", 1.0, 65.0);
    int64_t b = addKernel(g, "b", 1.0, 641.0);
    addChannel(g, a, b, 64, 5);
    auto r = sim::simulateGroup(g, 0);
    EXPECT_LE(r.channels[0].max_occupancy, 5);
}

TEST(Sim, BurstLargerThanCapacityDeadlocks)
{
    ComponentGraph g;
    int64_t a = addKernel(g, "a", 1.0, 65.0);
    int64_t b = addKernel(g, "b", 1.0, 65.0);
    int64_t sink = addKernel(g, "sink", 1.0, 9.0);
    // b fires 4 times (its out edge has 4 tokens) and needs 16
    // tokens of a's output per firing, but capacity is 8.
    addChannel(g, a, b, 64, 8);
    addChannel(g, b, sink, 4, 2);
    sim::SimOptions opts;
    opts.max_cycles = 1e6;
    auto r = sim::simulateGroup(g, 0, opts);
    EXPECT_TRUE(r.deadlock);
    EXPECT_FALSE(r.timed_out);
    EXPECT_FALSE(r.blocked_components.empty());
}

TEST(Sim, TimeoutIsNotDeadlock)
{
    // A healthy two-kernel pipeline cut off mid-flight: the result
    // reports timed_out, not deadlock, and names no blocked
    // components (nothing is wedged, max_cycles is merely tight).
    ComponentGraph g;
    int64_t a = addKernel(g, "a", 1.0, 1.0 + 1023.0 * 10.0);
    int64_t b = addKernel(g, "b", 2.0, 2.0 + 1023.0 * 10.0);
    addChannel(g, a, b, 1024, 8);
    sim::SimOptions opts;
    opts.max_cycles = 500.0;
    auto r = sim::simulateGroup(g, 0, opts);
    EXPECT_TRUE(r.timed_out);
    EXPECT_FALSE(r.deadlock);
    EXPECT_TRUE(r.blocked_components.empty());
    // Progress up to the cap is still reported.
    EXPECT_GT(r.components[0].firings, 0);
    EXPECT_LE(r.cycles, 500.0);
}

TEST(Sim, SimulateAllThreadedMatchesSequential)
{
    // Three independent single-group pipelines; per-group
    // simulation is pure, so simulateAll must be bitwise identical
    // to simulating each group in turn, also when two threads call
    // it at once.
    ComponentGraph g;
    for (int64_t grp = 0; grp < 3; ++grp) {
        Component a;
        a.kind = ComponentKind::Kernel;
        a.name = "a";
        a.group = grp;
        a.initial_delay = 1.0 + grp;
        a.total_cycles = a.initial_delay + 63.0 * (1.0 + grp);
        int64_t ia = g.addComponent(a);
        Component b = a;
        b.name = "b";
        b.initial_delay = 2.0 + grp;
        b.total_cycles = b.initial_delay + 63.0;
        int64_t ib = g.addComponent(b);
        addChannel(g, ia, ib, 64, 4);
    }
    std::vector<sim::SimResult> seq;
    for (int64_t grp = 0; grp < g.numGroups(); ++grp)
        seq.push_back(sim::simulateGroup(g, grp));
    // Two callers at once, racing each other on one graph.
    std::vector<sim::SimResult> par[2];
    std::thread other([&] { par[1] = sim::simulateAll(g); });
    par[0] = sim::simulateAll(g);
    other.join();
    for (const auto &run : par) {
        ASSERT_EQ(seq.size(), run.size());
        for (size_t i = 0; i < seq.size(); ++i) {
            EXPECT_EQ(seq[i].deadlock, run[i].deadlock);
            EXPECT_EQ(seq[i].cycles, run[i].cycles);
            EXPECT_EQ(seq[i].first_output_cycle,
                      run[i].first_output_cycle);
            EXPECT_EQ(seq[i].events, run[i].events);
        }
    }
}

TEST(Sim, FoldedChannelCarriesBurst)
{
    ComponentGraph g;
    int64_t a = addKernel(g, "a", 1.0, 65.0);
    int64_t b = addKernel(g, "b", 1.0, 65.0);
    int64_t sink = addKernel(g, "sink", 1.0, 9.0);
    // Same burst shape, but folded: capacity = burst, so it runs.
    addChannel(g, a, b, 64, 2, /*folded=*/true);
    addChannel(g, b, sink, 4, 2);
    auto r = sim::simulateGroup(g, 0);
    EXPECT_FALSE(r.deadlock);
}

TEST(Sim, ReconvergentDiamondCompletes)
{
    ComponentGraph g;
    int64_t src = addKernel(g, "src", 5.0, 69.0);
    int64_t fast = addKernel(g, "fast", 2.0, 66.0);
    int64_t slow = addKernel(g, "slow", 500.0, 564.0);
    int64_t join = addKernel(g, "join", 1.0, 65.0);
    addChannel(g, src, fast, 64, 2);
    addChannel(g, src, slow, 64, 2);
    addChannel(g, fast, join, 64, 64); // sized for the skew
    addChannel(g, slow, join, 64, 2);
    auto r = sim::simulateGroup(g, 0);
    ASSERT_FALSE(r.deadlock);
    EXPECT_GE(r.cycles, 500.0);
}

TEST(Sim, FirstOutputCycleTracksStoreDma)
{
    ComponentGraph g;
    int64_t a = addKernel(g, "a", 10.0, 74.0);
    Component store;
    store.kind = ComponentKind::StoreDma;
    store.name = "store";
    store.initial_delay = 1.0;
    store.total_cycles = 65.0;
    int64_t s = g.addComponent(store);
    addChannel(g, a, s, 64, 4);
    auto r = sim::simulateGroup(g, 0);
    ASSERT_FALSE(r.deadlock);
    EXPECT_GT(r.first_output_cycle, 0.0);
    EXPECT_LE(r.first_output_cycle, r.cycles);
}

TEST(Sim, SourceOnlyGraphFinishes)
{
    ComponentGraph g;
    Component load;
    load.kind = ComponentKind::LoadDma;
    load.name = "load";
    load.initial_delay = 3.0;
    load.total_cycles = 35.0;
    int64_t l = g.addComponent(load);
    Component store;
    store.kind = ComponentKind::StoreDma;
    store.name = "store";
    store.initial_delay = 1.0;
    store.total_cycles = 33.0;
    int64_t s = g.addComponent(store);
    addChannel(g, l, s, 32, 4);
    auto r = sim::simulateGroup(g, 0);
    EXPECT_FALSE(r.deadlock);
    EXPECT_EQ(r.components[0].firings, 32);
}

TEST(Sim, EmptyGroup)
{
    ComponentGraph g;
    auto results = sim::simulateAll(g);
    EXPECT_TRUE(results.empty());
}

// ---- Property: deeper FIFOs never increase the makespan ----

class DepthMonotonicity : public ::testing::TestWithParam<int>
{};

TEST_P(DepthMonotonicity, DeeperNeverSlower)
{
    uint64_t s = 0xbeef + GetParam();
    auto rnd = [&]() {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dull;
    };
    // Random 4-stage chain.
    double prev_cycles = -1.0;
    std::vector<double> delays, totals;
    for (int i = 0; i < 4; ++i) {
        delays.push_back(1.0 + rnd() % 50);
        totals.push_back(delays.back() + 64.0 +
                         (rnd() % 8) * 64.0);
    }
    for (int64_t depth : {2, 4, 16, 64}) {
        ComponentGraph g;
        std::vector<int64_t> ids;
        for (int i = 0; i < 4; ++i)
            ids.push_back(addKernel(g, "k", delays[i], totals[i]));
        for (int i = 0; i + 1 < 4; ++i)
            addChannel(g, ids[i], ids[i + 1], 64, depth);
        auto r = sim::simulateGroup(g, 0);
        ASSERT_FALSE(r.deadlock);
        if (prev_cycles >= 0.0) {
            EXPECT_LE(r.cycles, prev_cycles + 1e-6);
        }
        prev_cycles = r.cycles;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DepthMonotonicity,
                         ::testing::Range(0, 20));

// ---- Waiter registration under multi-channel blocking ----

TEST(Sim, MultiChannelBlockingFanInCompletes)
{
    // A consumer fed by one fast and one slow producer through
    // depth-2 FIFOs blocks on both channels across many
    // re-examinations; registration must stay deduplicated and the
    // run must finish with conserved token counts.
    ComponentGraph g;
    int64_t fast = addKernel(g, "fast", 1.0, 65.0);
    int64_t slow = addKernel(g, "slow", 40.0, 40.0 + 8.0 * 64.0);
    int64_t join = addKernel(g, "join", 1.0, 65.0);
    addChannel(g, fast, join, 64, 2);
    addChannel(g, slow, join, 64, 2);
    auto r = sim::simulateGroup(g, 0);
    ASSERT_FALSE(r.deadlock);
    EXPECT_EQ(r.channels[0].pushes, 64);
    EXPECT_EQ(r.channels[0].pops, 64);
    EXPECT_EQ(r.channels[1].pushes, 64);
    EXPECT_EQ(r.channels[1].pops, 64);
    // The joiner is rate-limited by the slow producer.
    EXPECT_GE(r.cycles, 40.0 + 8.0 * 63.0);
    for (const auto &c : r.channels)
        EXPECT_LE(c.max_occupancy, 2);
}

TEST(Sim, ReconvergentDiamondBackpressureStats)
{
    // a fans out to b and c which reconverge at d; shallow FIFOs
    // force repeated space- and data-blocking on every component.
    ComponentGraph g;
    int64_t a = addKernel(g, "a", 1.0, 65.0);
    int64_t b = addKernel(g, "b", 2.0, 66.0);
    int64_t c = addKernel(g, "c", 30.0, 30.0 + 2.0 * 64.0);
    int64_t d = addKernel(g, "d", 1.0, 65.0);
    addChannel(g, a, b, 64, 2);
    addChannel(g, a, c, 64, 2);
    addChannel(g, b, d, 64, 2);
    addChannel(g, c, d, 64, 2);
    auto r = sim::simulateGroup(g, 0);
    ASSERT_FALSE(r.deadlock);
    for (const auto &ch : r.channels) {
        EXPECT_EQ(ch.pushes, 64);
        EXPECT_EQ(ch.pops, 64);
        EXPECT_LE(ch.max_occupancy, 2);
    }
    // a is back-pressured by c's slow drain, so it stalls.
    EXPECT_GT(r.components[0].stall_cycles, 0.0);
}
