/** @file Unit + property tests for LP-based FIFO sizing
 *  (paper §5.3.4). */

#include <gtest/gtest.h>

#include "support/error.h"
#include "token/fifo_sizing.h"

using namespace streamtensor;
using namespace streamtensor::token;

namespace {

/** Paper Fig. 8(f): kernel0 fans out to kernel1 and kernel2,
 *  kernel1 feeds kernel2. */
FifoSizingProblem
figure8f()
{
    FifoSizingProblem p;
    p.addNode({40.0, 103.0});  // kernel0
    p.addNode({120.0, 183.0}); // kernel1
    p.addNode({20.0, 146.0});  // kernel2
    p.addEdge(0, 1, 64);
    p.addEdge(0, 2, 64);
    p.addEdge(1, 2, 64);
    return p;
}

} // namespace

TEST(FifoSizing, Fig8fDelaysAndObjective)
{
    auto result = sizeFifos(figure8f());
    ASSERT_TRUE(result.used_lp);
    // Paper Fig. 8(f): delay[0][1] >= D[0] = 40, delay[1][2] >=
    // D[1] = 120, and delay[0][2] >= D[0] + D[1] = 160 (kernel2
    // waits for its latest operand): optimum 40 + 160 + 120.
    EXPECT_NEAR(result.objective, 320.0, 1e-6);
    EXPECT_NEAR(result.delays[0], 40.0, 1e-6);
    EXPECT_NEAR(result.delays[1], 160.0, 1e-6);
    EXPECT_NEAR(result.delays[2], 120.0, 1e-6);
}

TEST(FifoSizing, PathConstraintsSatisfied)
{
    auto problem = figure8f();
    auto result = sizeFifos(problem);
    // Every path's delay sum >= the pairwise threshold (Eq. 4/5).
    EXPECT_GE(result.delays[0] + 1e-9, 40.0);
    EXPECT_GE(result.delays[1] + 1e-9, 160.0);
    EXPECT_GE(result.delays[2] + 1e-9, 120.0);
    EXPECT_GE(result.delays[0] + result.delays[2] + 1e-9, 160.0);
}

TEST(FifoSizing, StartTimesAreLongestDPaths)
{
    auto result = sizeFifos(figure8f());
    EXPECT_DOUBLE_EQ(result.start_times[0], 0.0);
    EXPECT_DOUBLE_EQ(result.start_times[1], 40.0);
    EXPECT_DOUBLE_EQ(result.start_times[2], 160.0);
}

TEST(FifoSizing, DepthsAtLeastTwo)
{
    auto result = sizeFifos(figure8f());
    for (int64_t d : result.depths)
        EXPECT_GE(d, 2);
}

TEST(FifoSizing, ConservativeNeverDeeper)
{
    auto problem = figure8f();
    FifoSizingOptions normal;
    FifoSizingOptions conservative;
    conservative.equalization = Equalization::Conservative;
    auto rn = sizeFifos(problem, normal);
    auto rc = sizeFifos(problem, conservative);
    EXPECT_LE(rc.totalDepth(), rn.totalDepth());
}

TEST(FifoSizing, PotentialFallbackWhenPathsExplode)
{
    // A ladder graph has exponentially many paths; cap at 4 to
    // force the potential fallback.
    FifoSizingProblem p;
    for (int i = 0; i < 6; ++i)
        p.addNode({10.0, 100.0});
    for (int i = 0; i + 1 < 6; ++i) {
        p.addEdge(i, i + 1, 16);
    }
    p.addEdge(0, 2, 16);
    p.addEdge(2, 4, 16);
    FifoSizingOptions opts;
    opts.max_paths = 4;
    auto result = sizeFifos(p, opts);
    EXPECT_FALSE(result.used_lp);
    // Potentials still satisfy the single-edge constraints.
    for (double d : result.delays)
        EXPECT_GE(d + 1e-9, 10.0);
}

TEST(FifoSizing, RejectsCycles)
{
    FifoSizingProblem p;
    p.addNode({1.0, 10.0});
    p.addNode({1.0, 10.0});
    p.addEdge(0, 1, 4);
    p.addEdge(1, 0, 4);
    EXPECT_THROW(sizeFifos(p), FatalError);
}

TEST(FifoSizing, RejectsBadInputs)
{
    FifoSizingProblem p;
    p.addNode({1.0, 10.0});
    EXPECT_THROW(p.addNode({-1.0, 10.0}), FatalError);
    EXPECT_THROW(p.addNode({1.0, 0.0}), FatalError);
    EXPECT_THROW(p.addEdge(0, 0, 4), FatalError);
    EXPECT_THROW(p.addEdge(0, 5, 4), FatalError);
}

TEST(FifoSizing, EmptyGraph)
{
    FifoSizingProblem p;
    p.addNode({1.0, 10.0});
    auto result = sizeFifos(p);
    EXPECT_TRUE(result.depths.empty());
    EXPECT_EQ(result.objective, 0.0);
}

TEST(FifoSizing, ZeroSkewChainClampsDepthAboveZero)
{
    // A perfectly rate-matched chain with zero initial delays: the
    // LP optimum is all-zero delays (zero-depth channels), but the
    // derived depths must stay >= 2 — a literal depth-0 FIFO would
    // deadlock the handshake on the first token.
    FifoSizingProblem p;
    p.addNode({0.0, 100.0});
    p.addNode({0.0, 100.0});
    p.addNode({0.0, 100.0});
    p.addEdge(0, 1, 16);
    p.addEdge(1, 2, 16);
    auto result = sizeFifos(p);
    EXPECT_NEAR(result.objective, 0.0, 1e-9);
    for (double d : result.delays)
        EXPECT_NEAR(d, 0.0, 1e-9);
    for (int64_t depth : result.depths)
        EXPECT_GE(depth, 2);
}

TEST(FifoSizing, SingleTokenEdgeStillSized)
{
    // Degenerate single-token edge: depth derivation must not
    // underflow to 0 when tokens == 1 and the skew is tiny.
    FifoSizingProblem p;
    p.addNode({1.0, 2.0});
    p.addNode({1.0, 2.0});
    p.addEdge(0, 1, 1);
    auto result = sizeFifos(p);
    ASSERT_EQ(result.depths.size(), 1u);
    EXPECT_GE(result.depths[0], 2);
    EXPECT_GE(result.delays[0] + 1e-9, 1.0);
}

// ---- Crossing-edge pricing (inter-die link model) ----

TEST(FifoSizing, LinkLatencyEntersPathThresholds)
{
    // Fig. 8(f) with the 0->1 edge crossing a die boundary at 50
    // cycles: kernel1's operand lands 50 cycles later, and every
    // path through that edge inherits the delay.
    FifoSizingProblem p;
    p.addNode({40.0, 103.0});
    p.addNode({120.0, 183.0});
    p.addNode({20.0, 146.0});
    p.addEdge(0, 1, 64, /*link_latency=*/50.0);
    p.addEdge(0, 2, 64);
    p.addEdge(1, 2, 64);
    auto result = sizeFifos(p);
    ASSERT_TRUE(result.used_lp);
    EXPECT_DOUBLE_EQ(result.start_times[1], 90.0); // 40 + 50
    EXPECT_DOUBLE_EQ(result.start_times[2], 210.0); // 90 + 120
    // delay[0][1] >= D[0] + L = 90; delay[0][2] >= D[0] + L +
    // D[1] = 210; delay[1][2] >= D[1] = 120.
    EXPECT_GE(result.delays[0] + 1e-9, 90.0);
    EXPECT_GE(result.delays[0] + result.delays[2] + 1e-9, 210.0);
    EXPECT_GE(result.delays[1] + 1e-9, 210.0);
    EXPECT_NEAR(result.objective, 420.0, 1e-6);
}

TEST(FifoSizing, ZeroLinkCostIsBitIdentical)
{
    auto base = sizeFifos(figure8f());
    FifoSizingProblem p;
    p.addNode({40.0, 103.0});
    p.addNode({120.0, 183.0});
    p.addNode({20.0, 146.0});
    p.addEdge(0, 1, 64, 0.0);
    p.addEdge(0, 2, 64, 0.0);
    p.addEdge(1, 2, 64, 0.0);
    auto zero = sizeFifos(p);
    ASSERT_EQ(base.depths.size(), zero.depths.size());
    for (size_t e = 0; e < base.depths.size(); ++e) {
        EXPECT_EQ(base.depths[e], zero.depths[e]);
        EXPECT_EQ(base.delays[e], zero.delays[e]);
    }
    EXPECT_EQ(base.objective, zero.objective);
}

TEST(FifoSizing, LinkLatencyDeepensCrossingFifoMonotonically)
{
    // One producer/consumer pair at equal rates: the crossing FIFO
    // must absorb the round-trip link delay, so depth grows
    // monotonically with the latency and strictly beyond the
    // co-located depth once the link dominates the skew.
    auto depthAt = [](double latency) {
        FifoSizingProblem p;
        p.addNode({10.0, 138.0});
        p.addNode({10.0, 138.0});
        p.addEdge(0, 1, 64, latency);
        auto r = sizeFifos(p);
        return r.depths[0];
    };
    int64_t d0 = depthAt(0.0);
    int64_t prev = d0;
    for (double latency : {4.0, 16.0, 64.0, 256.0}) {
        int64_t d = depthAt(latency);
        EXPECT_GE(d, prev) << latency;
        prev = d;
    }
    EXPECT_GT(prev, d0);
}

TEST(FifoSizing, NodeIiPenaltySlowsEveryEdgeOfTheNode)
{
    // The II penalty is node-level (matching the simulators'
    // component pace model): a crossing kernel paces slower on
    // its co-located edges too. A slow consumer on a fast feed
    // needs a deeper FIFO, so penalising the consumer node must
    // never shrink — and here must grow — the depth of an edge
    // that itself has no link cost.
    auto depthWithPenalty = [](double penalty) {
        FifoSizingProblem p;
        p.addNode({10.0, 74.0});
        NodeTiming slow{10.0, 74.0};
        slow.ii_penalty = penalty;
        p.addNode(slow);
        p.addEdge(0, 1, 64); // co-located edge
        return sizeFifos(p).depths[0];
    };
    int64_t base = depthWithPenalty(0.0);
    int64_t penalised = depthWithPenalty(4.0);
    EXPECT_GE(base, 2);
    EXPECT_GT(penalised, base);
}

// ---- Property sweep: random chains with skip edges ----

class SizingProperty : public ::testing::TestWithParam<int>
{};

TEST_P(SizingProperty, LpNoWorseThanPotentials)
{
    uint64_t s = 0xabcd + GetParam();
    auto rnd = [&]() {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dull;
    };
    int n = 3 + rnd() % 8;
    FifoSizingProblem p;
    for (int i = 0; i < n; ++i) {
        double d = 5.0 + rnd() % 200;
        p.addNode({d, d + 100.0 + rnd() % 1000});
    }
    for (int i = 0; i + 1 < n; ++i)
        p.addEdge(i, i + 1, 8 + rnd() % 64);
    for (int i = 0; i + 2 < n; i += 2)
        if (rnd() % 2)
            p.addEdge(i, i + 2, 8 + rnd() % 64);

    FifoSizingOptions lp_opts;
    auto lp = sizeFifos(p, lp_opts);
    FifoSizingOptions pot_opts;
    pot_opts.max_paths = 0; // force fallback
    auto pot = sizeFifos(p, pot_opts);
    ASSERT_TRUE(lp.used_lp);
    ASSERT_FALSE(pot.used_lp);
    // The LP optimum never exceeds the potential solution.
    EXPECT_LE(lp.objective, pot.objective + 1e-6);
    // Depths from both are valid (>= 2, <= tokens bound).
    for (size_t e = 0; e < lp.depths.size(); ++e) {
        EXPECT_GE(lp.depths[e], 2);
        EXPECT_GE(pot.depths[e], 2);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SizingProperty,
                         ::testing::Range(0, 30));
