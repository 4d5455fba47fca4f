/** @file Unit + property tests for the Linalg tiling space
 *  (paper §5.1) and the black-box tuner. */

#include <gtest/gtest.h>

#include "dse/blackbox_tuner.h"
#include "dse/tiling_space.h"
#include "linalg/builders.h"
#include "support/math_util.h"

using namespace streamtensor;
using ir::DataType;
using ir::TensorType;

namespace {

linalg::Graph
twoMatmuls()
{
    linalg::Graph g("two");
    int64_t x = g.addTensor(TensorType(DataType::I8, {32, 64}),
                            "x", linalg::TensorRole::Input);
    int64_t w1 = g.addTensor(TensorType(DataType::I4, {64, 128}),
                             "w1", linalg::TensorRole::Parameter);
    int64_t h = linalg::matmul(g, x, w1, DataType::I8, "mm1");
    int64_t w2 = g.addTensor(TensorType(DataType::I4, {128, 32}),
                             "w2", linalg::TensorRole::Parameter);
    int64_t y = linalg::matmul(g, h, w2, DataType::I8, "mm2");
    g.tensor(y).role = linalg::TensorRole::Output;
    return g;
}

} // namespace

TEST(Tiling, TileSizesDivideExtents)
{
    auto g = twoMatmuls();
    dse::TilingOptions opts;
    opts.default_tile_size = 16;
    auto configs = dse::exploreTiling(g, opts);
    for (const auto &[id, cfg] : configs) {
        const auto &op = g.op(id);
        ASSERT_EQ(cfg.tile_sizes.size(), op.loop_extents.size());
        for (size_t l = 0; l < cfg.tile_sizes.size(); ++l) {
            EXPECT_EQ(op.loop_extents[l] % cfg.tile_sizes[l], 0);
            EXPECT_LE(cfg.tile_sizes[l], 16);
        }
    }
}

TEST(Tiling, NonDividingDefaultSnapsToDivisor)
{
    linalg::Graph g("odd");
    int64_t x = g.addTensor(TensorType(DataType::I8, {6, 9}), "x",
                            linalg::TensorRole::Input);
    int64_t y =
        linalg::ewiseUnary(g, x, linalg::EwiseFn::Gelu, "gelu");
    g.tensor(y).role = linalg::TensorRole::Output;
    dse::TilingOptions opts;
    opts.default_tile_size = 4;
    auto configs = dse::exploreTiling(g, opts);
    const auto &cfg = configs.begin()->second;
    EXPECT_EQ(cfg.tile_sizes[0], 3); // largest divisor of 6 <= 4
    EXPECT_EQ(cfg.tile_sizes[1], 3); // largest divisor of 9 <= 4
}

TEST(Tiling, UnrollBudgetRespected)
{
    auto g = twoMatmuls();
    dse::TilingOptions opts;
    opts.overall_unroll_size = 64;
    opts.max_unroll_per_kernel = 32;
    auto configs = dse::exploreTiling(g, opts);
    int64_t spent = 0;
    for (const auto &[id, cfg] : configs) {
        spent += cfg.unroll;
        EXPECT_LE(cfg.unroll, 32);
        EXPECT_TRUE(isPowerOf2(cfg.unroll));
    }
    EXPECT_LE(spent, 64);
}

TEST(Tiling, IntensityDrivenBalance)
{
    // The heavier matmul (mm1: 32x128x64 vs mm2: 32x32x128)
    // receives at least the unroll of the lighter one.
    auto g = twoMatmuls();
    dse::TilingOptions opts;
    opts.overall_unroll_size = 128;
    opts.max_unroll_per_kernel = 64;
    auto configs = dse::exploreTiling(g, opts);
    EXPECT_GE(configs[0].unroll, configs[1].unroll);
    double lat0 = dse::estimateLatency(g.op(0), configs[0]);
    double lat1 = dse::estimateLatency(g.op(1), configs[1]);
    // Balanced to within one doubling.
    EXPECT_LE(std::max(lat0, lat1) / std::min(lat0, lat1), 4.1);
}

TEST(Tiling, PermutationMovesReductionOutward)
{
    auto g = twoMatmuls();
    auto configs = dse::exploreTiling(g, {});
    // matmul loops (m, n, k): permutation lists k (reduction)
    // first, then the parallel loops in order.
    EXPECT_EQ(configs[0].permutation,
              (std::vector<int64_t>{2, 0, 1}));
}

TEST(Tiling, VectorLanesDivideTokenAndUnroll)
{
    auto g = twoMatmuls();
    dse::TilingOptions opts;
    opts.overall_unroll_size = 512;
    opts.max_unroll_per_kernel = 256;
    auto configs = dse::exploreTiling(g, opts);
    for (const auto &[id, cfg] : configs) {
        int64_t token = 1;
        const auto &op = g.op(id);
        for (size_t l = 0; l < op.iterators.size(); ++l)
            if (op.iterators[l] == linalg::IteratorKind::Parallel)
                token *= cfg.tile_sizes[l];
        EXPECT_LE(cfg.vector_lanes, cfg.unroll);
        EXPECT_EQ(token % cfg.vector_lanes, 0);
    }
}

TEST(Tiling, InterTileTrips)
{
    auto g = twoMatmuls();
    auto configs = dse::exploreTiling(g, {});
    auto trips = configs[0].interTileTrips(g.op(0));
    ASSERT_EQ(trips.size(), 3u);
    for (size_t l = 0; l < trips.size(); ++l) {
        EXPECT_EQ(trips[l] * configs[0].tile_sizes[l],
                  g.op(0).loop_extents[l]);
    }
}

// ---- Black-box tuner ----

TEST(Tuner, DeterministicForFixedSeed)
{
    dse::BlackboxTuner a(7), b(7);
    a.addParam("x", {1, 2, 3});
    b.addParam("x", {1, 2, 3});
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.ask(), b.ask());
}

TEST(Tuner, TracksBest)
{
    dse::BlackboxTuner tuner(11);
    int64_t p = tuner.addParam("x", {1, 2, 4, 8});
    for (int i = 0; i < 30; ++i) {
        auto cfg = tuner.ask();
        // Score: distance from 4 — the tuner should find x=4.
        tuner.tell(cfg, std::abs(static_cast<double>(cfg[p]) - 4));
    }
    EXPECT_EQ(tuner.best()[p], 4);
    EXPECT_EQ(tuner.bestScore(), 0.0);
    EXPECT_EQ(tuner.numTrials(), 30);
}

TEST(Tuner, ValuesComeFromChoices)
{
    dse::BlackboxTuner tuner(13);
    tuner.addParam("a", {5, 10});
    tuner.addParam("b", {7});
    for (int i = 0; i < 20; ++i) {
        auto cfg = tuner.ask();
        EXPECT_TRUE(cfg[0] == 5 || cfg[0] == 10);
        EXPECT_EQ(cfg[1], 7);
        tuner.tell(cfg, 1.0);
    }
}

TEST(Tuner, ErrorsWithoutTrials)
{
    dse::BlackboxTuner tuner;
    tuner.addParam("a", {1});
    EXPECT_THROW(tuner.best(), FatalError);
}

TEST(Tiling, RejectsNonPositiveSizes)
{
    // Each size must be >= 1: a zero or negative tile size used to
    // panic inside largestDivisorUpTo, and a non-positive unroll
    // budget returned every kernel at unroll 1, over the budget.
    auto g = twoMatmuls();
    for (int64_t bad : {0, -4}) {
        dse::TilingOptions tile;
        tile.default_tile_size = bad;
        EXPECT_THROW(dse::exploreTiling(g, tile), FatalError) << bad;

        dse::TilingOptions budget;
        budget.overall_unroll_size = bad;
        EXPECT_THROW(dse::exploreTiling(g, budget), FatalError)
            << bad;

        dse::TilingOptions per_kernel;
        per_kernel.max_unroll_per_kernel = bad;
        EXPECT_THROW(dse::exploreTiling(g, per_kernel), FatalError)
            << bad;
    }
    dse::TilingOptions ones;
    ones.default_tile_size = 1;
    ones.overall_unroll_size = 1;
    ones.max_unroll_per_kernel = 1;
    EXPECT_NO_THROW(dse::exploreTiling(g, ones));
}
