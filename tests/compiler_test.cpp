/** @file Unit tests for the compiler facade (paper Fig. 4). */

#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "ir/verifier.h"
#include "linalg/builders.h"
#include "models/block_builder.h"
#include "support/error.h"

using namespace streamtensor;
using ir::DataType;
using ir::TensorType;

TEST(Compiler, StagesRecordedInPipelineOrder)
{
    auto result = compiler::compile(linalg::mlpPipeline(), hls::u55c(), {});
    // Die_Partition runs *before* Fifo_Sizing so placement can
    // price crossing edges into the sizing LP.
    std::vector<std::string> expected{
        "Linalg_Opt",  "Linalg_Tiling", "Kernel_Fusion",
        "Dataflow_Opt", "HLS_Opt",      "Die_Partition",
        "Fifo_Sizing",  "Memory_Alloc", "Bufferization",
        "Code_Gen"};
    ASSERT_EQ(result.times.stages.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(result.times.stages[i].first, expected[i]);
    EXPECT_GT(result.times.total(), 0.0);
}

TEST(Compiler, CrossingChannelsStampedWithLinkModel)
{
    hls::FpgaPlatform linked = hls::u55c();
    linked.inter_die_latency_cycles = 16.0;
    linked.inter_die_ii_penalty = 1.0;
    auto result = compiler::compile(linalg::mlpPipeline(), linked, {});
    const auto &cg = result.design.components;
    int64_t flagged = 0;
    for (int64_t c = 0; c < cg.numChannels(); ++c) {
        const auto &ch = cg.channel(c);
        bool crosses = cg.component(ch.src).die !=
                       cg.component(ch.dst).die;
        EXPECT_EQ(ch.inter_die, crosses);
        EXPECT_EQ(ch.link_latency, crosses ? 16.0 : 0.0);
        EXPECT_EQ(ch.link_ii_penalty, crosses ? 1.0 : 0.0);
        flagged += ch.inter_die ? 1 : 0;
    }
    EXPECT_EQ(flagged, result.totalCrossings());
}

TEST(Compiler, LinkLatencyDeepensCrossingFifos)
{
    // Same graph, same placement (greedy is deterministic and
    // always spreads across dies); a costly link must never
    // shrink any FIFO and must deepen at least one unfolded
    // crossing channel (the LP prices the link delay into
    // no-stall depths).
    compiler::CompileOptions options;
    options.partition.strategy =
        partition::PartitionStrategy::Greedy;
    hls::FpgaPlatform free_link = hls::u55c();
    hls::FpgaPlatform slow_link = hls::u55c();
    slow_link.inter_die_latency_cycles = 512.0;
    auto a = compiler::compile(linalg::mlpPipeline(), free_link, options);
    auto b = compiler::compile(linalg::mlpPipeline(), slow_link, options);
    const auto &ca = a.design.components;
    const auto &cb = b.design.components;
    ASSERT_EQ(ca.numChannels(), cb.numChannels());
    ASSERT_GT(a.totalCrossings(), 0);
    ASSERT_EQ(a.totalCrossings(), b.totalCrossings());
    bool deepened = false;
    for (int64_t c = 0; c < ca.numChannels(); ++c) {
        EXPECT_GE(cb.channel(c).depth, ca.channel(c).depth);
        if (cb.channel(c).inter_die && !cb.channel(c).folded &&
            ca.component(cb.channel(c).src).kind !=
                dataflow::ComponentKind::Converter)
            deepened |=
                cb.channel(c).depth > ca.channel(c).depth;
    }
    EXPECT_TRUE(deepened);
}

TEST(Compiler, GreedyStrategyForcedByOptions)
{
    compiler::CompileOptions options;
    options.partition.strategy =
        partition::PartitionStrategy::Greedy;
    auto result =
        compiler::compile(linalg::mlpPipeline(), hls::u55c(), options);
    ASSERT_FALSE(result.partitions.empty());
    for (const auto &p : result.partitions)
        EXPECT_FALSE(p.used_ilp);
}

TEST(Compiler, ProducesVerifiedModuleAndCode)
{
    auto result = compiler::compile(linalg::mlpPipeline(), hls::u55c(), {});
    ASSERT_NE(result.module, nullptr);
    EXPECT_TRUE(ir::verifyModule(*result.module).ok());
    EXPECT_FALSE(result.code.hls_cpp.empty());
    EXPECT_FALSE(result.code.host_cpp.empty());
    EXPECT_FALSE(result.code.connectivity.empty());
}

TEST(Compiler, FifoDepthsAssignedEverywhere)
{
    auto result = compiler::compile(linalg::mlpPipeline(), hls::u55c(), {});
    const auto &cg = result.design.components;
    for (int64_t c = 0; c < cg.numChannels(); ++c) {
        EXPECT_GE(cg.channel(c).depth, 2);
    }
    EXPECT_EQ(result.sizing.size(),
              static_cast<size_t>(cg.numGroups()));
}

TEST(Compiler, MemoryAllocationFeasible)
{
    auto result = compiler::compile(linalg::mlpPipeline(), hls::u55c(), {});
    EXPECT_TRUE(result.memory.feasible);
    EXPECT_GT(result.memory.totalBytes(), 0);
}

TEST(Compiler, DepthCapLoopShrinksOverBudgetDesigns)
{
    // A platform with almost no on-chip memory forces the
    // feasibility loop to tighten the depth cap.
    hls::FpgaPlatform tiny = hls::u55c();
    tiny.lutram_kib = 16;
    tiny.bram_kib = 64;
    tiny.uram_kib = 64;
    auto result = compiler::compile(linalg::mlpPipeline(), tiny, {});
    // Depths were clamped (possibly still infeasible, but the
    // compiler must terminate and report).
    EXPECT_GE(result.clamped_fifos, 0);
}

TEST(Compiler, AutoConservativeTriggersUnderPressure)
{
    compiler::CompileOptions options; // equalization unset: auto
    options.conservative_threshold = 1e-9; // always trigger
    auto result =
        compiler::compile(linalg::mlpPipeline(), hls::u55c(), options);
    EXPECT_EQ(result.used_equalization,
              token::Equalization::Conservative);
}

TEST(Compiler, ExplicitEqualizationHonored)
{
    compiler::CompileOptions options;
    options.equalization = token::Equalization::Conservative;
    auto result =
        compiler::compile(linalg::mlpPipeline(), hls::u55c(), options);
    EXPECT_EQ(result.used_equalization,
              token::Equalization::Conservative);

    // A set mode also wins over memory pressure.
    options.equalization = token::Equalization::Normal;
    options.conservative_threshold = 1e-9;
    result =
        compiler::compile(linalg::mlpPipeline(), hls::u55c(), options);
    EXPECT_EQ(result.used_equalization, token::Equalization::Normal);
}

TEST(Compiler, LinalgStatsReported)
{
    // A graph with an elementwise chain: fusion count surfaces.
    linalg::Graph g("chain");
    int64_t x = g.addTensor(TensorType(DataType::I8, {32, 32}),
                            "x", linalg::TensorRole::Input);
    int64_t a =
        linalg::ewiseUnary(g, x, linalg::EwiseFn::Gelu, "a");
    int64_t b =
        linalg::ewiseUnary(g, a, linalg::EwiseFn::Scale, "b");
    g.tensor(b).role = linalg::TensorRole::Output;
    auto result = compiler::compile(std::move(g), hls::u55c(), {});
    EXPECT_EQ(result.elementwise_fused, 1);
}

TEST(Compiler, TransformerBlockEndToEnd)
{
    auto graph = models::buildTransformerBlock(
        models::gpt2Config(), models::decodeShapes(48));
    auto result =
        compiler::compile(std::move(graph), hls::u55c(), {});
    EXPECT_EQ(result.design.plan.groups.size(), 1u);
    EXPECT_TRUE(result.memory.feasible);
    EXPECT_TRUE(ir::verifyModule(*result.module).ok());
    EXPECT_GT(result.fold_stats.channels_folded, 0);
    EXPECT_GT(result.vectorized_components, 0);
}

TEST(Compiler, CustomCmaxSplitsDesign)
{
    compiler::CompileOptions options;
    options.c_max = 1; // nothing with a converter can fuse
    auto result =
        compiler::compile(linalg::mlpPipeline(), hls::u55c(), options);
    EXPECT_GT(result.design.plan.groups.size(), 1u);
}

TEST(Compiler, RejectsNonPositiveTilingSizes)
{
    // A non-positive tile size used to panic during tiling, and a
    // non-positive unroll budget compiled every kernel at unroll 1,
    // over that budget. Both now fail as user errors.
    for (int64_t bad : {0, -1}) {
        compiler::CompileOptions tile;
        tile.tiling.default_tile_size = bad;
        EXPECT_THROW(compiler::compile(linalg::mlpPipeline(),
                                       hls::u55c(), tile),
                     FatalError)
            << bad;

        compiler::CompileOptions budget;
        budget.tiling.overall_unroll_size = bad;
        EXPECT_THROW(compiler::compile(linalg::mlpPipeline(),
                                       hls::u55c(), budget),
                     FatalError)
            << bad;
    }
}
