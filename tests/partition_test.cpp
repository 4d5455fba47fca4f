/** @file Unit tests for die partitioning (ILP) and memory
 *  allocation (paper §5.3 items 2-3). */

#include <gtest/gtest.h>

#include "dataflow/fusion_apply.h"
#include "hls/profiling.h"
#include "hls/resource.h"
#include "linalg/builders.h"
#include "partition/die_partition.h"
#include "partition/memory_alloc.h"

using namespace streamtensor;
using ir::DataType;
using ir::TensorType;

namespace {

dataflow::AcceleratorDesign
chainDesign(int64_t n)
{
    linalg::Graph g("chain");
    int64_t t = g.addTensor(TensorType(DataType::I8, {32, 32}),
                            "x", linalg::TensorRole::Input);
    for (int64_t i = 0; i < n; ++i) {
        t = linalg::ewiseUnary(g, t, linalg::EwiseFn::Gelu,
                               "e" + std::to_string(i));
    }
    g.tensor(t).role = linalg::TensorRole::Output;
    auto configs = dse::exploreTiling(g, {});
    auto design = dataflow::buildAccelerator(g, configs, 1 << 30);
    hls::profileComponents(design.components, hls::u55c());
    return design;
}

/** A reconvergent design: one input fans out into @p branches
 *  elementwise chains that are summed pairwise — the shape where
 *  greedy's topological wavefront cuts more edges than the ILP. */
dataflow::AcceleratorDesign
branchedDesign(int64_t branches, int64_t depth)
{
    linalg::Graph g("branched");
    int64_t x = g.addTensor(TensorType(DataType::I8, {32, 32}),
                            "x", linalg::TensorRole::Input);
    std::vector<int64_t> tips;
    for (int64_t b = 0; b < branches; ++b) {
        int64_t t = x;
        for (int64_t i = 0; i < depth; ++i) {
            t = linalg::ewiseUnary(
                g, t, linalg::EwiseFn::Gelu,
                "b" + std::to_string(b) + "_e" +
                    std::to_string(i));
        }
        tips.push_back(t);
    }
    int64_t acc = tips[0];
    for (size_t b = 1; b < tips.size(); ++b) {
        acc = linalg::ewiseBinary(g, acc, tips[b],
                                  linalg::EwiseFn::Add,
                                  "sum" + std::to_string(b));
    }
    g.tensor(acc).role = linalg::TensorRole::Output;
    auto configs = dse::exploreTiling(g, {});
    auto design = dataflow::buildAccelerator(g, configs, 1 << 30);
    hls::profileComponents(design.components, hls::u55c());
    return design;
}

/** Assignment validity: every group member placed on a real die,
 *  per-die LUTs within the platform's per-die capacity, and the
 *  per-die tallies consistent with the assignment. */
void
expectValidPartition(const dataflow::ComponentGraph &g,
                     int64_t group,
                     const partition::PartitionResult &result,
                     const hls::FpgaPlatform &platform)
{
    ASSERT_EQ(result.die_luts.size(),
              static_cast<size_t>(platform.num_dies));
    double capacity =
        static_cast<double>(platform.dieResources().luts);
    double placed = 0.0;
    for (int64_t id : g.groupComponents(group)) {
        int64_t die = g.component(id).die;
        EXPECT_GE(die, 0);
        EXPECT_LT(die, platform.num_dies);
        EXPECT_EQ(result.die_of[id], die);
        placed += hls::estimateComponent(g.component(id)).luts;
    }
    double tallied = 0.0;
    for (double luts : result.die_luts) {
        EXPECT_LE(luts, capacity);
        tallied += luts;
    }
    EXPECT_NEAR(placed, tallied, 1e-6);
}

} // namespace

TEST(DiePartition, EveryComponentAssigned)
{
    auto design = chainDesign(6);
    auto result = partition::partitionGroup(design.components, 0,
                                            hls::u55c());
    for (int64_t id : design.components.groupComponents(0)) {
        int64_t die = design.components.component(id).die;
        EXPECT_GE(die, 0);
        EXPECT_LT(die, hls::u55c().num_dies);
    }
    EXPECT_GE(result.crossings, 0);
}

TEST(DiePartition, IlpKeepsChainsContiguousish)
{
    auto design = chainDesign(4);
    partition::PartitionOptions opts;
    opts.max_ilp_components = 64;
    auto result = partition::partitionGroup(design.components, 0,
                                            hls::u55c(), opts);
    // A pipeline should not cross dies more than (dies - 1) times
    // when balance pressure is mild.
    EXPECT_LE(result.crossings, hls::u55c().num_dies + 2);
}

TEST(DiePartition, GreedyFallbackOnLargeGroups)
{
    auto design = chainDesign(10);
    partition::PartitionOptions opts;
    opts.max_ilp_components = 2; // force greedy
    auto result = partition::partitionGroup(design.components, 0,
                                            hls::u55c(), opts);
    EXPECT_FALSE(result.used_ilp);
}

TEST(DiePartition, GreedyStrategyForcesFallback)
{
    auto design = chainDesign(4);
    partition::PartitionOptions opts;
    opts.strategy = partition::PartitionStrategy::Greedy;
    opts.max_ilp_components = 64; // would otherwise use the ILP
    auto result = partition::partitionGroup(design.components, 0,
                                            hls::u55c(), opts);
    EXPECT_FALSE(result.used_ilp);
    expectValidPartition(design.components, 0, result,
                         hls::u55c());
}

// ---- ILP-vs-greedy differential: on every group small enough
// ---- for the ILP, greedy's crossings must be >= the ILP's, and
// ---- both assignments must be valid (every component placed,
// ---- per-die capacity respected).

TEST(DiePartition, GreedyNeverBeatsIlpOnChains)
{
    // A fabric whose per-die slice fits each fixture whole, so
    // capacity validity is meaningful for both partitioners.
    hls::FpgaPlatform roomy = hls::u55c();
    roomy.lut_count *= 8;
    for (int64_t n : {2, 3, 5, 7, 9}) {
        auto design = chainDesign(n);
        partition::PartitionOptions ilp_opts;
        ilp_opts.max_ilp_components = 64;
        auto ilp = partition::partitionGroup(
            design.components, 0, roomy, ilp_opts);
        expectValidPartition(design.components, 0, ilp, roomy);

        partition::PartitionOptions greedy_opts;
        greedy_opts.strategy = partition::PartitionStrategy::Greedy;
        auto greedy = partition::partitionGroup(
            design.components, 0, roomy, greedy_opts);
        EXPECT_FALSE(greedy.used_ilp);
        expectValidPartition(design.components, 0, greedy, roomy);
        EXPECT_GE(greedy.crossings, ilp.crossings)
            << "chain " << n;
    }
}

TEST(DiePartition, GreedyNeverBeatsIlpOnBranchedGraphs)
{
    hls::FpgaPlatform roomy = hls::u55c();
    roomy.lut_count *= 8;
    for (int64_t branches : {2, 3}) {
        for (int64_t depth : {1, 2, 3}) {
            auto design = branchedDesign(branches, depth);
            partition::PartitionOptions ilp_opts;
            ilp_opts.max_ilp_components = 64;
            auto ilp = partition::partitionGroup(
                design.components, 0, roomy, ilp_opts);
            expectValidPartition(design.components, 0, ilp,
                                 roomy);

            partition::PartitionOptions greedy_opts;
            greedy_opts.strategy =
                partition::PartitionStrategy::Greedy;
            auto greedy = partition::partitionGroup(
                design.components, 0, roomy, greedy_opts);
            expectValidPartition(design.components, 0, greedy,
                                 roomy);
            EXPECT_GE(greedy.crossings, ilp.crossings)
                << branches << "x" << depth;
        }
    }
}

TEST(DiePartition, CrossingChannelsCarryPlatformLinkCost)
{
    auto design = branchedDesign(3, 2);
    hls::FpgaPlatform linked = hls::u55c();
    linked.inter_die_latency_cycles = 24.0;
    linked.inter_die_ii_penalty = 2.0;
    auto result = partition::partitionGroup(design.components, 0,
                                            linked);
    const auto &cg = design.components;
    int64_t flagged = 0;
    for (int64_t ch_id : cg.groupChannels(0)) {
        const auto &ch = cg.channel(ch_id);
        bool crosses = cg.component(ch.src).die !=
                       cg.component(ch.dst).die;
        EXPECT_EQ(ch.inter_die, crosses);
        EXPECT_EQ(ch.link_latency, crosses ? 24.0 : 0.0);
        EXPECT_EQ(ch.link_ii_penalty, crosses ? 2.0 : 0.0);
        flagged += crosses ? 1 : 0;
    }
    EXPECT_EQ(flagged, result.crossings);

    // Re-partitioning onto one die clears every stale link cost.
    hls::FpgaPlatform mono = linked;
    mono.num_dies = 1;
    auto single = partition::partitionGroup(design.components, 0,
                                            mono);
    EXPECT_EQ(single.crossings, 0);
    for (int64_t ch_id : cg.groupChannels(0)) {
        EXPECT_FALSE(cg.channel(ch_id).inter_die);
        EXPECT_EQ(cg.channel(ch_id).link_latency, 0.0);
        EXPECT_EQ(cg.channel(ch_id).link_ii_penalty, 0.0);
    }
}

TEST(DiePartition, SingleDieTrivial)
{
    auto design = chainDesign(3);
    hls::FpgaPlatform mono = hls::u55c();
    mono.num_dies = 1;
    auto result = partition::partitionGroup(design.components, 0,
                                            mono);
    EXPECT_EQ(result.crossings, 0);
}

TEST(MemoryAlloc, SmallBuffersPreferLutram)
{
    auto design = chainDesign(3);
    auto alloc =
        partition::allocateMemory(design.components, hls::u55c());
    EXPECT_TRUE(alloc.feasible);
    bool saw_lutram = false;
    for (const auto &b : alloc.placements) {
        if (b.bytes <= 1024)
            saw_lutram |= b.kind == ir::MemoryKind::LUTRAM;
        EXPECT_NE(b.kind, ir::MemoryKind::Auto);
    }
    EXPECT_TRUE(saw_lutram);
}

TEST(MemoryAlloc, LargeBuffersLandInUram)
{
    dataflow::ComponentGraph g;
    dataflow::Component big;
    big.kind = dataflow::ComponentKind::Kernel;
    big.name = "big";
    big.local_buffer_bytes = 1 << 20; // 1 MiB
    g.addComponent(big);
    auto alloc = partition::allocateMemory(g, hls::u55c());
    ASSERT_EQ(alloc.placements.size(), 1u);
    EXPECT_EQ(alloc.placements[0].kind, ir::MemoryKind::URAM);
}

TEST(MemoryAlloc, OverflowReportedInfeasible)
{
    dataflow::ComponentGraph g;
    dataflow::Component huge;
    huge.kind = dataflow::ComponentKind::Kernel;
    huge.name = "huge";
    huge.local_buffer_bytes = 1ll << 32; // 4 GiB
    g.addComponent(huge);
    auto alloc = partition::allocateMemory(g, hls::u55c());
    EXPECT_FALSE(alloc.feasible);
}

TEST(MemoryAlloc, TotalsMatchPlacements)
{
    auto design = chainDesign(4);
    auto alloc =
        partition::allocateMemory(design.components, hls::u55c());
    int64_t sum = 0;
    for (const auto &b : alloc.placements)
        if (b.kind != ir::MemoryKind::Auto)
            sum += b.bytes;
    EXPECT_EQ(sum, alloc.totalBytes());
}

TEST(MemoryAlloc, LargestFirstOrdering)
{
    auto design = chainDesign(4);
    auto alloc =
        partition::allocateMemory(design.components, hls::u55c());
    for (size_t i = 1; i < alloc.placements.size(); ++i) {
        EXPECT_GE(alloc.placements[i - 1].bytes,
                  alloc.placements[i].bytes);
    }
}
