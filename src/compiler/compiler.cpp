#include "compiler/compiler.h"

#include <algorithm>
#include <map>
#include <utility>

#include "ir/verifier.h"
#include "linalg/passes.h"
#include "support/error.h"
#include "support/flat_index.h"
#include "support/logging.h"
#include "support/stopwatch.h"

namespace streamtensor {
namespace compiler {

double
StageTimes::total() const
{
    double t = 0.0;
    for (const auto &[name, seconds] : stages)
        t += seconds;
    return t;
}

double
StageTimes::get(const std::string &name) const
{
    for (const auto &[stage, seconds] : stages)
        if (stage == name)
            return seconds;
    return 0.0;
}

int64_t
CompileResult::totalCrossings() const
{
    int64_t crossings = 0;
    for (const auto &p : partitions)
        crossings += p.crossings;
    return crossings;
}

namespace {

/** Mutable state threaded through the stages. The graph is
 *  consumed (mutated) by the Linalg stages; tile_configs bridge
 *  tiling and fusion; everything user-visible accumulates in
 *  result. */
struct StageContext
{
    StageContext(linalg::Graph g, const hls::FpgaPlatform &p,
                 const CompileOptions &o)
        : graph(std::move(g)), platform(p), options(o)
    {}

    linalg::Graph graph;
    const hls::FpgaPlatform &platform;
    const CompileOptions &options;
    std::map<int64_t, dse::TileConfig> tile_configs;
    CompileResult result;
};

// --- Linalg optimization (elementwise fusion, unit-dim folding,
// fill fusion).
void
stageLinalgOpt(StageContext &ctx)
{
    ctx.result.elementwise_fused =
        linalg::fuseElementwiseOps(ctx.graph);
    ctx.result.fills_fused = linalg::fuseFill(ctx.graph);
    ctx.result.unit_dims_folded =
        linalg::foldUnitExtentDims(ctx.graph);
}

// --- Linalg tiling space exploration.
void
stageLinalgTiling(StageContext &ctx)
{
    ctx.tile_configs =
        dse::exploreTiling(ctx.graph, ctx.options.tiling);
}

// --- Linalg to dataflow conversion + kernel fusion (Algorithm 1
// inside Algorithm 2).
void
stageKernelFusion(StageContext &ctx)
{
    int64_t c_max = ctx.options.c_max > 0
                        ? ctx.options.c_max
                        : ctx.platform.onChipBytes();
    ctx.result.design = dataflow::buildAccelerator(
        ctx.graph, ctx.tile_configs, c_max);
}

// --- Dataflow optimization: itensor folding + vectorization.
void
stageDataflowOpt(StageContext &ctx)
{
    ctx.result.fold_stats =
        dataflow::foldITensors(ctx.result.design.components);
    ctx.result.vectorized_components =
        dataflow::vectorizeITensors(ctx.result.design.components);
}

// --- Vendor profiling (HLS model) feeding resource alloc.
void
stageHlsOpt(StageContext &ctx)
{
    hls::profileComponents(ctx.result.design.components,
                           ctx.platform);
}

// --- Die partitioning. Runs *before* FIFO sizing so placement
// feeds the cost model: crossing channels get the platform's
// inter-die link latency / II penalty stamped on them, which the
// sizing LP prices and the simulators execute.
void
stageDiePartition(StageContext &ctx)
{
    dataflow::ComponentGraph &cg = ctx.result.design.components;
    for (int64_t group = 0; group < cg.numGroups(); ++group) {
        ctx.result.partitions.push_back(partition::partitionGroup(
            cg, group, ctx.platform, ctx.options.partition));
    }
}

// --- FIFO sizing: equalization choice + per-group LP, pricing
// crossing edges with the inter-die link cost so no-stall depths
// absorb the link delay.
void
stageFifoSizing(StageContext &ctx)
{
    const CompileOptions &options = ctx.options;
    CompileResult &result = ctx.result;
    token::Equalization eq =
        options.equalization.value_or(token::Equalization::Normal);
    if (!options.equalization) {
        double pressure =
            static_cast<double>(
                result.design.fusedIntermediateBytes() +
                result.design.components.totalLocalBufferBytes()) /
            static_cast<double>(ctx.platform.onChipBytes());
        if (pressure > options.conservative_threshold) {
            eq = token::Equalization::Conservative;
            inform("memory pressure " + formatFixed(pressure) +
                   " > threshold; using conservative FIFO sizing");
        }
    }
    result.used_equalization = eq;

    dataflow::ComponentGraph &cg = result.design.components;
    for (int64_t group = 0; group < cg.numGroups(); ++group) {
        token::FifoSizingProblem problem;
        auto members = cg.groupComponents(group);
        // Sparse component id -> LP node: the shared dense-remap
        // helper (node ids are assigned in member order below, so
        // position == node id).
        support::FlatIndex dense =
            support::FlatIndex::positionsOf(members);
        // Node-level II penalties, the same max-over-channels rule
        // the simulators apply in buildGroupSpec: a crossing
        // endpoint paces slower on every edge it touches,
        // including co-located and folded ones.
        std::vector<double> ii_penalty(members.size(), 0.0);
        for (int64_t ch_id : cg.groupChannels(group)) {
            const dataflow::Channel &ch = cg.channel(ch_id);
            if (ch.link_ii_penalty <= 0.0)
                continue;
            for (int64_t endpoint : {ch.src, ch.dst}) {
                double &p = ii_penalty[dense.at(endpoint)];
                p = std::max(p, ch.link_ii_penalty);
            }
        }
        for (size_t i = 0; i < members.size(); ++i) {
            const dataflow::Component &c =
                cg.component(members[i]);
            token::NodeTiming timing{c.initial_delay,
                                     c.total_cycles,
                                     c.ingest_cycles};
            timing.ii_penalty = ii_penalty[i];
            problem.addNode(timing);
        }
        std::vector<int64_t> edge_channels;
        for (int64_t ch_id : cg.groupChannels(group)) {
            const dataflow::Channel &ch = cg.channel(ch_id);
            if (ch.folded)
                continue;
            problem.addEdge(dense.at(ch.src), dense.at(ch.dst),
                            ch.tokens, ch.link_latency);
            edge_channels.push_back(ch_id);
        }
        token::FifoSizingOptions sizing_options;
        sizing_options.equalization = eq;
        token::FifoSizingResult sized =
            token::sizeFifos(problem, sizing_options);
        for (size_t e = 0; e < edge_channels.size(); ++e) {
            dataflow::Channel &ch =
                cg.channel(edge_channels[e]);
            ch.depth = sized.depths[e];
            // A converter re-emits from its ping-pong banks, so
            // back-pressure stalls its emission loop without any
            // cascade: its output FIFO only needs the consumer's
            // burst (restored by reduceStreamDepth below).
            if (cg.component(ch.src).kind ==
                dataflow::ComponentKind::Converter) {
                ch.depth = std::min<int64_t>(ch.depth, 4);
            }
        }
        result.sizing.push_back(std::move(sized));
    }
}

// --- Memory allocation, guarding resources: when the LP's
// no-stall depths exceed the on-chip budget, progressively tighten
// the depth cap (the reduce_stream_depth pass), trading stalls for
// memory.
void
stageMemoryAlloc(StageContext &ctx)
{
    // Initial cap on generated FIFO depths. Deep FIFOs are
    // intentional: weight streams prefetch into URAM while
    // upstream kernels compute.
    constexpr int64_t kMaxFifoDepth = 65536;
    dataflow::ComponentGraph &cg = ctx.result.design.components;
    int64_t depth_cap = kMaxFifoDepth;
    while (true) {
        ctx.result.clamped_fifos =
            dataflow::reduceStreamDepth(cg, depth_cap);
        ctx.result.memory =
            partition::allocateMemory(cg, ctx.platform);
        if (ctx.result.memory.feasible || depth_cap <= 4)
            break;
        depth_cap = std::max<int64_t>(depth_cap / 4, 4);
        inform("FIFO memory over budget; reducing depth cap to " +
               std::to_string(depth_cap));
    }
}

// --- Bufferization: lower to stream-level IR and verify.
void
stageBufferization(StageContext &ctx)
{
    ctx.result.module =
        dataflow::bufferize(ctx.result.design.components);
    ir::VerifyResult verify = ir::verifyModule(*ctx.result.module);
    if (!verify.ok())
        ST_PANIC("bufferized module failed verification:\n" +
                 verify.str());
}

// --- Code generation: HLS C++, host runtime, connectivity.
void
stageCodeGen(StageContext &ctx)
{
    ctx.result.code =
        hls::generateCode(ctx.result.design.components);
}

} // namespace

CompileResult
compile(linalg::Graph graph, const hls::FpgaPlatform &platform,
        const CompileOptions &options)
{
    using StageFn = void (*)(StageContext &);
    static constexpr std::pair<const char *, StageFn> kStages[] = {
        {"Linalg_Opt", stageLinalgOpt},
        {"Linalg_Tiling", stageLinalgTiling},
        {"Kernel_Fusion", stageKernelFusion},
        {"Dataflow_Opt", stageDataflowOpt},
        {"HLS_Opt", stageHlsOpt},
        {"Die_Partition", stageDiePartition},
        {"Fifo_Sizing", stageFifoSizing},
        {"Memory_Alloc", stageMemoryAlloc},
        {"Bufferization", stageBufferization},
        {"Code_Gen", stageCodeGen},
    };
    StageContext ctx(std::move(graph), platform, options);
    Stopwatch watch;
    for (const auto &[name, run] : kStages) {
        run(ctx);
        ctx.result.times.stages.emplace_back(name,
                                             watch.elapsedSeconds());
        watch.restart();
    }
    return std::move(ctx.result);
}

} // namespace compiler
} // namespace streamtensor
