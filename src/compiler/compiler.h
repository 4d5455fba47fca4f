/**
 * @file
 * The StreamTensor compiler: the full pipeline of paper Fig. 4 as
 * an ordered sequence of *named stages* — Linalg optimization,
 * Linalg tiling, Linalg-to-dataflow + kernel fusion, dataflow
 * optimization, HLS profiling, die partitioning, FIFO sizing,
 * memory allocation, bufferization, and code generation — each
 * recording its wall clock into the StageTimes surface (the
 * Fig. 10c breakdown).
 *
 * Die partitioning runs *before* FIFO sizing so placement is
 * load-bearing: the partitioner stamps crossing channels with the
 * platform's inter-die link cost, the sizing LP prices those edges
 * with the extra latency (no-stall depths absorb the link delay),
 * and the simulators execute the same link model — so ILP and
 * greedy placements produce measurably different cycles.
 *
 * The stage list is data (compiler::Pipeline), so experiments can
 * reorder, drop, or wrap stages without forking the driver.
 */

#ifndef STREAMTENSOR_COMPILER_COMPILER_H
#define STREAMTENSOR_COMPILER_COMPILER_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/bufferize.h"
#include "dataflow/fusion_apply.h"
#include "dataflow/passes.h"
#include "dse/tiling_space.h"
#include "hls/codegen.h"
#include "hls/platform.h"
#include "hls/profiling.h"
#include "partition/die_partition.h"
#include "partition/memory_alloc.h"
#include "token/fifo_sizing.h"

namespace streamtensor {
namespace compiler {

/** User-visible compiler options. */
struct CompileOptions
{
    dse::TilingOptions tiling;

    /** Max on-chip bytes per fused group; <= 0 means "use the
     *  platform's on-chip memory". */
    int64_t c_max = 0;

    /** FIFO sizing strategy; Auto switches to Conservative when
     *  the fused design's on-chip pressure crosses
     *  conservative_threshold (the paper's Llama case, §6.2). */
    token::Equalization equalization = token::Equalization::Normal;
    bool auto_conservative = true;
    double conservative_threshold = 0.40;

    /** Die-partitioner knobs (strategy, ILP size guard, capacity
     *  rows). */
    partition::PartitionOptions partition;
};

/** Per-stage wall-clock seconds (Fig. 10c stages). */
struct StageTimes
{
    std::vector<std::pair<std::string, double>> stages;

    double total() const;
    double get(const std::string &name) const;
};

/** Everything the compiler produces. */
struct CompileResult
{
    dataflow::AcceleratorDesign design;
    std::vector<token::FifoSizingResult> sizing; ///< per group
    std::vector<partition::PartitionResult> partitions;
    partition::MemoryAllocation memory;
    std::unique_ptr<ir::Module> module;
    hls::GeneratedCode code;
    StageTimes times;

    /** The equalization strategy actually used. */
    token::Equalization used_equalization =
        token::Equalization::Normal;

    /** Linalg pass statistics. */
    int64_t elementwise_fused = 0;
    int64_t unit_dims_folded = 0;
    int64_t fills_fused = 0;

    /** Dataflow pass statistics. */
    dataflow::FoldStats fold_stats;
    int64_t vectorized_components = 0;
    int64_t clamped_fifos = 0;

    /** Inter-die channel crossings across all partitioned
     *  groups. */
    int64_t totalCrossings() const;
};

/** Mutable state threaded through the stage pipeline. The graph
 *  is consumed (mutated) by the Linalg stages; tile_configs bridge
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

/** An ordered, reorderable list of named compile stages. run()
 *  executes them in order, recording per-stage wall clock under
 *  each stage's name (the StageTimes surface). */
class Pipeline
{
  public:
    using StageFn = std::function<void(StageContext &)>;

    struct Stage
    {
        std::string name;
        StageFn run;
    };

    /** Append a stage. Names must be unique. */
    Pipeline &add(std::string name, StageFn fn);

    /** Insert a stage immediately before @p anchor (fatal when
     *  the anchor is absent). */
    Pipeline &insertBefore(const std::string &anchor,
                           std::string name, StageFn fn);

    /** Drop a stage; returns false when absent. */
    bool remove(const std::string &name);

    /** Index of @p name, -1 when absent. */
    int64_t find(const std::string &name) const;

    const std::vector<Stage> &stages() const { return stages_; }

    /** Run every stage in order on @p ctx. */
    void run(StageContext &ctx) const;

  private:
    std::vector<Stage> stages_;
};

/** The default stage order: Linalg_Opt, Linalg_Tiling,
 *  Kernel_Fusion, Dataflow_Opt, HLS_Opt, Die_Partition,
 *  Fifo_Sizing, Memory_Alloc, Bufferization, Code_Gen. */
Pipeline defaultPipeline();

/** Compile @p graph for @p platform through the default pipeline.
 *  The graph is consumed (mutated by the Linalg passes). */
CompileResult compile(linalg::Graph graph,
                      const hls::FpgaPlatform &platform,
                      const CompileOptions &options = {});

/** Compile through a caller-assembled pipeline (stage reorder /
 *  ablation experiments). */
CompileResult compileWith(const Pipeline &pipeline,
                          linalg::Graph graph,
                          const hls::FpgaPlatform &platform,
                          const CompileOptions &options = {});

} // namespace compiler
} // namespace streamtensor

#endif // STREAMTENSOR_COMPILER_COMPILER_H
