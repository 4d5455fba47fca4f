/**
 * @file
 * The StreamTensor compiler: the full pipeline of paper Fig. 4 as
 * one fixed sequence of *named stages* — Linalg optimization,
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
 */

#ifndef STREAMTENSOR_COMPILER_COMPILER_H
#define STREAMTENSOR_COMPILER_COMPILER_H

#include <memory>
#include <optional>
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

    /** FIFO sizing strategy. Unset (the default), memory pressure
     *  picks it: Conservative when the fused design's on-chip
     *  pressure crosses conservative_threshold (the paper's Llama
     *  case, §6.2), Normal otherwise. Set, that mode is used. */
    std::optional<token::Equalization> equalization;
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

/** Compile @p graph for @p platform, running the stages in order:
 *  Linalg_Opt, Linalg_Tiling, Kernel_Fusion, Dataflow_Opt,
 *  HLS_Opt, Die_Partition, Fifo_Sizing, Memory_Alloc,
 *  Bufferization, Code_Gen — each timed into CompileResult::times
 *  under that name. The graph is consumed (mutated by the Linalg
 *  passes). */
CompileResult compile(linalg::Graph graph,
                      const hls::FpgaPlatform &platform,
                      const CompileOptions &options = {});

} // namespace compiler
} // namespace streamtensor

#endif // STREAMTENSOR_COMPILER_COMPILER_H
