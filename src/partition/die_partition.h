/**
 * @file
 * Multi-die graph partitioning (paper §5.3 item 2): assign each
 * task of a fused group to an SLR die, minimising inter-die
 * FIFO crossings and resource imbalance, subject to one-die-per-
 * task assignment and per-die resource capacity.
 *
 * Solved with ILP (binary assignment variables, crossing
 * indicators linearised, per-die LUT capacity rows) for small
 * groups; a greedy topological-wavefront fallback handles large
 * groups or ILP node-budget exhaustion.
 *
 * Placement is load-bearing: besides writing each component's
 * `die`, partitioning stamps every crossing channel with the
 * platform's inter-die link model (`Channel::inter_die`,
 * `link_latency`, `link_ii_penalty`), which FIFO sizing prices
 * and both simulators execute. Different placements therefore
 * produce different predicted cycles, not just different
 * crossing counts.
 */

#ifndef STREAMTENSOR_PARTITION_DIE_PARTITION_H
#define STREAMTENSOR_PARTITION_DIE_PARTITION_H

#include <cstdint>
#include <vector>

#include "dataflow/graph.h"
#include "hls/platform.h"

namespace streamtensor {
namespace partition {

/** Partitioning outcome for one group. */
struct PartitionResult
{
    /** die[id] for every component of the group (indexed by
     *  component id). */
    std::vector<int64_t> die_of;

    /** Channels crossing a die boundary. */
    int64_t crossings = 0;

    /** True when the ILP produced the assignment (else greedy). */
    bool used_ilp = true;

    /** LUTs placed on each die (size = platform num_dies). */
    std::vector<double> die_luts;
};

/** Which partitioner to run. */
enum class PartitionStrategy {
    /** ILP within the size guard, greedy fallback beyond it. */
    Auto,
    /** Always the greedy topological wavefront (baselines and
     *  the ILP-vs-greedy differential suite). */
    Greedy,
};

/** Options for the partitioner. */
struct PartitionOptions
{
    PartitionStrategy strategy = PartitionStrategy::Auto;

    /** Groups with more components than this go straight to the
     *  greedy fallback (ILP size guard). */
    int64_t max_ilp_components = 24;

    /** Add hard per-die LUT capacity rows
     *  (FpgaPlatform::dieResources) to the ILP. Off by default:
     *  capacity rows make the relaxation much weaker (the
     *  branch-and-bound routinely exhausts its node budget and
     *  falls back to greedy), so they are reserved for floorplan
     *  studies where the balance term alone is not enough. The
     *  imbalance objective keeps default placements near the even
     *  split either way, and PartitionResult::die_luts reports
     *  the realised per-die load for validation. */
    bool enforce_die_capacity = false;
};

/**
 * Partition one fused group of @p g across the platform's dies,
 * writing each component's `die` field and stamping the group's
 * channels with the platform's inter-die link cost. Returns the
 * result summary.
 */
PartitionResult
partitionGroup(dataflow::ComponentGraph &g, int64_t group,
               const hls::FpgaPlatform &platform,
               const PartitionOptions &options = {});

} // namespace partition
} // namespace streamtensor

#endif // STREAMTENSOR_PARTITION_DIE_PARTITION_H
