/**
 * @file
 * Multi-die graph partitioning (paper §5.3 item 2): assign each
 * task of a fused group to an SLR die, minimising inter-die
 * FIFO crossings plus a weighted LUT-imbalance term (the largest
 * die load's excess over the even split), subject to one-die-per-
 * task assignment.
 *
 * Solved with ILP (binary assignment variables, crossing
 * indicators linearised, one imbalance variable bounded below by
 * every die's LUT load) for small groups; a greedy topological-
 * wavefront fallback handles large groups or ILP node-budget
 * exhaustion. The balance term keeps placements near the even
 * split; PartitionResult::die_luts reports the realised per-die
 * load for validation against the platform's die capacity.
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
