/**
 * @file
 * Linalg tiling space exploration (paper §5.1): naive tiling with
 * a global default tile size, intensity-driven unrolling by greedy
 * doubling of the longest-latency kernel off a max-heap, heuristic
 * loop permutation (reduction loops outward), and vectorization-
 * factor inference.
 */

#ifndef STREAMTENSOR_DSE_TILING_SPACE_H
#define STREAMTENSOR_DSE_TILING_SPACE_H

#include <cstdint>
#include <map>
#include <vector>

#include "linalg/graph.h"

namespace streamtensor {
namespace dse {

/** Chosen tiling configuration for one op. */
struct TileConfig
{
    /** Tile extent per loop (divides the loop extent). */
    std::vector<int64_t> tile_sizes;

    /** Loop order after permutation: position i runs original loop
     *  permutation[i]. */
    std::vector<int64_t> permutation;

    /** Parallel lanes inside the kernel (unroll factor). */
    int64_t unroll = 1;

    /** Stream/DMA vectorization lanes. */
    int64_t vector_lanes = 1;

    /** Inter-tile trip counts implied by tile_sizes. */
    std::vector<int64_t>
    interTileTrips(const linalg::OpInfo &op) const;
};

/** Hyperparameters of the tiling space (tuned by the black-box
 *  optimizer with fusion feedback, paper §5.1). */
struct TilingOptions
{
    int64_t default_tile_size = 16;

    /** Total unroll budget across kernels; sized against the
     *  platform's DSP pool (U55C: 9024 DSPs). */
    int64_t overall_unroll_size = 8192;
    int64_t max_unroll_per_kernel = 2048;
};

/**
 * Estimated kernel latency in cycles under a config: iteration
 * points divided by unroll (II=1 pipelining assumed; the hls
 * module refines this later).
 */
double estimateLatency(const linalg::OpInfo &op,
                       const TileConfig &config);

/**
 * Explore the tiling space of every live op in @p g. Returns a map
 * from op id to its chosen configuration. Throws FatalError unless
 * every size in @p options is at least 1.
 */
std::map<int64_t, TileConfig>
exploreTiling(const linalg::Graph &g, const TilingOptions &options);

} // namespace dse
} // namespace streamtensor

#endif // STREAMTENSOR_DSE_TILING_SPACE_H
