#include "dse/tiling_space.h"

#include <algorithm>
#include <queue>

#include "support/error.h"
#include "support/math_util.h"

namespace streamtensor {
namespace dse {

namespace {

/** Greedy doubling allocation (paper §5.1's max-heap). */
void
allocateUnrollHeap(const linalg::Graph &g,
                   const std::vector<int64_t> &live,
                   std::map<int64_t, TileConfig> &configs,
                   const TilingOptions &options)
{
    struct HeapEntry
    {
        double latency;
        int64_t id;
        bool operator<(const HeapEntry &o) const
        {
            return latency < o.latency;
        }
    };
    std::priority_queue<HeapEntry> heap;
    int64_t budget = options.overall_unroll_size;
    int64_t spent = 0;
    for (int64_t id : live) {
        spent += 1; // every kernel starts at unroll 1.
        heap.push({estimateLatency(g.op(id), configs[id]), id});
    }
    while (!heap.empty() && spent < budget) {
        HeapEntry top = heap.top();
        heap.pop();
        TileConfig &cfg = configs[top.id];
        const linalg::OpInfo &op = g.op(top.id);
        // Unroll may span several tiles in flight (multi-tile
        // systolic parallelism) but never exceeds the op's total
        // iteration points.
        int64_t next = cfg.unroll * 2;
        if (next > options.max_unroll_per_kernel ||
            next > op.numPoints()) {
            continue; // saturated; drop from the heap.
        }
        if (spent - cfg.unroll + next > budget)
            continue;
        spent += next - cfg.unroll;
        cfg.unroll = next;
        heap.push({estimateLatency(op, cfg), top.id});
    }
}

} // namespace

std::vector<int64_t>
TileConfig::interTileTrips(const linalg::OpInfo &op) const
{
    ST_CHECK(tile_sizes.size() == op.loop_extents.size(),
             "tile config rank mismatch");
    std::vector<int64_t> trips;
    trips.reserve(tile_sizes.size());
    for (size_t i = 0; i < tile_sizes.size(); ++i)
        trips.push_back(op.loop_extents[i] / tile_sizes[i]);
    return trips;
}

double
estimateLatency(const linalg::OpInfo &op, const TileConfig &config)
{
    double points = static_cast<double>(op.numPoints());
    return points / static_cast<double>(config.unroll);
}

std::map<int64_t, TileConfig>
exploreTiling(const linalg::Graph &g, const TilingOptions &options)
{
    ST_CHECK(options.default_tile_size >= 1, "default tile size domain");
    ST_CHECK(options.overall_unroll_size >= 1,
             "overall unroll size domain");
    ST_CHECK(options.max_unroll_per_kernel >= 1,
             "max unroll per kernel domain");
    std::map<int64_t, TileConfig> configs;
    std::vector<int64_t> live = g.topoOrder();

    // --- Naive tiling: default_tile_size across all dims, snapped
    // to the largest divisor of each extent (paper §5.1).
    for (int64_t id : live) {
        const linalg::OpInfo &op = g.op(id);
        TileConfig cfg;
        for (int64_t extent : op.loop_extents) {
            cfg.tile_sizes.push_back(largestDivisorUpTo(
                extent, options.default_tile_size));
        }

        // --- Heuristic permutation: reduction loops outward,
        // parallel loops innermost (reduces pipeline II).
        for (size_t l = 0; l < op.iterators.size(); ++l)
            if (op.iterators[l] == linalg::IteratorKind::Reduction)
                cfg.permutation.push_back(static_cast<int64_t>(l));
        for (size_t l = 0; l < op.iterators.size(); ++l)
            if (op.iterators[l] == linalg::IteratorKind::Parallel)
                cfg.permutation.push_back(static_cast<int64_t>(l));

        configs[id] = std::move(cfg);
    }

    // --- Intensity-driven unrolling: split the overall unroll
    // budget across kernels by max-heap doubling (paper §5.1).
    allocateUnrollHeap(g, live, configs, options);

    // --- Vectorization inference: stream lanes follow the unroll
    // factor, capped by the token size (the output tile: product
    // of parallel-loop tile extents) so a token always carries
    // whole lanes.
    for (int64_t id : live) {
        TileConfig &cfg = configs[id];
        const linalg::OpInfo &op = g.op(id);
        int64_t token_elems = 1;
        for (size_t l = 0; l < op.iterators.size(); ++l)
            if (op.iterators[l] == linalg::IteratorKind::Parallel)
                token_elems *= cfg.tile_sizes[l];
        int64_t lanes = std::min<int64_t>(cfg.unroll, token_elems);
        lanes = largestDivisorUpTo(token_elems, lanes);
        cfg.vector_lanes = std::max<int64_t>(lanes, 1);
    }
    return configs;
}

} // namespace dse
} // namespace streamtensor
