/**
 * @file
 * On-chip memory allocation (paper §5.3 item 3): place each buffer
 * into LUTRAM, BRAM, or URAM, prioritised by size — small buffers
 * burn LUTRAM, medium fit BRAM blocks, large ones go to URAM —
 * while tracking per-resource capacity.
 */

#ifndef STREAMTENSOR_PARTITION_MEMORY_ALLOC_H
#define STREAMTENSOR_PARTITION_MEMORY_ALLOC_H

#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/graph.h"
#include "hls/platform.h"
#include "ir/type.h"

namespace streamtensor {
namespace partition {

/** One placed buffer. */
struct BufferPlacement
{
    std::string name;
    int64_t bytes = 0;
    ir::MemoryKind kind = ir::MemoryKind::Auto;
};

/** Allocation outcome. */
struct MemoryAllocation
{
    std::vector<BufferPlacement> placements;
    int64_t lutram_bytes = 0;
    int64_t bram_bytes = 0;
    int64_t uram_bytes = 0;

    /** True when every buffer found a home within capacity. */
    bool feasible = true;

    /** Total allocated bytes. */
    int64_t totalBytes() const
    {
        return lutram_bytes + bram_bytes + uram_bytes;
    }
};

/**
 * Allocate every buffer of @p g (kernel/DMA local buffers,
 * converter ping-pongs, FIFOs) on @p platform. Larger buffers are
 * placed first so URAM is not fragmented by small ones. Buffers of
 * at most 1 KiB prefer LUTRAM, buffers above 18 KiB prefer URAM,
 * and the rest prefer BRAM.
 */
MemoryAllocation
allocateMemory(const dataflow::ComponentGraph &g,
               const hls::FpgaPlatform &platform);

} // namespace partition
} // namespace streamtensor

#endif // STREAMTENSOR_PARTITION_MEMORY_ALLOC_H
