#include "partition/memory_alloc.h"

#include <algorithm>

#include "support/math_util.h"

namespace streamtensor {
namespace partition {

MemoryAllocation
allocateMemory(const dataflow::ComponentGraph &g,
               const hls::FpgaPlatform &platform)
{
    // Collect all buffers.
    std::vector<BufferPlacement> buffers;
    for (int64_t id = 0; id < g.numComponents(); ++id) {
        const dataflow::Component &c = g.component(id);
        if (c.local_buffer_bytes > 0) {
            buffers.push_back(
                {c.name + "_buf", c.local_buffer_bytes,
                 ir::MemoryKind::Auto});
        }
        if (c.kind == dataflow::ComponentKind::Converter) {
            buffers.push_back(
                {c.name + "_pingpong", c.converter.bufferBytes(),
                 ir::MemoryKind::Auto});
        }
    }
    for (int64_t ch = 0; ch < g.numChannels(); ++ch) {
        const dataflow::Channel &c = g.channel(ch);
        if (c.folded)
            continue;
        buffers.push_back({"fifo" + std::to_string(ch),
                           ceilDiv(c.storageBits(), 8),
                           ir::MemoryKind::Auto});
    }

    // Largest first: URAM candidates claim their blocks before
    // smaller buffers fragment anything.
    std::sort(buffers.begin(), buffers.end(),
              [](const BufferPlacement &a, const BufferPlacement &b)
              { return a.bytes > b.bytes; });

    MemoryAllocation alloc;
    int64_t lutram_cap = platform.lutram_kib * 1024;
    int64_t bram_cap = platform.bram_kib * 1024;
    int64_t uram_cap = platform.uram_kib * 1024;

    auto try_place = [&](BufferPlacement &b,
                         ir::MemoryKind kind) -> bool {
        switch (kind) {
          case ir::MemoryKind::LUTRAM:
            if (alloc.lutram_bytes + b.bytes > lutram_cap)
                return false;
            alloc.lutram_bytes += b.bytes;
            break;
          case ir::MemoryKind::BRAM:
            if (alloc.bram_bytes + b.bytes > bram_cap)
                return false;
            alloc.bram_bytes += b.bytes;
            break;
          case ir::MemoryKind::URAM:
            if (alloc.uram_bytes + b.bytes > uram_cap)
                return false;
            alloc.uram_bytes += b.bytes;
            break;
          default:
            return false;
        }
        b.kind = kind;
        return true;
    };

    // Size thresholds steering placement.
    constexpr int64_t kLutramThresholdBytes = 1024;
    constexpr int64_t kUramThresholdBytes = 18 * 1024;
    for (auto &b : buffers) {
        bool placed = false;
        if (b.bytes <= kLutramThresholdBytes) {
            placed = try_place(b, ir::MemoryKind::LUTRAM) ||
                     try_place(b, ir::MemoryKind::BRAM) ||
                     try_place(b, ir::MemoryKind::URAM);
        } else if (b.bytes <= kUramThresholdBytes) {
            placed = try_place(b, ir::MemoryKind::BRAM) ||
                     try_place(b, ir::MemoryKind::URAM) ||
                     try_place(b, ir::MemoryKind::LUTRAM);
        } else {
            placed = try_place(b, ir::MemoryKind::URAM) ||
                     try_place(b, ir::MemoryKind::BRAM);
        }
        if (!placed)
            alloc.feasible = false;
        alloc.placements.push_back(b);
    }
    return alloc;
}

} // namespace partition
} // namespace streamtensor
