/**
 * @file
 * Transformer-block graph builders. One linalg graph per block:
 * pre-norm attention with GQA and optional RoPE, KV-cache
 * attention, residuals, and a GELU or SiLU(gated) FFN — the
 * workloads the paper fuses onto a single FPGA (§6.1-6.2).
 *
 * GQA is expressed without reshape ops by shaping the head
 * dimension as (kv_heads, group): Q is [kv_heads, group, S, hd]
 * while K/V are [kv_heads, L, hd]; the group loop simply does not
 * index K/V (an affine-friendly broadcast).
 */

#ifndef STREAMTENSOR_MODELS_BLOCK_BUILDER_H
#define STREAMTENSOR_MODELS_BLOCK_BUILDER_H

#include <cstdint>
#include <tuple>

#include "linalg/graph.h"
#include "models/llm_config.h"

namespace streamtensor {
namespace models {

/** Which inference phase the block graph represents. */
enum class Phase { Prefill, Decode };

/** Shapes for one block instantiation. Totally ordered so shapes
 *  can key compile caches and sort a step's batch groups. */
struct BlockShapes
{
    /** Query tokens processed per execution (input length for
     *  prefill, 1 for decode). */
    int64_t seq_len = 1;

    /** Attention context length (cache + current tokens); never
     *  below seq_len, since the context holds every query token. */
    int64_t kv_len = 32;
};

inline bool
operator<(const BlockShapes &a, const BlockShapes &b)
{
    return std::tie(a.seq_len, a.kv_len) <
           std::tie(b.seq_len, b.kv_len);
}

inline bool
operator==(const BlockShapes &a, const BlockShapes &b)
{
    return a.seq_len == b.seq_len && a.kv_len == b.kv_len;
}

inline bool
operator!=(const BlockShapes &a, const BlockShapes &b)
{
    return !(a == b);
}

/**
 * Build the linalg graph of one transformer block of @p config at
 * @p shapes. Weight tensors carry TensorRole::Parameter, the
 * hidden-state input TensorRole::Input, KV caches
 * TensorRole::KvCache, and the block output (plus fresh K/V rows)
 * TensorRole::Output.
 */
linalg::Graph buildTransformerBlock(const LlmConfig &config,
                                    const BlockShapes &shapes);

/** Convenience: prefill shapes (seq = kv = input length). */
BlockShapes prefillShapes(int64_t input_len);

/** Convenience: decode shapes at context length @p kv_len. */
BlockShapes decodeShapes(int64_t kv_len);

} // namespace models
} // namespace streamtensor

#endif // STREAMTENSOR_MODELS_BLOCK_BUILDER_H
