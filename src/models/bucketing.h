/**
 * @file
 * Sequence-length bucketing for the serving layer. The executor
 * compiles one accelerator design per block shape, so a server
 * that honoured every request's exact lengths would blow up the
 * compile cache (and, on real hardware, the bitstream library).
 * Buckets quantise lengths onto a small geometric ladder: requests
 * whose (padded) lengths land in the same bucket share one
 * compiled block, at the cost of simulating a few wasted padding
 * tokens.
 *
 * Ladder construction is pure integer math so every platform
 * derives the identical bucket set. A hot caller builds the ladder
 * once (bucketBoundaries) and looks lengths up with bucketIn, a
 * binary search that allocates nothing; bucketLen is the same
 * lookup over a freshly built ladder, for cold callers.
 */

#ifndef STREAMTENSOR_MODELS_BUCKETING_H
#define STREAMTENSOR_MODELS_BUCKETING_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "models/block_builder.h"

namespace streamtensor {
namespace models {

/** Geometric bucket ladder: min_len, then each boundary grows by
 *  growth_num/growth_den and is aligned up, clamped at max_len. */
struct BucketPolicy
{
    int64_t min_len = 16;

    /** Growth ratio as a rational (default 3/2) so the ladder is
     *  integer-deterministic across platforms. */
    int64_t growth_num = 3;
    int64_t growth_den = 2;

    /** Every boundary is rounded up to a multiple of this. */
    int64_t align = 16;

    /** Largest bucket (model context limit). */
    int64_t max_len = 1024;
};

/** Most boundaries a ladder may have: each one is a possible
 *  compile, and a ratio near 1 with align 1 would otherwise build
 *  millions of them. */
constexpr size_t kMaxBuckets = 4096;

/** All bucket boundaries of @p policy, ascending, ending at
 *  max_len. Growth and alignment saturate at max_len, so any
 *  well-formed policy terminates without overflow. Fails on a
 *  malformed policy or a ladder longer than kMaxBuckets. */
std::vector<int64_t> bucketBoundaries(const BucketPolicy &policy);

/** Smallest entry of @p boundaries (a bucketBoundaries ladder)
 *  that is >= @p len. Fails if @p len is not positive or exceeds
 *  the largest bucket (the request can never be served).
 *  Allocates nothing. */
int64_t bucketIn(const std::vector<int64_t> &boundaries,
                 int64_t len);

/** bucketIn over bucketBoundaries(@p policy). */
int64_t bucketLen(int64_t len, const BucketPolicy &policy);

/** Prefill shapes with the input length rounded to its bucket. */
BlockShapes bucketedPrefillShapes(int64_t input_len,
                                  const BucketPolicy &policy);

/** Decode shapes with the context length rounded to its bucket. */
BlockShapes bucketedDecodeShapes(int64_t kv_len,
                                 const BucketPolicy &policy);

} // namespace models
} // namespace streamtensor

#endif // STREAMTENSOR_MODELS_BUCKETING_H
