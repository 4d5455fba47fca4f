#include "models/bucketing.h"

#include <algorithm>

#include "support/error.h"

namespace streamtensor {
namespace models {

namespace {

void
checkPolicy(const BucketPolicy &policy)
{
    ST_CHECK(policy.min_len >= 1 && policy.align >= 1 &&
                 policy.growth_num > policy.growth_den &&
                 policy.growth_den >= 1 &&
                 policy.max_len >= policy.min_len,
             "malformed bucket policy");
}

/** @p v (<= max_len) rounded up to a multiple of the policy's
 *  alignment, saturating at max_len: the rounded value is only
 *  formed once it is known not to pass max_len, so a huge align
 *  cannot overflow. */
int64_t
alignClamped(int64_t v, const BucketPolicy &policy)
{
    int64_t q = v / policy.align;
    if (q * policy.align == v)
        return v;
    if (q + 1 > policy.max_len / policy.align)
        return policy.max_len;
    return (q + 1) * policy.align;
}

/** The ladder boundary after @p b (< max_len): grow by the policy
 *  ratio (at least one step), align up, clamp at max_len. The
 *  product is formed in 128 bits, so a huge ratio saturates at
 *  max_len instead of overflowing. */
int64_t
nextBoundary(int64_t b, const BucketPolicy &policy)
{
    __extension__ typedef __int128 Wide;
    Wide grown = static_cast<Wide>(b) * policy.growth_num /
                 policy.growth_den;
    if (grown >= policy.max_len)
        return policy.max_len;
    return alignClamped(std::max(static_cast<int64_t>(grown), b + 1),
                        policy);
}

} // namespace

std::vector<int64_t>
bucketBoundaries(const BucketPolicy &policy)
{
    checkPolicy(policy);
    std::vector<int64_t> boundaries;
    for (int64_t b = alignClamped(policy.min_len, policy);
         b < policy.max_len; b = nextBoundary(b, policy)) {
        ST_CHECK(boundaries.size() + 1 < kMaxBuckets,
                 "bucket ladder exceeds kMaxBuckets boundaries");
        boundaries.push_back(b);
    }
    boundaries.push_back(policy.max_len);
    return boundaries;
}

int64_t
bucketIn(const std::vector<int64_t> &boundaries, int64_t len)
{
    ST_CHECK(len >= 1, "length must be positive");
    ST_CHECK(!boundaries.empty() && len <= boundaries.back(),
             "length exceeds the largest bucket");
    return *std::lower_bound(boundaries.begin(), boundaries.end(),
                             len);
}

int64_t
bucketLen(int64_t len, const BucketPolicy &policy)
{
    return bucketIn(bucketBoundaries(policy), len);
}

BlockShapes
bucketedPrefillShapes(int64_t input_len, const BucketPolicy &policy)
{
    return prefillShapes(bucketLen(input_len, policy));
}

BlockShapes
bucketedDecodeShapes(int64_t kv_len, const BucketPolicy &policy)
{
    return decodeShapes(bucketLen(kv_len, policy));
}

} // namespace models
} // namespace streamtensor
