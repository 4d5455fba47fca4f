/** @file Unit tests for the LLM model zoo (paper Table 7). */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "support/error.h"
#include "support/math_util.h"

#include "models/block_builder.h"
#include "models/bucketing.h"
#include "models/llm_config.h"

using namespace streamtensor;
using namespace streamtensor::models;

TEST(Config, Table7Values)
{
    auto gpt2 = gpt2Config();
    EXPECT_EQ(gpt2.layers, 24);
    EXPECT_EQ(gpt2.hidden, 1024);
    EXPECT_EQ(gpt2.ffn_hidden, 4096);
    EXPECT_EQ(gpt2.heads, 16);
    EXPECT_EQ(gpt2.kv_heads, 16);
    EXPECT_EQ(gpt2.activation, Activation::Gelu);

    auto qwen = qwenConfig();
    EXPECT_EQ(qwen.layers, 24);
    EXPECT_EQ(qwen.hidden, 896);
    EXPECT_EQ(qwen.ffn_hidden, 4864);
    EXPECT_EQ(qwen.heads, 14);
    EXPECT_EQ(qwen.kv_heads, 2);
    EXPECT_EQ(qwen.activation, Activation::Silu);

    auto llama = llamaConfig();
    EXPECT_EQ(llama.layers, 22);
    EXPECT_EQ(llama.hidden, 2048);
    EXPECT_EQ(llama.ffn_hidden, 5632);
    EXPECT_EQ(llama.heads, 32);
    EXPECT_EQ(llama.kv_heads, 4);

    auto gemma = gemmaConfig();
    EXPECT_EQ(gemma.layers, 26);
    EXPECT_EQ(gemma.hidden, 1152);
    EXPECT_EQ(gemma.ffn_hidden, 6912);
    EXPECT_EQ(gemma.heads, 4);
    EXPECT_EQ(gemma.kv_heads, 1);
}

TEST(Config, GroupSizes)
{
    EXPECT_EQ(gpt2Config().groupSize(), 1);
    EXPECT_EQ(qwenConfig().groupSize(), 7);
    EXPECT_EQ(llamaConfig().groupSize(), 8);
    EXPECT_EQ(gemmaConfig().groupSize(), 4);
}

TEST(Config, BlockParamsGpt2)
{
    // GPT-2: attn 4*H^2, FFN 2*H*4H = 8H^2, norms 2H.
    auto cfg = gpt2Config();
    int64_t h = cfg.hidden;
    EXPECT_EQ(cfg.blockParams(), 4 * h * h + 8 * h * h + 2 * h);
    // W4: half a byte per param.
    EXPECT_EQ(cfg.blockParamBytes(),
              (cfg.blockParams() + 1) / 2);
}

TEST(Config, FlopsGrowWithContext)
{
    auto cfg = qwenConfig();
    EXPECT_GT(cfg.blockFlops(1, 128), cfg.blockFlops(1, 64));
    EXPECT_GT(cfg.blockFlops(32, 32), cfg.blockFlops(1, 32));
}

TEST(BlockBuilder, Gpt2DecodeGraphShape)
{
    auto g = buildTransformerBlock(gpt2Config(), decodeShapes(48));
    // 14 ops: norm, qkv, qk, softmax, pv, o, res, norm, fc1,
    // gelu, fc2, res (no rope for GPT-2).
    EXPECT_EQ(g.topoOrder().size(), 14u);
    EXPECT_EQ(g.inputTensors().size(), 1u);
    // block_out + k_new + v_new.
    EXPECT_EQ(g.outputTensors().size(), 3u);
}

TEST(BlockBuilder, RopeModelsAddTwoOps)
{
    auto gelu = buildTransformerBlock(gpt2Config(),
                                      decodeShapes(48));
    auto rope = buildTransformerBlock(qwenConfig(),
                                      decodeShapes(48));
    // SiLU FFN adds ops too (gate/up/mul): 14 + 2 (rope) + 2.
    EXPECT_EQ(rope.topoOrder().size(),
              gelu.topoOrder().size() + 4);
}

TEST(BlockBuilder, GqaShapesFactorHeads)
{
    auto cfg = qwenConfig();
    auto g = buildTransformerBlock(cfg, decodeShapes(64));
    // Find the q tensor: [kv_heads, group, S, hd].
    bool found = false;
    for (int64_t i = 0; i < g.numTensors(); ++i) {
        if (g.tensor(i).name != "q_proj")
            continue;
        found = true;
        EXPECT_EQ(g.tensor(i).type.shape(),
                  (std::vector<int64_t>{cfg.kv_heads,
                                        cfg.groupSize(), 1,
                                        cfg.head_dim}));
    }
    EXPECT_TRUE(found);
}

TEST(BlockBuilder, KvCachesAreInputsAtContextLength)
{
    auto cfg = llamaConfig();
    auto g = buildTransformerBlock(cfg, decodeShapes(96));
    int64_t caches = 0;
    for (int64_t i = 0; i < g.numTensors(); ++i) {
        if (g.tensor(i).role != linalg::TensorRole::KvCache)
            continue;
        ++caches;
        EXPECT_EQ(g.tensor(i).type.shape(),
                  (std::vector<int64_t>{cfg.kv_heads, 96,
                                        cfg.head_dim}));
    }
    EXPECT_EQ(caches, 2);
}

TEST(BlockBuilder, WeightsCarryParameterRole)
{
    auto g = buildTransformerBlock(gemmaConfig(),
                                   prefillShapes(32));
    int64_t params = 0;
    for (int64_t i = 0; i < g.numTensors(); ++i)
        if (g.tensor(i).role == linalg::TensorRole::Parameter)
            ++params;
    // 2 norms + wq/wk/wv/wo + fc1/fc2 = 8 parameters for GELU.
    EXPECT_EQ(params, 8);
}

TEST(BlockBuilder, PrefillAndDecodeShareStructure)
{
    auto cfg = gpt2Config();
    auto prefill =
        buildTransformerBlock(cfg, prefillShapes(64));
    auto decode = buildTransformerBlock(cfg, decodeShapes(64));
    EXPECT_EQ(prefill.topoOrder().size(),
              decode.topoOrder().size());
}

TEST(BlockBuilder, AllModelsBuildAcrossShapes)
{
    for (const auto &cfg : allConfigs()) {
        for (int64_t seq : {1, 32, 128}) {
            BlockShapes shapes{seq, std::max<int64_t>(seq, 48)};
            auto g = buildTransformerBlock(cfg, shapes);
            EXPECT_GT(g.numOps(), 10) << cfg.name;
            EXPECT_NO_THROW(g.topoOrder()) << cfg.name;
        }
    }
}

TEST(BlockBuilder, RejectsBadShapes)
{
    EXPECT_THROW(
        buildTransformerBlock(gpt2Config(), BlockShapes{0, 8}),
        FatalError);
}

TEST(BlockBuilder, RejectsContextShorterThanQuery)
{
    // More query tokens than the attention context holds is not a
    // transformer block; every model must refuse it rather than
    // cost it.
    for (const auto &cfg : allConfigs())
        EXPECT_THROW(
            buildTransformerBlock(cfg, BlockShapes{32, 16}),
            FatalError)
            << cfg.name;
    EXPECT_NO_THROW(
        buildTransformerBlock(gpt2Config(), BlockShapes{32, 32}));
}

TEST(BlockShapes, TotalOrderForCacheKeys)
{
    BlockShapes a{1, 48};
    BlockShapes b{1, 96};
    BlockShapes c{48, 48};
    EXPECT_LT(a, b);
    EXPECT_LT(a, c);
    EXPECT_TRUE(a == (BlockShapes{1, 48}));
    EXPECT_TRUE(a != b);
    EXPECT_FALSE(a < a);
}

TEST(Bucketing, LadderIsSortedAlignedAndCapped)
{
    BucketPolicy policy;
    auto boundaries = bucketBoundaries(policy);
    ASSERT_FALSE(boundaries.empty());
    EXPECT_EQ(boundaries.back(), policy.max_len);
    for (size_t i = 0; i < boundaries.size(); ++i) {
        if (i > 0) {
            EXPECT_GT(boundaries[i], boundaries[i - 1]);
        }
        if (boundaries[i] != policy.max_len) {
            EXPECT_EQ(boundaries[i] % policy.align, 0);
        }
    }
    // Geometric growth keeps the ladder (and so the compile
    // cache) tiny even for a 1k context.
    EXPECT_LE(boundaries.size(), 16u);
}

TEST(Bucketing, BucketLenRoundsUpIdempotentlyAndMonotonically)
{
    BucketPolicy policy;
    auto boundaries = bucketBoundaries(policy);
    int64_t prev = 0;
    for (int64_t len = 1; len <= policy.max_len; ++len) {
        int64_t bucket = bucketLen(len, policy);
        EXPECT_GE(bucket, len);
        EXPECT_GE(bucket, prev); // monotone
        EXPECT_EQ(bucketLen(bucket, policy), bucket); // idempotent
        EXPECT_TRUE(std::find(boundaries.begin(),
                              boundaries.end(),
                              bucket) != boundaries.end());
        prev = bucket;
    }
}

TEST(Bucketing, BucketedShapesQuantiseBothPhases)
{
    BucketPolicy policy;
    EXPECT_EQ(bucketedPrefillShapes(10, policy),
              prefillShapes(16));
    EXPECT_EQ(bucketedPrefillShapes(16, policy),
              prefillShapes(16));
    EXPECT_EQ(bucketedPrefillShapes(17, policy),
              prefillShapes(32));
    EXPECT_EQ(bucketedDecodeShapes(100, policy),
              decodeShapes(128));
}

namespace {

/** The rung-by-rung walk bucketLen used before the ladder lookup:
 *  start at the aligned min_len and grow by the policy ratio (at
 *  least one step), aligning up and clamping at max_len, until the
 *  boundary reaches @p len. Oracle for the lookup on well-formed
 *  policies whose arithmetic stays in range. */
int64_t
walkedBucket(int64_t len, const BucketPolicy &policy)
{
    int64_t b = std::min(alignTo(policy.min_len, policy.align),
                         policy.max_len);
    while (b < len) {
        int64_t grown = b * policy.growth_num / policy.growth_den;
        b = std::min(alignTo(std::max(grown, b + 1), policy.align),
                     policy.max_len);
    }
    return b;
}

} // namespace

TEST(Bucketing, LookupMatchesRungWalk)
{
    BucketPolicy unaligned;
    unaligned.align = 1;
    BucketPolicy slow_growth;
    slow_growth.growth_num = 5;
    slow_growth.growth_den = 4;
    BucketPolicy wide;
    wide.min_len = 100;
    wide.align = 16;
    wide.max_len = 4096;
    BucketPolicy clamped; // the first boundary is max_len itself
    clamped.min_len = 20;
    clamped.align = 64;
    clamped.max_len = 40;
    for (const BucketPolicy &policy :
         {BucketPolicy{}, unaligned, slow_growth, wide, clamped}) {
        SCOPED_TRACE("min " + std::to_string(policy.min_len) +
                     " growth " + std::to_string(policy.growth_num) +
                     "/" + std::to_string(policy.growth_den) +
                     " align " + std::to_string(policy.align) +
                     " max " + std::to_string(policy.max_len));
        auto ladder = bucketBoundaries(policy);
        for (int64_t len = 1; len <= policy.max_len; ++len) {
            int64_t want = walkedBucket(len, policy);
            ASSERT_EQ(bucketIn(ladder, len), want) << len;
            ASSERT_EQ(bucketLen(len, policy), want) << len;
        }
    }
    EXPECT_EQ(bucketBoundaries(clamped),
              std::vector<int64_t>{clamped.max_len});
}

TEST(Bucketing, HugeGrowthSaturatesAtMaxLen)
{
    // b * growth_num overflowed int64_t here and the walk then spun
    // forever; growth now saturates at max_len.
    const int64_t big = std::numeric_limits<int64_t>::max();
    BucketPolicy growth;
    growth.growth_num = big / 4;
    growth.growth_den = 1;
    growth.max_len = big / 2;
    EXPECT_EQ(bucketBoundaries(growth),
              (std::vector<int64_t>{16, growth.max_len}));
    EXPECT_EQ(bucketLen(17, growth), growth.max_len);

    // A huge ratio over a huge denominator: the product is exact,
    // not saturated, while it stays below max_len.
    BucketPolicy ratio;
    ratio.growth_num = big - 1;
    ratio.growth_den = big / 2;
    ratio.align = 1;
    ratio.max_len = 100;
    EXPECT_EQ(bucketBoundaries(ratio),
              (std::vector<int64_t>{16, 32, 64, 100}));

    // Aligning up overflowed the same way.
    BucketPolicy align;
    align.align = big - 1;
    EXPECT_EQ(bucketBoundaries(align),
              std::vector<int64_t>{align.max_len});
    align.min_len = 1;
    align.max_len = big;
    EXPECT_EQ(bucketBoundaries(align),
              (std::vector<int64_t>{big - 1, big}));
}

TEST(Bucketing, RejectsLadderPastCap)
{
    // growth (2^40 + 1) / 2^40 never outgrows the one-step floor
    // below 2^40, so with align 1 every length is its own bucket.
    BucketPolicy linear;
    linear.min_len = 1;
    linear.growth_den = int64_t{1} << 40;
    linear.growth_num = linear.growth_den + 1;
    linear.align = 1;
    linear.max_len = static_cast<int64_t>(kMaxBuckets);
    EXPECT_EQ(bucketBoundaries(linear).size(), kMaxBuckets);
    linear.max_len += 1;
    EXPECT_THROW(bucketBoundaries(linear), FatalError);
    EXPECT_THROW(bucketLen(1, linear), FatalError);
    // Without the cap this would build ~10^12 boundaries.
    linear.max_len = int64_t{1} << 40;
    EXPECT_THROW(bucketBoundaries(linear), FatalError);
}

TEST(Bucketing, RejectsOutOfRangeAndMalformedPolicies)
{
    BucketPolicy policy;
    EXPECT_THROW(bucketLen(0, policy), FatalError);
    EXPECT_THROW(bucketLen(policy.max_len + 1, policy),
                 FatalError);
    auto ladder = bucketBoundaries(policy);
    EXPECT_THROW(bucketIn(ladder, 0), FatalError);
    EXPECT_THROW(bucketIn(ladder, policy.max_len + 1), FatalError);
    EXPECT_THROW(bucketIn({}, 1), FatalError);
    BucketPolicy shrinking;
    shrinking.growth_num = 1;
    shrinking.growth_den = 2;
    EXPECT_THROW(bucketBoundaries(shrinking), FatalError);
}
