/** @file Weight-streaming unit tests: artifact manifests against
 *  the model configs' own byte accounting, the storage-tier chunk
 *  time model, and WeightStreamPlan determinism / watermark
 *  invariants. All instants are simulated and pure arithmetic, so
 *  every assertion is exact or bit-reproducible. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "models/llm_config.h"
#include "serving/storage_tier.h"
#include "serving/weights.h"
#include "support/error.h"

using namespace streamtensor;
using serving::ModelArtifact;
using serving::StorageTierProfile;
using serving::WeightStreamOptions;
using serving::WeightStreamPlan;
using serving::WeightStreamer;

TEST(ModelArtifactTest, MatchesConfigParamBytesForAllModels)
{
    // The manifest is derived tensor-by-tensor; its totals must
    // land exactly on the configs' own parameter accounting.
    for (const auto &cfg : models::allConfigs()) {
        auto artifact = ModelArtifact::fromConfig(cfg);
        EXPECT_EQ(artifact.model, cfg.name);
        ASSERT_EQ(artifact.layers.size(),
                  static_cast<size_t>(cfg.layers))
            << cfg.name;
        EXPECT_EQ(artifact.total_bytes, cfg.totalParamBytes())
            << cfg.name;
        int64_t sum = 0;
        for (const auto &layer : artifact.layers) {
            int64_t layer_sum = 0;
            for (const auto &t : layer.tensors) {
                EXPECT_GE(t.bytes, 1) << cfg.name << " " << t.name;
                layer_sum += t.bytes;
            }
            EXPECT_EQ(layer_sum, layer.bytes) << cfg.name;
            sum += layer.bytes;
        }
        EXPECT_EQ(sum, artifact.total_bytes) << cfg.name;
    }
}

TEST(ModelArtifactTest, SiluModelsCarryGateUpDown)
{
    auto llama =
        ModelArtifact::fromConfig(models::llamaConfig());
    auto names = [](const serving::LayerManifest &layer) {
        std::vector<std::string> out;
        for (const auto &t : layer.tensors)
            out.push_back(t.name);
        return out;
    };
    auto ln = names(llama.layers[0]);
    EXPECT_NE(std::find(ln.begin(), ln.end(), "w_gate"),
              ln.end());
    EXPECT_EQ(std::find(ln.begin(), ln.end(), "w_fc1"), ln.end());

    auto gpt2 = ModelArtifact::fromConfig(models::gpt2Config());
    auto gn = names(gpt2.layers[0]);
    EXPECT_NE(std::find(gn.begin(), gn.end(), "w_fc1"), gn.end());
    EXPECT_EQ(std::find(gn.begin(), gn.end(), "w_gate"),
              gn.end());
}

TEST(StorageTierTest, ChunkServiceBandwidthBound)
{
    // One reader on GP3: per-reader 250 MiB/s is the binding
    // ceiling (aggregate/1 = 1000), so a 2 MiB chunk takes
    // first_byte + 2 MiB / 250 MiB/s = 0.5 + 8 ms; the IOPS floor
    // (1/16000 s) is far below.
    StorageTierProfile gp3 = serving::gp3Tier();
    double ms = serving::chunkServiceMs(gp3, 2 * 1024 * 1024, 1);
    EXPECT_DOUBLE_EQ(ms, 0.5 + 8.0);

    // Eight readers: fair share 125 MiB/s binds instead, so the
    // same chunk takes 0.5 + 16 ms per reader.
    double ms8 = serving::chunkServiceMs(gp3, 2 * 1024 * 1024, 8);
    EXPECT_DOUBLE_EQ(ms8, 0.5 + 16.0);
}

TEST(StorageTierTest, ChunkServiceIopsBound)
{
    // Tiny chunks at high reader counts hit the IOPS floor:
    // readers * 1000 / iops dominates the near-zero transfer.
    StorageTierProfile io2 = serving::io2Tier();
    double floor_ms = 64.0 * 1000.0 / io2.iops;
    double ms = serving::chunkServiceMs(io2, 1, 64);
    EXPECT_GE(ms, floor_ms);
    EXPECT_DOUBLE_EQ(ms, floor_ms);
}

TEST(StorageTierTest, PresetsValidateAndDiffer)
{
    for (const auto &tier : serving::allTiers()) {
        EXPECT_NO_THROW(serving::validateStorageTier(tier));
        EXPECT_FALSE(tier.name.empty());
    }
    // The presets model genuinely different hardware: S3 pays
    // orders of magnitude more first-byte latency than block
    // storage.
    EXPECT_GT(serving::s3Tier().first_byte_ms,
              10.0 * serving::gp3Tier().first_byte_ms);
    EXPECT_GT(serving::io2Tier().aggregate_mib_s,
              serving::gp3Tier().aggregate_mib_s);
}

TEST(WeightStreamTest, WatermarkMonotoneAndBoundsStream)
{
    auto artifact =
        ModelArtifact::fromConfig(models::gpt2Config());
    WeightStreamer streamer;
    auto plan = streamer.plan(artifact, 10.0);

    ASSERT_FALSE(plan.empty());
    ASSERT_EQ(plan.layer_ready_ms.size(),
              artifact.layers.size());
    EXPECT_DOUBLE_EQ(plan.start_ms, 10.0);
    EXPECT_EQ(plan.bytes_total, artifact.total_bytes);
    EXPECT_GT(plan.chunks, 0);
    EXPECT_EQ(plan.readers, 8);

    double prev = plan.start_ms;
    for (double ready : plan.layer_ready_ms) {
        EXPECT_GE(ready, prev); // prefix-max: non-decreasing
        prev = ready;
    }
    EXPECT_DOUBLE_EQ(plan.layer_ready_ms.back(), plan.end_ms);
    EXPECT_GT(plan.streamMs(), 0.0);
}

TEST(WeightStreamTest, PlanBitIdenticalAcrossReruns)
{
    auto artifact =
        ModelArtifact::fromConfig(models::qwenConfig());
    WeightStreamer streamer;
    auto a = streamer.plan(artifact);
    auto b = streamer.plan(artifact);
    EXPECT_DOUBLE_EQ(a.end_ms, b.end_ms);
    ASSERT_EQ(a.layer_ready_ms.size(), b.layer_ready_ms.size());
    for (size_t l = 0; l < a.layer_ready_ms.size(); ++l)
        EXPECT_DOUBLE_EQ(a.layer_ready_ms[l],
                         b.layer_ready_ms[l]);
}

TEST(WeightStreamTest, TierOrderingIo2BeatsGp3BeatsS3)
{
    // At the default 8-reader / 2 MiB configuration the tiers
    // must order by effective bandwidth: io2 < gp3 < s3 stream
    // time, on every model.
    for (const auto &cfg : models::allConfigs()) {
        auto artifact = ModelArtifact::fromConfig(cfg);
        auto streamFor = [&](const StorageTierProfile &tier) {
            WeightStreamOptions o;
            o.tier = tier;
            return WeightStreamer(o).plan(artifact).streamMs();
        };
        double gp3 = streamFor(serving::gp3Tier());
        double io2 = streamFor(serving::io2Tier());
        double s3 = streamFor(serving::s3Tier());
        EXPECT_LT(io2, gp3) << cfg.name;
        EXPECT_LT(gp3, s3) << cfg.name;
    }
}

TEST(WeightStreamTest, S3NeedsConcurrency)
{
    // S3-class tiers are latency- and per-stream-limited: more
    // readers hide first-byte latency and beat the per-stream
    // ceiling, so 32 readers must finish well ahead of 4.
    auto artifact =
        ModelArtifact::fromConfig(models::gpt2Config());
    auto streamFor = [&](int64_t readers) {
        WeightStreamOptions o;
        o.tier = serving::s3Tier();
        o.num_readers = readers;
        return WeightStreamer(o).plan(artifact).streamMs();
    };
    EXPECT_LT(streamFor(32), 0.5 * streamFor(4));
}

TEST(WeightStreamTest, ReadersCappedAtChunkCount)
{
    // Repeated 8-reader plans are already pinned bit-identical
    // above. Here: the assignment is a pure function of
    // (manifest, options) — capping readers at the chunk count
    // never leaves idle contenders.
    serving::LayerManifest layer;
    layer.tensors.push_back({"w", 3 * 1024 * 1024});
    layer.bytes = 3 * 1024 * 1024;
    ModelArtifact tiny;
    tiny.model = "tiny";
    tiny.layers = {layer};
    tiny.total_bytes = layer.bytes;

    WeightStreamOptions o;
    o.num_readers = 64; // only 2 chunks exist
    auto plan = WeightStreamer(o).plan(tiny);
    EXPECT_EQ(plan.readers, 2);
    EXPECT_EQ(plan.chunks, 2);
}

TEST(WeightStreamTest, GatedComputeOverlapNeverWorse)
{
    auto artifact =
        ModelArtifact::fromConfig(models::gpt2Config());
    WeightStreamer streamer;
    auto plan = streamer.plan(artifact);

    for (double compute : {1.0, 25.0, 400.0, 5000.0}) {
        double off = plan.gatedComputeEndMs(0.0, compute, false);
        double on = plan.gatedComputeEndMs(0.0, compute, true);
        // Overlap pays at most the wait-for-everything cost and
        // at least the pure compute cost.
        EXPECT_LE(on, off);
        EXPECT_GE(on, compute);
        EXPECT_DOUBLE_EQ(off,
                         std::max(0.0, plan.end_ms) + compute);
    }

    // With more than one layer there is real overlap to win:
    // compute on early layers hides later layers' streaming.
    ASSERT_GT(plan.layer_ready_ms.size(), 1u);
    double compute = plan.streamMs();
    EXPECT_LT(plan.gatedComputeEndMs(0.0, compute, true),
              plan.gatedComputeEndMs(0.0, compute, false));
}

TEST(WeightStreamTest, GatedComputeWarmAndPostStream)
{
    auto artifact =
        ModelArtifact::fromConfig(models::gpt2Config());
    auto plan = WeightStreamer().plan(artifact);

    // An empty plan gates nothing.
    WeightStreamPlan warm;
    EXPECT_TRUE(warm.empty());
    EXPECT_DOUBLE_EQ(warm.gatedComputeEndMs(7.0, 3.0, true),
                     10.0);
    EXPECT_DOUBLE_EQ(warm.gatedComputeEndMs(7.0, 3.0, false),
                     10.0);

    // Once the stream has finished, gating is exactly
    // start + compute in both modes.
    double late = plan.end_ms + 100.0;
    EXPECT_DOUBLE_EQ(plan.gatedComputeEndMs(late, 12.0, true),
                     late + 12.0);
    EXPECT_DOUBLE_EQ(plan.gatedComputeEndMs(late, 12.0, false),
                     late + 12.0);
}

TEST(WeightStreamTest, DomainChecks)
{
    WeightStreamOptions bad_readers;
    bad_readers.num_readers = 0;
    EXPECT_THROW(WeightStreamer{bad_readers}, streamtensor::FatalError);

    StorageTierProfile bad_tier;
    bad_tier.aggregate_mib_s = 0.0;
    EXPECT_THROW(serving::validateStorageTier(bad_tier),
                 streamtensor::FatalError);

    WeightStreamer streamer;
    ModelArtifact empty;
    EXPECT_THROW(streamer.plan(empty), streamtensor::FatalError);
}
