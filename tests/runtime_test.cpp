/** @file Unit tests for the host runtime executor. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <thread>

#include "support/error.h"

#include "models/bucketing.h"
#include "runtime/executor.h"

using namespace streamtensor;

namespace {

runtime::LlmExecutor &
gpt2Executor()
{
    static runtime::LlmExecutor executor(models::gpt2Config(),
                                         hls::u55c());
    return executor;
}

/** Bit-identical step results (EXPECT_EQ on the doubles). */
void
expectSameStep(const runtime::StepResult &got,
               const runtime::StepResult &want)
{
    EXPECT_EQ(got.step_ms, want.step_ms);
    EXPECT_EQ(got.deadlock, want.deadlock);
}

/** @p groups with every {S, n} split into n groups {S, 1}. */
std::vector<runtime::StepGroup>
splitIntoSingles(const std::vector<runtime::StepGroup> &groups)
{
    std::vector<runtime::StepGroup> singles;
    for (const auto &g : groups)
        for (int64_t i = 0; i < g.count; ++i)
            singles.push_back({g.shapes, 1});
    return singles;
}

} // namespace

TEST(Executor, RunProducesFiniteMetrics)
{
    auto r = gpt2Executor().run(32, 32);
    EXPECT_GT(r.ttft_ms, 0.0);
    EXPECT_GT(r.decode_ms_per_token, 0.0);
    EXPECT_GT(r.tokens_per_s, 0.0);
    EXPECT_GT(r.energy_j, 0.0);
    EXPECT_GT(r.tokens_per_joule, 0.0);
    EXPECT_FALSE(r.deadlock);
}

TEST(Executor, LatencyDecomposes)
{
    auto r = gpt2Executor().run(32, 64);
    EXPECT_NEAR(r.total_latency_ms,
                r.ttft_ms + 64 * r.decode_ms_per_token, 1e-6);
    EXPECT_NEAR(r.tokens_per_s,
                64.0 / (64 * r.decode_ms_per_token) * 1e3, 1e-6);
}

TEST(Executor, TtftScalesWithInputLength)
{
    auto r32 = gpt2Executor().run(32, 32);
    auto r128 = gpt2Executor().run(128, 32);
    // Roughly linear: 4x input within [2.5x, 6x].
    double ratio = r128.ttft_ms / r32.ttft_ms;
    EXPECT_GT(ratio, 2.5);
    EXPECT_LT(ratio, 6.0);
}

TEST(Executor, BlockCacheReusesCompiles)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    const auto &a = executor.block(models::decodeShapes(48));
    const auto &b = executor.block(models::decodeShapes(48));
    EXPECT_EQ(&a, &b);
    const auto &c = executor.block(models::decodeShapes(96));
    EXPECT_NE(&a, &c);
}

TEST(Executor, PowerWithinPlatformEnvelope)
{
    auto r = gpt2Executor().run(64, 64);
    EXPECT_GT(r.avg_power_w,
              hls::u55c().tdp_watts *
                  hls::u55c().idle_power_fraction * 0.99);
    EXPECT_LE(r.avg_power_w, hls::u55c().tdp_watts);
}

TEST(Executor, AllModelsRunDecodeWithoutDeadlock)
{
    for (const auto &cfg : models::allConfigs()) {
        runtime::LlmExecutor executor(cfg, hls::u55c());
        auto r = executor.run(32, 32);
        EXPECT_FALSE(r.deadlock) << cfg.name;
        EXPECT_GT(r.tokens_per_s, 0.0) << cfg.name;
    }
}

TEST(Executor, DeterministicAcrossRuns)
{
    runtime::LlmExecutor a(models::gpt2Config(), hls::u55c());
    runtime::LlmExecutor b(models::gpt2Config(), hls::u55c());
    auto ra = a.run(32, 32);
    auto rb = b.run(32, 32);
    EXPECT_DOUBLE_EQ(ra.total_latency_ms, rb.total_latency_ms);
    EXPECT_DOUBLE_EQ(ra.ttft_ms, rb.ttft_ms);
}

TEST(Executor, RejectsBadRequests)
{
    EXPECT_THROW(gpt2Executor().run(0, 8), FatalError);
    EXPECT_THROW(gpt2Executor().run(8, 0), FatalError);
}

TEST(Executor, CacheKeyedByBlockShapesNotLengthPair)
{
    // Prefill {48, 48} and decode {1, 48} share a kv_len but are
    // distinct shapes and must compile separately.
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    const auto &prefill =
        executor.block(models::prefillShapes(48));
    const auto &decode = executor.block(models::decodeShapes(48));
    EXPECT_NE(&prefill, &decode);
    EXPECT_EQ(executor.compileCount(), 2);
}

TEST(Executor, RequestsInSameBucketCompileExactlyOnce)
{
    // Serving regression: two requests whose lengths land in the
    // same buckets must hit one compiled block. Inputs 9 and 12
    // prefill-bucket to 16 and every decode context (11..15)
    // buckets to 16 too, so the second request adds zero
    // compiles.
    models::BucketPolicy buckets;
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto serveOnce = [&](int64_t input_len, int64_t output_len) {
        (void)executor.step(
            {{models::bucketedPrefillShapes(input_len, buckets),
              1}});
        for (int64_t t = 1; t < output_len; ++t)
            (void)executor.step(
                {{models::bucketedDecodeShapes(input_len + t + 1,
                                               buckets),
                  1}});
    };
    serveOnce(9, 3);
    int64_t compiles_after_first = executor.compileCount();
    EXPECT_EQ(compiles_after_first, 2); // one prefill, one decode
    serveOnce(12, 3);
    EXPECT_EQ(executor.compileCount(), compiles_after_first);
}

TEST(Executor, StepCostsBatchedGroups)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto single = executor.step({{models::decodeShapes(96), 1}});
    auto batched = executor.step({{models::decodeShapes(96), 4}});
    EXPECT_FALSE(single.deadlock);
    EXPECT_GT(single.step_ms, 0.0);
    // Batching amortises weight streaming: more than one
    // sequence's cost, well under four serial passes.
    EXPECT_GT(batched.step_ms, single.step_ms);
    EXPECT_LT(batched.step_ms, 4.0 * single.step_ms);
}

TEST(Executor, StepSumsShapeGroups)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto decode = executor.step({{models::decodeShapes(96), 2}});
    auto prefill =
        executor.step({{models::prefillShapes(32), 1}});
    auto mixed =
        executor.step({{models::decodeShapes(96), 2},
                       {models::prefillShapes(32), 1}});
    EXPECT_GT(mixed.step_ms, decode.step_ms);
    EXPECT_GT(mixed.step_ms, prefill.step_ms);
    // Overhead amortisation makes the combined step cheaper than
    // the two separate steps.
    EXPECT_LT(mixed.step_ms, decode.step_ms + prefill.step_ms);
}

TEST(Executor, StepIsDeterministic)
{
    runtime::LlmExecutor a(models::gpt2Config(), hls::u55c());
    runtime::LlmExecutor b(models::gpt2Config(), hls::u55c());
    std::vector<runtime::StepGroup> groups = {
        {models::decodeShapes(64), 3},
        {models::prefillShapes(32), 1}};
    EXPECT_DOUBLE_EQ(a.step(groups).step_ms,
                     b.step(groups).step_ms);
}

TEST(Executor, StepMergesDuplicateShapeGroups)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto split = executor.step({{models::decodeShapes(96), 1},
                                {models::decodeShapes(96), 1}});
    auto merged = executor.step({{models::decodeShapes(96), 2}});
    EXPECT_DOUBLE_EQ(split.step_ms, merged.step_ms);
    EXPECT_EQ(executor.compileCount(), 1);
}

TEST(Executor, StepDoesNotDependOnGroupOrder)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    // Ascending shape order: decodes (seq 1) before prefills.
    const std::vector<runtime::StepGroup> sorted = {
        {models::decodeShapes(48), 2},
        {models::decodeShapes(96), 3},
        {models::prefillShapes(32), 1},
        {models::prefillShapes(64), 2}};
    const runtime::StepResult want = executor.step(sorted);

    std::vector<runtime::StepGroup> reversed(sorted.rbegin(),
                                             sorted.rend());
    expectSameStep(executor.step(reversed), want);

    std::mt19937 rng(7);
    std::vector<runtime::StepGroup> shuffled = sorted;
    for (int round = 0; round < 8; ++round) {
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        expectSameStep(executor.step(shuffled), want);
    }

    // Duplicates merge whatever their order: {S,1}x3 is {S,3}.
    std::vector<runtime::StepGroup> singles =
        splitIntoSingles(sorted);
    expectSameStep(executor.step(singles), want);
    std::shuffle(singles.begin(), singles.end(), rng);
    expectSameStep(executor.step(singles), want);
    expectSameStep(
        executor.step({{models::decodeShapes(96), 1},
                       {models::decodeShapes(96), 1},
                       {models::decodeShapes(96), 1}}),
        executor.step({{models::decodeShapes(96), 3}}));
    EXPECT_EQ(executor.compileCount(), 4);
}

TEST(Executor, StepMergesFortyGroups)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    const std::vector<runtime::StepGroup> merged = {
        {models::decodeShapes(48), 10},
        {models::decodeShapes(96), 10},
        {models::prefillShapes(32), 10},
        {models::prefillShapes(64), 10}};
    std::vector<runtime::StepGroup> forty =
        splitIntoSingles(merged);
    ASSERT_EQ(forty.size(), 40u);
    std::shuffle(forty.begin(), forty.end(), std::mt19937(11));
    expectSameStep(executor.step(forty), executor.step(merged));
}

TEST(Executor, ConcurrentStepsMatchSerialExecutor)
{
    // Two threads stepping one executor at once — one group set
    // warm, each with a shape the other may be compiling — must
    // see exactly what a serial executor computes: step() keeps
    // no state shared between callers beyond the block cache.
    runtime::LlmExecutor shared(models::gpt2Config(), hls::u55c());
    runtime::LlmExecutor serial(models::gpt2Config(), hls::u55c());
    (void)shared.block(models::decodeShapes(48));
    const std::vector<runtime::StepGroup> a = {
        {models::prefillShapes(32), 1},
        {models::decodeShapes(48), 2}};
    const std::vector<runtime::StepGroup> b = {
        {models::decodeShapes(96), 2},
        {models::decodeShapes(48), 1},
        {models::prefillShapes(32), 1}};
    constexpr int kSteps = 64;
    std::vector<runtime::StepResult> got_a(kSteps), got_b(kSteps);
    std::thread ta([&] {
        for (auto &r : got_a)
            r = shared.step(a);
    });
    std::thread tb([&] {
        for (auto &r : got_b)
            r = shared.step(b);
    });
    ta.join();
    tb.join();
    const runtime::StepResult want_a = serial.step(a);
    const runtime::StepResult want_b = serial.step(b);
    for (int i = 0; i < kSteps; ++i) {
        expectSameStep(got_a[i], want_a);
        expectSameStep(got_b[i], want_b);
    }
    EXPECT_EQ(shared.compileCount(), 3);
}

TEST(Executor, StepRejectsContextShorterThanQuery)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    // More query tokens than the context holds: refused at block
    // build, and refused again (not waited on) by a retry.
    const models::BlockShapes bad{32, 16};
    EXPECT_THROW(executor.step({{bad, 1}}), FatalError);
    EXPECT_THROW(executor.step({{models::decodeShapes(48), 1},
                                {bad, 1}}),
                 FatalError);
}

TEST(Executor, StepRejectsMalformedGroups)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    EXPECT_THROW(executor.step({}), FatalError);
    EXPECT_THROW(
        executor.step({{models::decodeShapes(48), 0}}),
        FatalError);
    // Counts whose sum overflows int64_t are refused before they
    // are summed, whether or not they share a shape.
    EXPECT_THROW(
        executor.step({{models::decodeShapes(48), INT64_MAX},
                       {models::decodeShapes(48), 1}}),
        FatalError);
    EXPECT_THROW(
        executor.step({{models::decodeShapes(48), INT64_MAX},
                       {models::decodeShapes(64), 1}}),
        FatalError);
}

TEST(CompiledBlock, BatchedCyclesGrowLinearlyAtSteadyInterval)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    const auto &blk = executor.block(models::decodeShapes(48));
    double b1 = blk.batchedCycles(1);
    double b2 = blk.batchedCycles(2);
    double b3 = blk.batchedCycles(3);
    EXPECT_DOUBLE_EQ(b1, blk.totalCycles());
    EXPECT_GT(b2, b1);
    // Marginal cost of each extra member is one steady interval.
    EXPECT_DOUBLE_EQ(b3 - b2, b2 - b1);
    // The steady interval never exceeds the full fill latency.
    EXPECT_LE(b2 - b1, b1);
    for (const auto &s : blk.sims) {
        double interval = sim::steadyIntervalCycles(s);
        EXPECT_GT(interval, 0.0);
        EXPECT_LE(interval, s.cycles);
    }
    EXPECT_THROW(blk.batchedCycles(0), FatalError);
}

TEST(CompiledBlock, StoredStepTermsEqualPerComponentDerivation)
{
    // The terms a CompiledBlock stores at construction must equal,
    // bit for bit, the per-component derivation over its sims.
    auto ladder = models::bucketBoundaries(models::BucketPolicy{});
    ASSERT_GE(ladder.size(), 3u);
    for (const auto &cfg :
         {models::gpt2Config(), models::llamaConfig()}) {
        runtime::LlmExecutor executor(cfg, hls::u55c());
        for (size_t b = 0; b < 3; ++b) {
            for (const auto &shapes :
                 {models::prefillShapes(ladder[b]),
                  models::decodeShapes(ladder[b])}) {
                SCOPED_TRACE(cfg.name + " seq " +
                             std::to_string(shapes.seq_len) +
                             " kv " + std::to_string(shapes.kv_len));
                const auto &blk = executor.block(shapes);
                ASSERT_FALSE(blk.sims.empty());
                for (int64_t k = 1; k <= 16; ++k) {
                    double want = 0.0;
                    for (const auto &s : blk.sims)
                        want += sim::batchedCycles(s, k);
                    EXPECT_EQ(blk.batchedCycles(k), want) << k;
                }
                int64_t crossings = 0;
                double stall = 0.0;
                bool deadlocked = false;
                for (const auto &s : blk.sims) {
                    crossings += s.crossing_channels;
                    stall += s.crossing_stall_cycles;
                    deadlocked =
                        deadlocked || s.deadlock || s.timed_out;
                }
                EXPECT_EQ(blk.crossings(), crossings);
                EXPECT_EQ(blk.crossingStallCycles(), stall);
                EXPECT_EQ(blk.deadlocked(), deadlocked);
            }
        }
    }
}

TEST(CompiledBlock, AggregatesGroupCycles)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    const auto &blk = executor.block(models::decodeShapes(48));
    EXPECT_GT(blk.totalCycles(), 0.0);
    EXPECT_FALSE(blk.deadlocked());
    EXPECT_EQ(blk.sims.size(),
              static_cast<size_t>(
                  blk.compile.design.components.numGroups()));
}

TEST(CompiledBlock, ServingShapeCyclesAndIntervalsArePinned)
{
    // Every serving step cost reads each group's cycles and
    // steadyIntervalCycles (which reads stall_cycles), so both are
    // pinned bit for bit over the prefill and decode shapes of
    // every default bucket up to 992, per model.
    struct Pin
    {
        models::LlmConfig config;
        double cycles;
        double intervals;
    };
    const Pin pins[] = {
        {models::gpt2Config(), 24235836.603864733,
         23665616.381642513},
        {models::llamaConfig(), 96433642.908212557,
         94405871.299516916},
    };
    auto ladder = models::bucketBoundaries(models::BucketPolicy{});
    for (const Pin &pin : pins) {
        runtime::LlmExecutor executor(pin.config, hls::u55c());
        double cycles = 0.0;
        double intervals = 0.0;
        for (int64_t len : ladder) {
            if (len > 992)
                break;
            for (const auto &shapes : {models::prefillShapes(len),
                                       models::decodeShapes(len)}) {
                for (const auto &s : executor.block(shapes).sims) {
                    cycles += s.cycles;
                    intervals += sim::steadyIntervalCycles(s);
                }
            }
        }
        EXPECT_EQ(cycles, pin.cycles) << pin.config.name;
        EXPECT_EQ(intervals, pin.intervals) << pin.config.name;
    }
}

TEST(Executor, WarmRaceCompilesOnce)
{
    // Two threads warming the same bucketed shape concurrently
    // must produce exactly one compile: the second caller waits
    // on the cache lock and then hits the first caller's entry
    // (the contract documented on block()).
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto shapes = models::decodeShapes(64);
    const runtime::CompiledBlock *a = nullptr;
    const runtime::CompiledBlock *b = nullptr;
    std::thread t1([&] { a = &executor.block(shapes); });
    std::thread t2([&] { b = &executor.block(shapes); });
    t1.join();
    t2.join();
    EXPECT_EQ(executor.compileCount(), 1);
    // Both callers see the same cached entry.
    EXPECT_EQ(a, b);
    // A third call is a pure cache hit.
    executor.block(shapes);
    EXPECT_EQ(executor.compileCount(), 1);
}

TEST(Executor, WarmHitsRaceMissCompiles)
{
    // Hits on warm shapes race misses inserting new blocks: every
    // hit must see the first address for its shape, and each new
    // shape compiles exactly once.
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    const models::BlockShapes warm[2] = {models::decodeShapes(48),
                                         models::decodeShapes(64)};
    const models::BlockShapes cold[2] = {models::decodeShapes(32),
                                         models::prefillShapes(16)};
    const runtime::CompiledBlock *first[2] = {
        &executor.block(warm[0]), &executor.block(warm[1])};

    std::atomic<int> compiling{2};
    std::atomic<int64_t> mismatches{0};
    std::atomic<int64_t> hits{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            for (int64_t i = 0;
                 compiling.load() > 0 || i < 1000; ++i) {
                int w = static_cast<int>((i + t) % 2);
                if (&executor.block(warm[w]) != first[w])
                    ++mismatches;
                ++hits;
            }
        });
    const runtime::CompiledBlock *compiled[2] = {nullptr, nullptr};
    for (int c = 0; c < 2; ++c)
        threads.emplace_back([&, c] {
            compiled[c] = &executor.block(cold[c]);
            --compiling;
        });
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_GE(hits.load(), 4000);
    EXPECT_EQ(executor.compileCount(), 4);
    for (int c = 0; c < 2; ++c)
        EXPECT_EQ(&executor.block(cold[c]), compiled[c]);
    for (int w = 0; w < 2; ++w)
        EXPECT_EQ(&executor.block(warm[w]), first[w]);
    EXPECT_EQ(executor.compileCount(), 4);
}
