/** @file Integration tests: the full PyTorch-block-to-simulated-
 *  accelerator path, cross-module invariants. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "baselines/fpga_baselines.h"
#include "baselines/gpu_model.h"
#include "compiler/compiler.h"
#include "hls/rtl_time.h"
#include "linalg/builders.h"
#include "models/block_builder.h"
#include "runtime/executor.h"
#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/replica.h"
#include "serving/weights.h"
#include "sim/simulator.h"

using namespace streamtensor;

TEST(EndToEnd, AllModelsCompileAndSimulateDecode)
{
    for (const auto &cfg : models::allConfigs()) {
        auto graph = models::buildTransformerBlock(
            cfg, models::decodeShapes(64));
        auto result =
            compiler::compile(std::move(graph), hls::u55c(), {});
        auto sims = sim::simulateAll(result.design.components);
        for (const auto &s : sims) {
            EXPECT_FALSE(s.deadlock) << cfg.name;
            EXPECT_FALSE(s.timed_out) << cfg.name;
            EXPECT_GT(s.cycles, 0.0) << cfg.name;
        }
    }
}

TEST(EndToEnd, SimObservedOccupancyWithinFifoDepths)
{
    // The LP sized every FIFO so that no back-pressure occurs; the
    // simulator must never observe occupancy above the depth.
    auto graph = models::buildTransformerBlock(
        models::gpt2Config(), models::decodeShapes(48));
    auto result =
        compiler::compile(std::move(graph), hls::u55c(), {});
    const auto &cg = result.design.components;
    auto sims = sim::simulateAll(cg);
    auto channels = cg.groupChannels(0);
    for (size_t c = 0; c < channels.size(); ++c) {
        const auto &ch = cg.channel(channels[c]);
        int64_t cap = ch.folded ? cg.channelBurst(channels[c])
                                : ch.depth;
        EXPECT_LE(sims[0].channels[c].max_occupancy, cap);
    }
}

TEST(EndToEnd, PrefillScalesWithSequenceLength)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    const auto &small =
        executor.block(models::prefillShapes(32));
    const auto &large =
        executor.block(models::prefillShapes(128));
    EXPECT_GT(large.totalCycles(), small.totalCycles() * 2.0);
}

TEST(EndToEnd, DecodeIsWeightBoundNotComputeBound)
{
    // Doubling the unroll budget must barely move decode-block
    // latency (weight streaming dominates).
    compiler::CompileOptions base;
    compiler::CompileOptions wide;
    wide.tiling.overall_unroll_size *= 2;
    runtime::LlmExecutor a(models::gpt2Config(), hls::u55c(),
                           base);
    runtime::LlmExecutor b(models::gpt2Config(), hls::u55c(),
                           wide);
    double ca = a.block(models::decodeShapes(96)).totalCycles();
    double cb = b.block(models::decodeShapes(96)).totalCycles();
    EXPECT_GT(cb, 0.6 * ca);
}

TEST(EndToEnd, FusionReducesIntermediateMemory)
{
    for (const auto &cfg : models::allConfigs()) {
        auto graph = models::buildTransformerBlock(
            cfg, models::prefillShapes(128));
        auto result =
            compiler::compile(std::move(graph), hls::u55c(), {});
        EXPECT_LT(result.design.fusedIntermediateBytes(),
                  result.design.original_intermediate_bytes)
            << cfg.name;
    }
}

TEST(EndToEnd, DeterministicCompilation)
{
    auto compileOnce = [] {
        auto graph = models::buildTransformerBlock(
            models::qwenConfig(), models::decodeShapes(64));
        return compiler::compile(std::move(graph), hls::u55c(),
                                 {});
    };
    auto a = compileOnce();
    auto b = compileOnce();
    ASSERT_EQ(a.design.components.numChannels(),
              b.design.components.numChannels());
    for (int64_t c = 0; c < a.design.components.numChannels();
         ++c) {
        EXPECT_EQ(a.design.components.channel(c).depth,
                  b.design.components.channel(c).depth);
    }
}

TEST(EndToEnd, GeneratedHlsMentionsEveryKernel)
{
    auto graph = models::buildTransformerBlock(
        models::gpt2Config(), models::decodeShapes(48));
    auto result =
        compiler::compile(std::move(graph), hls::u55c(), {});
    const auto &cg = result.design.components;
    for (int64_t i = 0; i < cg.numComponents(); ++i) {
        const auto &c = cg.component(i);
        if (c.kind != dataflow::ComponentKind::Kernel)
            continue;
        EXPECT_NE(result.code.hls_cpp.find(c.name),
                  std::string::npos)
            << c.name;
    }
}

namespace {

/** The fixed traffic trace of the golden serving test. */
std::vector<serving::Request>
goldenTrace()
{
    auto make = [](int64_t id, double arrival_ms,
                   int64_t input_len, int64_t output_len) {
        serving::Request r;
        r.id = id;
        r.arrival_ms = arrival_ms;
        r.input_len = input_len;
        r.output_len = output_len;
        return r;
    };
    return {make(0, 0.0, 24, 8),  make(1, 0.0, 48, 4),
            make(2, 5.0, 16, 6),  make(3, 30.0, 96, 4),
            make(4, 30.0, 32, 8), make(5, 200.0, 24, 2)};
}

/** A fleet of one replica running @p options, with no faults. */
serving::FleetOptions
oneReplica(const serving::ReplicaOptions &options)
{
    serving::FleetOptions fleet;
    fleet.num_replicas = 1;
    fleet.replica = options;
    return fleet;
}

} // namespace

TEST(EndToEnd, GoldenServingTraceThroughFullStack)
{
    // A small fixed trace through the complete
    // compile -> simulate -> serve stack (GPT-2 on the U55C with
    // executor-backed step costs). Golden values were captured
    // from this deterministic pipeline; tight tolerances catch
    // any behavioural drift in the compiler, simulator, executor
    // batching, or scheduler.
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    serving::ExecutorCostModel cost(executor);
    serving::ReplicaOptions options;
    options.max_batch = 4;
    options.kv_budget_tokens = 512;
    options.record_steps = true;
    serving::FleetScheduler scheduler(oneReplica(options), cost);

    auto result = scheduler.run(goldenTrace());
    const auto &m = result.metrics;

    EXPECT_FALSE(cost.sawDeadlock());
    EXPECT_FALSE(result.hit_step_limit);
    EXPECT_TRUE(result.rejected.empty());
    EXPECT_EQ(m.completed, 6);
    EXPECT_EQ(m.total_output_tokens, 32);

    // Bucketing keeps the compile cache tiny: six requests, many
    // contexts, few shapes.
    EXPECT_LE(executor.compileCount(), 12);

    // Golden step count and timing metrics (captured values;
    // tolerance 0.1% relative).
#define EXPECT_REL_NEAR(actual, expected)                         \
    EXPECT_NEAR(actual, expected, (expected) * 1e-3 + 1e-9)
    EXPECT_EQ(m.steps, 12);
    EXPECT_REL_NEAR(m.makespan_ms, 384.983819007);
    EXPECT_REL_NEAR(m.requestsPerSecond(), 15.585070602);
    EXPECT_REL_NEAR(m.ttftMeanMs(), 161.219440755);
    EXPECT_REL_NEAR(m.ttftP95Ms(), 265.477007479);
    EXPECT_REL_NEAR(m.latencyPercentileMs(50.0), 265.477007479);
    EXPECT_REL_NEAR(m.latencyPercentileMs(99.0), 365.067899249);
    EXPECT_REL_NEAR(m.tbtMeanMs(), 29.743654158);
    EXPECT_REL_NEAR(m.busy_ms, m.makespan_ms);
    // The trace keeps the accelerator saturated end to end.
    EXPECT_DOUBLE_EQ(m.utilization(), 1.0);
#undef EXPECT_REL_NEAR

    // The golden schedule replays bit-identically on a fresh
    // executor (repeated-run determinism of the whole stack).
    runtime::LlmExecutor executor2(models::gpt2Config(),
                                   hls::u55c());
    serving::ExecutorCostModel cost2(executor2);
    serving::FleetScheduler scheduler2(oneReplica(options), cost2);
    auto result2 = scheduler2.run(goldenTrace());
    EXPECT_DOUBLE_EQ(result2.metrics.makespan_ms, m.makespan_ms);
    const auto &steps = result.replicas[0].steps;
    const auto &steps2 = result2.replicas[0].steps;
    ASSERT_EQ(steps2.size(), steps.size());
    for (size_t i = 0; i < steps.size(); ++i) {
        EXPECT_EQ(steps2[i].prefill_ids, steps[i].prefill_ids);
        EXPECT_EQ(steps2[i].decode_ids, steps[i].decode_ids);
        EXPECT_DOUBLE_EQ(steps2[i].step_ms, steps[i].step_ms);
    }
}

TEST(EndToEnd, DecodeBucketBoundaryCompilesNoExtraShape)
{
    // Context-length convention regression (replica.h): a
    // sequence with g generated tokens attends input + g tokens.
    // R0 (input 15, output 2) decodes at context 16 — exactly on
    // the first bucket boundary — and must share R1's (input 8)
    // decode bucket. The old input + g + 1 convention pushed R0
    // to the 32-bucket one step early, splitting the step group
    // and compiling a third (spurious) shape.
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    serving::ExecutorCostModel cost(executor);
    serving::ReplicaOptions options;
    options.max_batch = 2;
    options.kv_budget_tokens = 512;
    options.record_steps = true;
    serving::FleetScheduler scheduler(oneReplica(options), cost);

    serving::Request a;
    a.id = 0;
    a.input_len = 15;
    a.output_len = 2;
    serving::Request b;
    b.id = 1;
    b.input_len = 8;
    b.output_len = 2;
    auto result = scheduler.run({a, b});

    EXPECT_EQ(result.metrics.completed, 2);
    ASSERT_EQ(result.replicas[0].steps.size(), 2u);
    EXPECT_EQ(result.replicas[0].steps[1].decode_ids,
              (std::vector<int64_t>{0, 1}));
    // Exactly two shapes ever compile: prefill@16 and decode@16.
    EXPECT_EQ(executor.compileCount(), 2);
}

TEST(EndToEnd, GoldenPagedSaturation)
{
    // The paged pool at saturation, pinned through the full
    // compile -> simulate -> serve stack: six prefix-sharing
    // requests (input 40 of which 32 shared, output 24) against a
    // 192-token KV budget. Reserving each request's final
    // context, bucketLen(63) = 80 tokens, would serialize them
    // two-wide; the paged pool (12 pages) fits five concurrently
    // — each needs at most 4 pages and the two prefix pages are
    // one physical copy.
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    serving::ExecutorCostModel cost(executor);
    serving::ReplicaOptions options;
    options.max_batch = 5;
    options.kv_budget_tokens = 192;
    options.record_steps = true;
    serving::FleetScheduler scheduler(oneReplica(options), cost);
    std::vector<serving::Request> trace;
    for (int64_t i = 0; i < 6; ++i) {
        serving::Request r;
        r.id = i;
        r.arrival_ms = 0.0;
        r.input_len = 40;
        r.output_len = 24;
        r.prefix_id = 1;
        r.prefix_len = 32;
        trace.push_back(r);
    }
    auto paged = scheduler.run(trace);

#define EXPECT_REL_NEAR(actual, expected)                          \
    EXPECT_NEAR(actual, expected, (expected) * 1e-3 + 1e-9)
    EXPECT_EQ(paged.metrics.completed, 6);

    // Five-wide, no preemption (demand tops out at exactly the
    // 12-page pool), 48 steps.
    EXPECT_EQ(paged.replicas[0].steps[0].prefill_ids,
              (std::vector<int64_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(paged.metrics.steps, 48);
    EXPECT_EQ(paged.metrics.preemptions, 0);
    EXPECT_EQ(paged.metrics.peak_pages_active, 12);
    EXPECT_REL_NEAR(paged.metrics.makespan_ms, 647.432527780);
    EXPECT_REL_NEAR(paged.metrics.requestsPerSecond(),
                    9.267374966);
    // One request allocates the two prefix pages; five share
    // them: 10 hits / 12 prefix-page touches.
    EXPECT_DOUBLE_EQ(paged.metrics.prefixHitRate(), 10.0 / 12.0);
    EXPECT_REL_NEAR(paged.metrics.pageUtilization(),
                    0.572916667);
#undef EXPECT_REL_NEAR
}

TEST(EndToEnd, PaperHeadline_WholeBlockFusesOnU55c)
{
    // Paper §6.1: "we successfully fuse an entire transformer
    // block onto a single FPGA" — for all four models.
    for (const auto &cfg : models::allConfigs()) {
        auto graph = models::buildTransformerBlock(
            cfg, models::decodeShapes(96));
        auto result =
            compiler::compile(std::move(graph), hls::u55c(), {});
        EXPECT_EQ(result.design.plan.groups.size(), 1u)
            << cfg.name;
        EXPECT_TRUE(result.memory.feasible) << cfg.name;
    }
}

TEST(EndToEnd, PaperTable4GeomeanRatiosPinned)
{
    // Paper Table 4: GPT-2 on the U55C against the Allo and DFX
    // analytic models over the [in:out] diagonal {32, 64, 128,
    // 256}. The six Ours/baseline geometric-mean ratios that
    // bench/table4_gpt2_fpga prints are pinned at 0.1% relative
    // tolerance, so a compiler, simulator or executor change that
    // moves the reproduced table fails here. Paper reference:
    // Ours/Allo 0.76x latency, 0.40x TTFT, 1.06x speed; Ours/DFX
    // 0.52x, 0.19x, 1.17x.
    models::LlmConfig config = models::gpt2Config();
    runtime::LlmExecutor ours(config, hls::u55c());
    const baselines::FpgaBaselineSpec specs[2] = {
        baselines::alloSpec(), baselines::dfxSpec()};
    // [baseline][latency, ttft, speed]: sums of log ratios.
    double log_sum[2][3] = {};
    const int64_t lengths[] = {32, 64, 128, 256};
    for (int64_t len : lengths) {
        auto r = ours.run(len, len);
        EXPECT_FALSE(r.deadlock) << len;
        for (int b = 0; b < 2; ++b) {
            auto base = baselines::evaluateFpgaBaseline(
                specs[b], config, len, len);
            log_sum[b][0] +=
                std::log(r.total_latency_ms / base.total_latency_ms);
            log_sum[b][1] += std::log(r.ttft_ms / base.ttft_ms);
            log_sum[b][2] +=
                std::log(r.tokens_per_s / base.tokens_per_s);
        }
    }
    const double expected[2][3] = {
        {0.692516198, 0.345864754, 1.145712086},  // Ours/Allo
        {0.481371654, 0.164666035, 1.253362061}}; // Ours/DFX
    const char *names[3] = {"latency", "ttft", "speed"};
    for (int b = 0; b < 2; ++b) {
        for (int m = 0; m < 3; ++m) {
            double geomean = std::exp(log_sum[b][m] / 4.0);
            EXPECT_NEAR(geomean, expected[b][m],
                        1e-3 * expected[b][m])
                << (b == 0 ? "Allo " : "DFX ") << names[m];
        }
    }
}

TEST(EndToEnd, PaperTable5GeomeanRatiosPinned)
{
    // Paper Table 5: GPT-2 on the U55C against the A100 and 2080Ti
    // roofline models over the same [in:out] diagonal as Table 4.
    // The six Ours/GPU geometric-mean ratios that
    // bench/table5_gpt2_gpu prints are pinned at 0.1% relative
    // tolerance. Paper reference: Ours/A100 0.64x latency, 10.65x
    // TTFT, 1.89x speed; Ours/2080Ti 0.25x, 3.67x, 4.73x.
    models::LlmConfig config = models::gpt2Config();
    runtime::LlmExecutor ours(config, hls::u55c());
    const baselines::GpuSpec gpus[2] = {baselines::a100(),
                                        baselines::rtx2080ti()};
    // [gpu][latency, ttft, speed]: sums of log ratios.
    double log_sum[2][3] = {};
    const int64_t lengths[] = {32, 64, 128, 256};
    for (int64_t len : lengths) {
        auto r = ours.run(len, len);
        EXPECT_FALSE(r.deadlock) << len;
        for (int g = 0; g < 2; ++g) {
            auto gpu =
                baselines::evaluateGpu(gpus[g], config, len, len);
            log_sum[g][0] +=
                std::log(r.total_latency_ms / gpu.total_latency_ms);
            log_sum[g][1] += std::log(r.ttft_ms / gpu.ttft_ms);
            log_sum[g][2] +=
                std::log(r.tokens_per_s / gpu.tokens_per_s);
        }
    }
    const double expected[2][3] = {
        {0.586897924, 9.100101766, 2.026318722},  // Ours/A100
        {0.253783207, 4.550350762, 4.689202693}}; // Ours/2080Ti
    const char *names[3] = {"latency", "ttft", "speed"};
    for (int g = 0; g < 2; ++g) {
        for (int m = 0; m < 3; ++m) {
            double geomean = std::exp(log_sum[g][m] / 4.0);
            EXPECT_NEAR(geomean, expected[g][m],
                        1e-3 * expected[g][m])
                << (g == 0 ? "A100 " : "2080Ti ") << names[m];
        }
    }
}

TEST(EndToEnd, PaperFig9EnergyRatiosPinned)
{
    // Paper Fig. 9: tokens/J of Ours (U55C) over the A100 on the
    // emerging LLMs across the {32,64,128} x {32,64,128} sweep.
    // Per model, the geometric mean and the maximum of the nine
    // ratios that bench/fig9_energy prints are pinned at 0.1%
    // relative tolerance. Paper reference: Qwen up to 1.99x,
    // Gemma up to 1.59x, Llama below the A100.
    struct Pin
    {
        const char *name;
        double geomean;
        double max;
    };
    const Pin pins[] = {{"Qwen", 2.003284260, 2.422438594},
                        {"Llama", 0.919090792, 1.176519574},
                        {"Gemma", 1.427434344, 1.804688174}};
    auto a100 = baselines::a100();
    int checked = 0;
    for (const auto &cfg : models::allConfigs()) {
        const Pin *pin = nullptr;
        for (const auto &p : pins)
            if (cfg.name == p.name)
                pin = &p;
        if (!pin)
            continue; // Fig. 9 covers the emerging LLMs only.
        runtime::LlmExecutor ours(cfg, hls::u55c());
        double log_sum = 0.0, max_ratio = 0.0;
        int points = 0;
        for (int64_t in_len : {32, 64, 128}) {
            for (int64_t out_len : {32, 64, 128}) {
                auto r = ours.run(in_len, out_len);
                EXPECT_FALSE(r.deadlock) << cfg.name;
                auto gpu =
                    baselines::evaluateGpu(a100, cfg, in_len, out_len);
                double ratio =
                    r.tokens_per_joule / gpu.tokens_per_joule;
                log_sum += std::log(ratio);
                max_ratio = std::max(max_ratio, ratio);
                ++points;
            }
        }
        EXPECT_NEAR(std::exp(log_sum / points), pin->geomean,
                    1e-3 * pin->geomean)
            << cfg.name << " geomean";
        EXPECT_NEAR(max_ratio, pin->max, 1e-3 * pin->max)
            << cfg.name << " max";
        ++checked;
    }
    EXPECT_EQ(checked, 3);
}

TEST(EndToEnd, PaperFig10MemoryAndRtlTimePinned)
{
    // Paper Fig. 10a and 10b. Per model, the intermediate-result
    // memory before and after kernel fusion that
    // bench/fig10a_memory prints (prefill 256), and the
    // deterministic vendor-flow columns of bench/fig10b_rtl_time
    // (HLS, profiling and packing seconds of the prefill-128
    // design) are pinned at 0.1% relative tolerance. The live
    // compile seconds are left out. Paper reference: fusion keeps
    // 14.8%-16.8% of the original memory; RTL generation totals
    // 1251.7-1547.9 s, dominated by HLS.
    struct Pin
    {
        const char *name;
        double original_mb;
        double fused_mb;
        double hls_s;
        double profiling_s;
        double packing_s;
    };
    const Pin pins[] = {
        {"GPT-2", 5.75, 1.79077148, 1254.39871, 275.967717, 0.943872},
        {"Qwen", 7.09375, 2.12060547, 1458.93689, 320.966116,
         1.1183424},
        {"Llama", 12.1875, 4.99023438, 1332.22179, 293.088793,
         3.0280448},
        {"Gemma", 6.09375, 2.1652832, 1380.39871, 303.687717,
         1.5337296}};
    int checked = 0;
    for (const auto &cfg : models::allConfigs()) {
        const Pin *pin = nullptr;
        for (const auto &p : pins)
            if (cfg.name == p.name)
                pin = &p;
        ASSERT_NE(pin, nullptr) << cfg.name;

        auto memory = compiler::compile(
            models::buildTransformerBlock(cfg,
                                          models::prefillShapes(256)),
            hls::u55c(), {});
        double original_mb =
            memory.design.original_intermediate_bytes / 1048576.0;
        double fused_mb =
            memory.design.fusedIntermediateBytes() / 1048576.0;
        EXPECT_NEAR(original_mb, pin->original_mb,
                    1e-3 * pin->original_mb)
            << cfg.name << " original";
        EXPECT_NEAR(fused_mb, pin->fused_mb, 1e-3 * pin->fused_mb)
            << cfg.name << " fused";

        auto rtl = compiler::compile(
            models::buildTransformerBlock(cfg,
                                          models::prefillShapes(128)),
            hls::u55c(), {});
        auto breakdown = hls::estimateRtlTime(
            rtl.design.components, cfg.totalParamBytes(), 0.0);
        EXPECT_NEAR(breakdown.hls_seconds, pin->hls_s,
                    1e-3 * pin->hls_s)
            << cfg.name << " HLS";
        EXPECT_NEAR(breakdown.profiling_seconds, pin->profiling_s,
                    1e-3 * pin->profiling_s)
            << cfg.name << " profiling";
        EXPECT_NEAR(breakdown.param_packing_seconds, pin->packing_s,
                    1e-3 * pin->packing_s)
            << cfg.name << " packing";
        ++checked;
    }
    EXPECT_EQ(checked, 4);
}

namespace {

/** Summed simulated cycles of every group of @p result, and whether
 *  any group deadlocked or timed out (the ablation benches' Status
 *  column). */
struct BlockRun
{
    double cycles = 0.0;
    bool stalled = false;
};

BlockRun
simulateBlock(const compiler::CompileResult &result,
              const sim::SimOptions &options = {})
{
    BlockRun run;
    for (const auto &s :
         sim::simulateAll(result.design.components, options)) {
        run.cycles += s.cycles;
        run.stalled = run.stalled || s.deadlock || s.timed_out;
    }
    return run;
}

/** bench/ablation_fifo_sizing's reconvergent multi-rate graph: a
 *  source fans out to a direct edge of depth @p direct_depth and a
 *  slow two-stage path that reconverge at a join consuming 16-token
 *  bursts from the direct edge. */
dataflow::ComponentGraph
reconvergentGraph(int64_t direct_depth)
{
    dataflow::ComponentGraph g;
    ir::ITensorType tok(ir::DataType::I8, {1}, {64}, {1},
                        ir::AffineMap::identity(1));
    auto mk = [&](const char *name, double d, double cycles) {
        dataflow::Component c;
        c.kind = dataflow::ComponentKind::Kernel;
        c.name = name;
        c.initial_delay = d;
        c.total_cycles = cycles;
        return g.addComponent(c);
    };
    int64_t src = mk("src", 20.0, 100.0);
    int64_t slow = mk("slow", 900.0, 1200.0);
    int64_t join = mk("join", 10.0, 300.0);
    int64_t drain = mk("drain", 5.0, 30.0);
    auto ch = [&](int64_t s, int64_t d, int64_t tokens,
                  int64_t depth) {
        dataflow::Channel c;
        c.src = s;
        c.dst = d;
        c.type = tok;
        c.tokens = tokens;
        c.depth = depth;
        g.addChannel(c);
    };
    ch(src, slow, 4, 2);
    ch(src, join, 64, direct_depth);
    ch(slow, join, 4, 2);
    ch(join, drain, 4, 2);
    return g;
}

} // namespace

TEST(EndToEnd, AblationEqualizationPinned)
{
    // Paper §5.3.3, as bench/ablation_equalization prints it: total
    // FIFO bits and simulated cycles of the GPT-2 and Llama decode
    // blocks (kv = 192) under Normal and Conservative equalization,
    // pinned at 0.1% relative tolerance. Conservative shrinks the
    // FIFOs without lengthening either block.
    struct Pin
    {
        const char *model;
        token::Equalization eq;
        double fifo_bits;
        double cycles;
    };
    const Pin pins[] = {
        {"GPT-2", token::Equalization::Normal, 247808.0, 22217.8478},
        {"GPT-2", token::Equalization::Conservative, 240000.0, 22217.8478},
        {"Llama", token::Equalization::Normal, 488064.0, 68293.3816},
        {"Llama", token::Equalization::Conservative, 464768.0, 68293.3816}};
    for (const Pin &pin : pins) {
        models::LlmConfig cfg = std::string(pin.model) == "GPT-2"
                                    ? models::gpt2Config()
                                    : models::llamaConfig();
        compiler::CompileOptions options;
        options.equalization = pin.eq;
        auto result = compiler::compile(
            models::buildTransformerBlock(cfg,
                                          models::decodeShapes(192)),
            hls::u55c(), options);
        BlockRun run = simulateBlock(result);
        std::string label = std::string(pin.model) + " " +
                            token::equalizationName(pin.eq);
        EXPECT_FALSE(run.stalled) << label;
        double bits = static_cast<double>(
            result.design.components.totalFifoBits());
        EXPECT_NEAR(bits, pin.fifo_bits, 1e-3 * pin.fifo_bits)
            << label;
        EXPECT_NEAR(run.cycles, pin.cycles, 1e-3 * pin.cycles)
            << label;
    }
}

TEST(EndToEnd, AblationFifoSizingPinned)
{
    // Paper §5.3.4, as bench/ablation_fifo_sizing prints it, pinned
    // at 0.1% relative tolerance. On the reconvergent graph a direct
    // edge below the 16-token burst deadlocks; on the GPT-2 decode
    // block (kv = 192) the LP depths run clean while uniform shallow
    // FIFOs deadlock on the residual fork/join.
    struct Reconvergent
    {
        int64_t depth;
        bool deadlock;
        double cycles;
    };
    const Reconvergent reconvergent[] = {
        {4, true, 900.0}, {16, false, 1200.0}, {64, false, 1200.0}};
    for (const auto &pin : reconvergent) {
        sim::SimOptions options;
        options.max_cycles = 1e6;
        auto r = sim::simulateGroup(reconvergentGraph(pin.depth), 0,
                                    options);
        EXPECT_EQ(r.deadlock, pin.deadlock) << pin.depth;
        EXPECT_FALSE(r.timed_out) << pin.depth;
        EXPECT_NEAR(r.cycles, pin.cycles, 1e-3 * pin.cycles)
            << pin.depth;
    }

    struct Uniform
    {
        int64_t depth; // 0 = the LP depths
        bool stalled;
        double fifo_bits;
        double cycles;
    };
    const Uniform uniform[] = {{0, false, 247808.0, 22217.8478},
                               {2, true, 40448.0, 1340.89614},
                               {4, true, 80896.0, 1340.89614},
                               {8, true, 161792.0, 1340.89614}};
    for (const auto &pin : uniform) {
        auto result = compiler::compile(
            models::buildTransformerBlock(models::gpt2Config(),
                                          models::decodeShapes(192)),
            hls::u55c(), {});
        auto &cg = result.design.components;
        if (pin.depth > 0)
            for (int64_t c = 0; c < cg.numChannels(); ++c)
                if (!cg.channel(c).folded)
                    cg.channel(c).depth = pin.depth;
        sim::SimOptions options;
        options.max_cycles = 5e7;
        BlockRun run = simulateBlock(result, options);
        EXPECT_EQ(run.stalled, pin.stalled) << pin.depth;
        double bits = static_cast<double>(cg.totalFifoBits());
        EXPECT_NEAR(bits, pin.fifo_bits, 1e-3 * pin.fifo_bits)
            << pin.depth;
        EXPECT_NEAR(run.cycles, pin.cycles, 1e-3 * pin.cycles)
            << pin.depth;
    }
}

TEST(EndToEnd, AblationFusionCmaxPinned)
{
    // Paper §5.2.2, as bench/ablation_fusion_cmax prints it: fused
    // group count and total converter bytes of the GPT-2 prefill-128
    // block across the fusion budget C_max. Groups are exact; the
    // converter bytes are pinned at 0.1% relative tolerance. At the
    // U55C's on-chip size the whole block is one group.
    struct Pin
    {
        int64_t c_max_kib;
        size_t groups;
        double converter_bytes;
    };
    const Pin pins[] = {
        {16, 9, 0.0},          {64, 7, 65536.0},
        {256, 4, 524288.0},    {1024, 2, 524288.0},
        {4096, 1, 786432.0},   {16384, 1, 786432.0},
        {41984, 1, 786432.0}};
    for (const Pin &pin : pins) {
        compiler::CompileOptions options;
        options.c_max = pin.c_max_kib * 1024;
        auto result = compiler::compile(
            models::buildTransformerBlock(models::gpt2Config(),
                                          models::prefillShapes(128)),
            hls::u55c(), options);
        EXPECT_EQ(result.design.plan.groups.size(), pin.groups)
            << pin.c_max_kib;
        double bytes = static_cast<double>(
            result.design.components.totalConverterBytes());
        EXPECT_NEAR(bytes, pin.converter_bytes,
                    1e-3 * pin.converter_bytes)
            << pin.c_max_kib;
    }
}

// ---- Die placement is load-bearing: the figure-5-style MLP
// ---- pipeline (matmul -> gelu -> matmul with a layout converter
// ---- between the transposed matmul layouts) compiled ILP-vs-
// ---- greedy under a priced inter-die link. The ILP finds a
// ---- zero-crossing placement, greedy cuts the pipeline three
// ---- times, and with a nonzero link cost those crossings turn
// ---- into a pinned cycle delta — placement changes predicted
// ---- performance, not just a report. ----

namespace {

double
pipelineCycles(const compiler::CompileResult &result)
{
    double cycles = 0.0;
    for (const auto &s : sim::simulateAll(result.design.components))
        cycles += s.cycles;
    return cycles;
}

} // namespace

TEST(EndToEnd, GoldenIlpVsGreedyCycleDeltaUnderLinkCost)
{
#define EXPECT_REL_NEAR(value, golden)                             \
    EXPECT_NEAR(value, golden, std::abs(golden) * 1e-3)
    hls::FpgaPlatform linked = hls::u55c();
    linked.inter_die_latency_cycles = 256.0;
    linked.inter_die_ii_penalty = 1.0;

    compiler::CompileOptions ilp_options;
    compiler::CompileOptions greedy_options;
    greedy_options.partition.strategy =
        partition::PartitionStrategy::Greedy;

    auto ilp = compiler::compile(linalg::mlpPipeline(), linked,
                                 ilp_options);
    auto greedy = compiler::compile(linalg::mlpPipeline(), linked,
                                    greedy_options);
    EXPECT_EQ(ilp.totalCrossings(), 0);
    EXPECT_EQ(greedy.totalCrossings(), 3);

    double ilp_cycles = pipelineCycles(ilp);
    double greedy_cycles = pipelineCycles(greedy);
    // Golden values (deterministic compile + sim):
    EXPECT_REL_NEAR(ilp_cycles, 4135.0);
    EXPECT_REL_NEAR(greedy_cycles, 4900.0);
    EXPECT_GT(greedy_cycles, ilp_cycles + 700.0);

    // With the link cost zeroed, the same two placements cost
    // identical cycles — the delta is entirely the link model.
    auto free_ilp = compiler::compile(linalg::mlpPipeline(),
                                      hls::u55c(), ilp_options);
    auto free_greedy = compiler::compile(
        linalg::mlpPipeline(), hls::u55c(), greedy_options);
    EXPECT_EQ(free_greedy.totalCrossings(), 3);
    EXPECT_DOUBLE_EQ(pipelineCycles(free_ilp),
                     pipelineCycles(free_greedy));
    EXPECT_REL_NEAR(pipelineCycles(free_ilp), 4135.0);
#undef EXPECT_REL_NEAR
}

TEST(EndToEnd, CrossingMetricsSurfaceThroughRuntimeAndServing)
{
    // A platform with a priced link: the transformer decode block
    // partitions greedily (group larger than the ILP guard), so
    // crossings and crossing-attributed stall flow through
    // LlmExecutor::run.
    hls::FpgaPlatform linked = hls::u55c();
    linked.inter_die_latency_cycles = 8.0;
    runtime::LlmExecutor executor(models::gpt2Config(), linked);
    auto run = executor.run(24, 4);
    EXPECT_FALSE(run.deadlock);
    EXPECT_GT(run.crossings, 0);
    EXPECT_GE(run.crossing_stall_ms, 0.0);
}

TEST(EndToEnd, GoldenFaultedFleetTrace)
{
    // The fault-tolerance acceptance pin: a fixed two-replica
    // fleet served through the complete compile -> simulate ->
    // serve stack (GPT-2 on the U55C, executor-backed step
    // costs), under a fixed fault plan — replica 0 crashes
    // mid-run and recovers; replica 1 rides out a window of
    // inter-die link degradation costed by an executor compiled
    // against an inflated link latency. Availability and tail
    // latency under faults are golden values at 0.1% relative
    // tolerance; the whole faulted run must replay
    // bit-identically.
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    serving::ExecutorCostModel cost(executor);
    hls::FpgaPlatform degraded_platform = hls::u55c();
    degraded_platform.inter_die_latency_cycles = 256.0;
    degraded_platform.inter_die_ii_penalty = 1.0;
    runtime::LlmExecutor degraded_executor(models::gpt2Config(),
                                           degraded_platform);
    serving::ExecutorCostModel degraded_cost(degraded_executor);

    serving::FleetOptions options;
    options.num_replicas = 2;
    options.replica.max_batch = 4;
    options.replica.kv_budget_tokens = 512;
    options.replica.record_steps = true;
    options.max_retries = 3;
    options.retry_backoff_ms = 5.0;
    options.faults.events.push_back(
        {60.0, 0, serving::FaultKind::Crash, 1.0});
    options.faults.events.push_back(
        {180.0, 0, serving::FaultKind::Recover, 1.0});
    options.faults.events.push_back(
        {40.0, 1, serving::FaultKind::DegradeStart, 1.0});
    options.faults.events.push_back(
        {160.0, 1, serving::FaultKind::DegradeEnd, 1.0});

    auto run = [&]() {
        serving::FleetScheduler fleet(options, cost,
                                      &degraded_cost);
        return fleet.run(goldenTrace());
    };
    auto result = run();
    const auto &fm = result.metrics;

    EXPECT_FALSE(result.hit_step_limit);
    EXPECT_TRUE(result.rejected.empty());

    // Every request survives the crash: the evacuated ones fail
    // over to replica 1 and still emit their full output.
    EXPECT_EQ(fm.completed, 6);
    EXPECT_EQ(fm.requests_lost, 0);
    EXPECT_EQ(fm.crashes, 1);
    EXPECT_EQ(fm.recoveries, 1);
    EXPECT_EQ(fm.degrades, 1);
    EXPECT_GE(fm.failovers, 1);
    EXPECT_EQ(fm.total_output_tokens, 32);
    EXPECT_DOUBLE_EQ(fm.availability(), 1.0);

    // Golden tail numbers under the fault plan (captured values;
    // tolerance 0.1% relative).
#define EXPECT_REL_NEAR(actual, expected)                         \
    EXPECT_NEAR(actual, expected, (expected) * 1e-3 + 1e-9)
    EXPECT_REL_NEAR(fm.makespan_ms, 344.697151181);
    EXPECT_REL_NEAR(fm.latencyPercentileMs(99.0), 329.760211362);
    EXPECT_REL_NEAR(fm.latencyPercentileMs(50.0), 254.238256868);
    EXPECT_REL_NEAR(fm.uptimeFraction(), 0.825934158);
    EXPECT_REL_NEAR(fm.requestsPerSecond(), 17.406584242);
#undef EXPECT_REL_NEAR

    // Bit-identical replay of the faulted fleet, down to every
    // step composition on both replicas.
    auto again = run();
    EXPECT_DOUBLE_EQ(again.metrics.makespan_ms, fm.makespan_ms);
    EXPECT_EQ(again.metrics.failovers, fm.failovers);
    ASSERT_EQ(again.replicas.size(), result.replicas.size());
    for (size_t r = 0; r < result.replicas.size(); ++r) {
        const auto &a = result.replicas[r].steps;
        const auto &b = again.replicas[r].steps;
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_DOUBLE_EQ(a[i].start_ms, b[i].start_ms);
            EXPECT_DOUBLE_EQ(a[i].step_ms, b[i].step_ms);
            EXPECT_EQ(a[i].prefill_ids, b[i].prefill_ids);
            EXPECT_EQ(a[i].decode_ids, b[i].decode_ids);
        }
    }
}

TEST(EndToEnd, GoldenColdStartTrace)
{
    // Cold-start acceptance pin: the golden trace through the
    // full compile -> stream -> serve stack. Weights stream from
    // the GP3 tier while the executor-costed scheduler serves;
    // with overlap on, early steps gate on the per-layer
    // watermark instead of the whole artifact. TTFT and stream
    // window are golden values at 0.1% relative tolerance, and
    // the cold run must replay bit-identically.
    auto artifact = serving::ModelArtifact::fromConfig(
        models::gpt2Config());
    serving::WeightStreamOptions stream_options;
    stream_options.tier = serving::gp3Tier();
    auto plan =
        serving::WeightStreamer(stream_options).plan(artifact);

    auto run = [&](bool cold, bool overlap) {
        runtime::LlmExecutor executor(models::gpt2Config(),
                                      hls::u55c());
        serving::ExecutorCostModel cost(executor);
        serving::ReplicaOptions options;
        options.max_batch = 4;
        options.kv_budget_tokens = 512;
        options.record_steps = true;
        if (cold) {
            options.cold_start.plan = plan;
            options.cold_start.overlap = overlap;
        }
        serving::FleetScheduler scheduler(oneReplica(options), cost);
        return scheduler.run(goldenTrace());
    };

    auto warm = run(false, false);
    auto on = run(true, true);
    auto off = run(true, false);

#define EXPECT_REL_NEAR(actual, expected)                         \
    EXPECT_NEAR(actual, expected, (expected) * 1e-3 + 1e-9)
    // The stream window is pure storage arithmetic: the GP3 plan
    // for the GPT-2 artifact at 8 readers / 2 MiB chunks.
    EXPECT_REL_NEAR(plan.streamMs(), 154.5234375);
    EXPECT_EQ(on.metrics.weight_bytes_streamed,
              artifact.total_bytes);
    EXPECT_REL_NEAR(on.metrics.weight_stream_ms,
                    plan.streamMs());

    // All three modes serve the full trace.
    EXPECT_EQ(warm.metrics.completed, 6);
    EXPECT_EQ(on.metrics.completed, 6);
    EXPECT_EQ(off.metrics.completed, 6);

    // Golden cold-start numbers (captured values).
    EXPECT_REL_NEAR(on.metrics.ttftMeanMs(), 244.638534326);
    EXPECT_REL_NEAR(on.metrics.makespan_ms, 468.402912579);
    EXPECT_REL_NEAR(on.metrics.weight_stall_ms, 83.419093571);
    EXPECT_REL_NEAR(off.metrics.ttftMeanMs(), 315.742878255);
    EXPECT_REL_NEAR(off.metrics.weight_stall_ms, 154.5234375);

    // Overlap strictly beats wait-for-everything, and neither
    // beats warm.
    EXPECT_LT(on.metrics.ttftMeanMs(), off.metrics.ttftMeanMs());
    EXPECT_LT(on.metrics.weight_stall_ms,
              off.metrics.weight_stall_ms);
    EXPECT_LE(on.metrics.makespan_ms, off.metrics.makespan_ms);
    EXPECT_GT(on.metrics.ttftMeanMs(),
              warm.metrics.ttftMeanMs());
    EXPECT_GT(on.metrics.weightOverlapFraction(),
              off.metrics.weightOverlapFraction());
#undef EXPECT_REL_NEAR

    // Bit-identical replay, step by step.
    auto again = run(true, true);
    EXPECT_DOUBLE_EQ(again.metrics.makespan_ms,
                     on.metrics.makespan_ms);
    const auto &sa = again.replicas[0].steps;
    const auto &so = on.replicas[0].steps;
    ASSERT_EQ(sa.size(), so.size());
    for (size_t i = 0; i < so.size(); ++i) {
        EXPECT_DOUBLE_EQ(sa[i].start_ms, so[i].start_ms);
        EXPECT_DOUBLE_EQ(sa[i].step_ms, so[i].step_ms);
        EXPECT_DOUBLE_EQ(sa[i].weights_wait_ms, so[i].weights_wait_ms);
        EXPECT_EQ(sa[i].prefill_ids, so[i].prefill_ids);
        EXPECT_EQ(sa[i].decode_ids, so[i].decode_ids);
    }
}

TEST(EndToEnd, GoldenFleetRecoveryReload)
{
    // Crash-recovery reload through the full stack: replica 0's
    // recovery is charged the GP3 re-stream window, so the fleet
    // runs longer on one replica than the instant-recovery
    // baseline. Availability arithmetic is asserted exactly from
    // its definition; timing goldens at 0.1% relative tolerance.
    auto artifact = serving::ModelArtifact::fromConfig(
        models::gpt2Config());
    double reload_ms =
        serving::WeightStreamer().plan(artifact).streamMs();

    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    serving::ExecutorCostModel cost(executor);
    serving::FleetOptions options;
    options.num_replicas = 2;
    options.replica.max_batch = 4;
    options.replica.kv_budget_tokens = 512;
    options.replica.record_steps = true;
    options.max_retries = 3;
    options.retry_backoff_ms = 5.0;
    options.recovery_reload_ms = reload_ms;
    options.faults.events.push_back(
        {60.0, 0, serving::FaultKind::Crash, 1.0});
    options.faults.events.push_back(
        {120.0, 0, serving::FaultKind::Recover, 1.0});

    serving::FleetScheduler fleet(options, cost);
    auto result = fleet.run(goldenTrace());
    const auto &fm = result.metrics;

    EXPECT_EQ(fm.crashes, 1);
    EXPECT_EQ(fm.recoveries, 1);
    EXPECT_EQ(fm.reloads, 1);
    // The window is charged on the nanosecond clock
    // (serving/request.h).
    EXPECT_DOUBLE_EQ(fm.reload_ms_total,
                     serving::toMs(serving::toSimTime(reload_ms)));
    EXPECT_EQ(fm.completed, 6);
    EXPECT_EQ(fm.requests_lost, 0);

    // Availability is exactly its documented arithmetic.
    EXPECT_DOUBLE_EQ(
        fm.availability(),
        static_cast<double>(fm.completed) /
            static_cast<double>(fm.completed + fm.requests_lost +
                                fm.expired_deadline));
    EXPECT_DOUBLE_EQ(fm.availability(), 1.0);

    // Replica 0 takes no step inside [60, 120 + reload).
    for (const auto &s : result.replicas[0].steps)
        EXPECT_TRUE(s.start_ms < 60.0 ||
                    s.start_ms >= 120.0 + reload_ms)
            << s.start_ms;

#define EXPECT_REL_NEAR(actual, expected)                         \
    EXPECT_NEAR(actual, expected, (expected) * 1e-3 + 1e-9)
    EXPECT_REL_NEAR(fm.makespan_ms, 380.063247645);
    EXPECT_REL_NEAR(fm.uptimeFraction(), 0.717779292);
#undef EXPECT_REL_NEAR

    // Bit-identical replay.
    runtime::LlmExecutor executor2(models::gpt2Config(),
                                   hls::u55c());
    serving::ExecutorCostModel cost2(executor2);
    serving::FleetScheduler fleet2(options, cost2);
    auto again = fleet2.run(goldenTrace());
    EXPECT_DOUBLE_EQ(again.metrics.makespan_ms, fm.makespan_ms);
    EXPECT_EQ(again.metrics.steps, fm.steps);
}
