#include "runtime/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.h"

namespace streamtensor {
namespace runtime {

namespace {

/** Invocation overhead amortises as the XRT run queue stays warm
 *  (more tokens in flight -> cheaper trigger). */
double
invocationOverheadMs(const hls::FpgaPlatform &platform,
                     int64_t tokens_in_flight)
{
    double amort = 0.55 + 0.45 / (1.0 + tokens_in_flight / 96.0);
    return platform.invocation_overhead_us * amort / 1e3;
}

} // namespace

CompiledBlock::CompiledBlock(compiler::CompileResult compile_result,
                             std::vector<sim::SimResult> group_sims)
    : compile(std::move(compile_result)), sims(std::move(group_sims))
{
    groups_.reserve(sims.size());
    for (const auto &s : sims) {
        groups_.push_back({s.cycles, sim::steadyIntervalCycles(s)});
        deadlocked_ = deadlocked_ || s.deadlock || s.timed_out;
        crossings_ += s.crossing_channels;
        crossing_stall_cycles_ += s.crossing_stall_cycles;
    }
}

double
CompiledBlock::totalCycles() const
{
    double cycles = 0.0;
    for (const auto &g : groups_)
        cycles += g.cycles;
    return cycles;
}

double
CompiledBlock::batchedCycles(int64_t batch) const
{
    ST_CHECK(batch >= 1, "batch must be positive");
    double cycles = 0.0;
    for (const auto &g : groups_)
        cycles += g.cycles +
                  static_cast<double>(batch - 1) * g.interval;
    return cycles;
}

LlmExecutor::LlmExecutor(models::LlmConfig config,
                         hls::FpgaPlatform platform,
                         compiler::CompileOptions options)
    : config_(std::move(config)), platform_(std::move(platform)),
      options_(std::move(options))
{}

const CompiledBlock &
LlmExecutor::block(const models::BlockShapes &shapes)
{
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache_.find(shapes);
    if (it != cache_.end())
        return *it->second;
    linalg::Graph graph =
        models::buildTransformerBlock(config_, shapes);
    compiler::CompileResult compile =
        compiler::compile(std::move(graph), platform_, options_);
    std::vector<sim::SimResult> sims =
        sim::simulateAll(compile.design.components);
    auto compiled = std::make_unique<CompiledBlock>(
        std::move(compile), std::move(sims));
    return *cache_.emplace(shapes, std::move(compiled))
                .first->second;
}

int64_t
LlmExecutor::compileCount() const
{
    std::lock_guard<std::mutex> lock(cache_mutex_);
    return static_cast<int64_t>(cache_.size());
}

LlmRunResult
LlmExecutor::run(int64_t input_len, int64_t output_len)
{
    ST_CHECK(input_len >= 1 && output_len >= 1,
             "request lengths must be positive");
    LlmRunResult result;
    double freq_hz = platform_.freq_mhz * 1e6;
    int64_t mid_kv = input_len + std::max<int64_t>(output_len / 2,
                                                   1);

    // --- Prefill: one trigger per layer at seq = input length.
    const CompiledBlock &prefill =
        block(models::prefillShapes(input_len));
    result.block_prefill_ms =
        prefill.totalCycles() / freq_hz * 1e3;
    result.deadlock |= prefill.deadlocked();

    auto overhead_ms = [&](int64_t tokens_in_flight) {
        return invocationOverheadMs(platform_, tokens_in_flight);
    };
    result.ttft_ms =
        config_.layers *
        (result.block_prefill_ms + overhead_ms(1));

    // --- Decode: simulate at the run's mean context length.
    const CompiledBlock &decode =
        block(models::decodeShapes(mid_kv));
    result.block_decode_ms = decode.totalCycles() / freq_hz * 1e3;
    result.deadlock |= decode.deadlocked();

    result.decode_ms_per_token =
        config_.layers *
        (result.block_decode_ms + overhead_ms(output_len));

    // Placement visibility: crossings of both compiled blocks and
    // the crossing-attributed stall of one prefill pass plus one
    // decode step across all layers.
    result.crossings = prefill.crossings() + decode.crossings();
    result.crossing_stall_ms =
        config_.layers *
        (prefill.crossingStallCycles() +
         decode.crossingStallCycles()) /
        freq_hz * 1e3;
    double decode_total_ms =
        result.decode_ms_per_token * output_len;
    result.total_latency_ms = result.ttft_ms + decode_total_ms;
    result.tokens_per_s = output_len / decode_total_ms * 1e3;

    // --- Energy: idle floor plus dynamic compute and HBM shares.
    double decode_flops = config_.blockFlops(1, mid_kv) *
                          config_.layers;
    double util_compute =
        decode_flops /
        (result.decode_ms_per_token / 1e3) /
        (platform_.peakInt8Tops() * 1e12);
    double bytes_per_token =
        static_cast<double>(config_.blockParamBytes()) *
        config_.layers;
    double util_bw = bytes_per_token /
                     (result.decode_ms_per_token / 1e3) /
                     (platform_.memory_bandwidth_gbps * 1e9);
    util_compute = std::clamp(util_compute, 0.0, 1.0);
    util_bw = std::clamp(util_bw, 0.0, 1.0);
    result.avg_power_w =
        platform_.tdp_watts *
        (platform_.idle_power_fraction + 0.35 * util_compute +
         0.20 * util_bw);
    result.energy_j =
        result.avg_power_w * result.total_latency_ms / 1e3;
    result.tokens_per_joule = output_len / result.energy_j;
    return result;
}

StepResult
LlmExecutor::step(const std::vector<StepGroup> &groups)
{
    ST_CHECK(!groups.empty(), "step needs at least one group");

    // Every per-shape count below is a partial sum of total_seqs,
    // so bounding the total keeps them all in range.
    int64_t total_seqs = 0;
    for (const auto &g : groups) {
        ST_CHECK(g.count >= 1, "group count must be positive");
        ST_CHECK(g.count <= std::numeric_limits<int64_t>::max() -
                                total_seqs,
                 "step sequence count overflows");
        total_seqs += g.count;
    }
    // Per layer, each group is one trigger: its batch streams
    // through the block pipeline back-to-back with the layer's
    // weights resident, so members past the first cost only the
    // steady-state interval. Overhead amortises with the whole
    // step's sequences in flight. block() compiles a cache miss
    // on first use.
    //
    // Each pass of the selection loop picks the smallest shape
    // above the previous one and merges every group carrying it,
    // so {{S,1},{S,1}} costs like {{S,2}} (one pipeline fill plus
    // steady intervals, one trigger, one compile) and shapes are
    // costed in ascending order whatever the caller's order — all
    // without allocating, at distinct shapes × groups comparisons
    // (a step's groups number at most its batch).
    StepResult result;
    double freq_hz = platform_.freq_mhz * 1e6;
    const models::BlockShapes *prev = nullptr;
    while (true) {
        const models::BlockShapes *next = nullptr;
        int64_t count = 0;
        for (const auto &g : groups) {
            if (prev != nullptr && !(*prev < g.shapes))
                continue;
            if (next == nullptr || g.shapes < *next) {
                next = &g.shapes;
                count = g.count;
            } else if (g.shapes == *next) {
                count += g.count;
            }
        }
        if (next == nullptr)
            break;
        prev = next;
        const models::BlockShapes &s = *next;
        const CompiledBlock &blk = block(s);
        result.deadlock = result.deadlock || blk.deadlocked();
        double trigger_ms =
            blk.batchedCycles(count) / freq_hz * 1e3 +
            invocationOverheadMs(platform_, total_seqs);
        result.step_ms += config_.layers * trigger_ms;
    }
    return result;
}

} // namespace runtime
} // namespace streamtensor
