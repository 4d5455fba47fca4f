/**
 * @file
 * Host runtime executor: sequences the compiled transformer-block
 * accelerator over all layers and tokens the way the paper runs
 * GPT-2 on the U55C ("this single FPGA accelerator is triggered
 * multiple times with different weight parameters", §6.1), and
 * accounts latency, TTFT, decode speed, and energy.
 *
 * Block execution times come from the cycle-level simulator; each
 * trigger pays the platform's invocation overhead, which amortises
 * as the XRT run queue stays warm on longer generations.
 */

#ifndef STREAMTENSOR_RUNTIME_EXECUTOR_H
#define STREAMTENSOR_RUNTIME_EXECUTOR_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "compiler/compiler.h"
#include "models/block_builder.h"
#include "models/llm_config.h"
#include "sim/simulator.h"

namespace streamtensor {
namespace runtime {

/** End-to-end metrics of one (input, output) request. */
struct LlmRunResult
{
    double ttft_ms = 0.0;
    double decode_ms_per_token = 0.0;
    double total_latency_ms = 0.0;

    /** Decode speed: output tokens over decode time. */
    double tokens_per_s = 0.0;

    double avg_power_w = 0.0;
    double energy_j = 0.0;
    double tokens_per_joule = 0.0;

    /** Per-block simulated latencies (one layer, one trigger). */
    double block_prefill_ms = 0.0;
    double block_decode_ms = 0.0;

    /** A simulation deadlocked (should never happen with LP
     *  sizing; surfaced for the ablation benches). */
    bool deadlock = false;

    /** Inter-die crossings of the prefill + decode blocks, and
     *  the crossing-attributed stall time across all layers of
     *  one prefill pass plus one decode step (placement cost
     *  visibility; 0 on zero-cost link models). */
    int64_t crossings = 0;
    double crossing_stall_ms = 0.0;
};

/** One compiled + simulated block shape. Construction derives the
 *  terms every serving step reads — each group's fill latency and
 *  steady interval, the crossing totals, the deadlock flag — once,
 *  so a warm step is arithmetic over stored values rather than a
 *  rescan of every simulated component. @ref compile and
 *  @ref sims are const so the stored terms cannot go stale. */
class CompiledBlock
{
  public:
    CompiledBlock(compiler::CompileResult compile,
                  std::vector<sim::SimResult> sims);

    const compiler::CompileResult compile;
    const std::vector<sim::SimResult> sims;

    /** Sequential-group makespan in cycles. */
    double totalCycles() const;

    /** Makespan of @p batch back-to-back triggers of this block
     *  with weights resident: Σ over groups in index order of
     *  sim::batchedCycles, from the stored intervals. */
    double batchedCycles(int64_t batch) const;

    /** True when any group deadlocked or timed out (either way the
     *  simulated cycles are not a completed run). */
    bool deadlocked() const { return deadlocked_; }

    /** Inter-die channel crossings across the block's groups. */
    int64_t crossings() const { return crossings_; }

    /** Stall cycles attributed to inter-die channels across the
     *  block's groups (one trigger). */
    double crossingStallCycles() const
    {
        return crossing_stall_cycles_;
    }

  private:
    /** One group's fill latency (SimResult::cycles) and
     *  sim::steadyIntervalCycles. */
    struct GroupTerms
    {
        double cycles = 0.0;
        double interval = 0.0;
    };

    std::vector<GroupTerms> groups_;
    bool deadlocked_ = false;
    int64_t crossings_ = 0;
    double crossing_stall_cycles_ = 0.0;
};

/** One shape group of a serving step: @p count sequences whose
 *  (bucketed) shapes share a compiled block this step. */
struct StepGroup
{
    models::BlockShapes shapes;
    int64_t count = 1;
};

/** Cost of one serving engine step (one full model pass over a
 *  batch of sequences). */
struct StepResult
{
    double step_ms = 0.0;
    bool deadlock = false;
};

/** Compiles transformer blocks on demand and executes requests. */
class LlmExecutor
{
  public:
    LlmExecutor(models::LlmConfig config,
                hls::FpgaPlatform platform,
                compiler::CompileOptions options = {});

    const models::LlmConfig &config() const { return config_; }
    const hls::FpgaPlatform &platform() const { return platform_; }

    /** Compile (or fetch) the block at the given shapes. The
     *  reference stays valid for the executor's lifetime.
     *
     *  Thread-safe: every call takes cache_mutex_, so concurrent
     *  callers serialise. A hit returns the cached block and
     *  allocates nothing. A miss builds, compiles and simulates
     *  the block on the calling thread while holding the lock,
     *  then inserts it, so compileCount() counts unique shapes. A
     *  compile that throws inserts nothing; a retry compiles
     *  again. */
    const CompiledBlock &block(const models::BlockShapes &shapes);

    /** Run one request end to end. */
    LlmRunResult run(int64_t input_len, int64_t output_len);

    /** One serving step: execute every shape group's batch through
     *  all layers. Per layer, each group is one accelerator
     *  trigger whose batch members stream back-to-back with
     *  weights resident (CompiledBlock::batchedCycles), so the
     *  weight-streaming cost that dominates decode amortises over
     *  the batch. Groups sharing a shape merge into one trigger,
     *  and shapes are costed in ascending shape order, so the
     *  result does not depend on the caller's group order. A warm
     *  step allocates nothing. Each distinct shape is fetched
     *  through block(), which compiles a cache miss. */
    StepResult step(const std::vector<StepGroup> &groups);

    /** Blocks compiled so far (unique shapes in the cache).
     *  Serving-bucket regression hook: requests sharing a bucket
     *  must not grow this. */
    int64_t compileCount() const;

  private:
    models::LlmConfig config_;
    hls::FpgaPlatform platform_;
    compiler::CompileOptions options_;

    /** Guards cache_. */
    mutable std::mutex cache_mutex_;

    /** Every compiled shape. A block never moves once inserted,
     *  so block() references stay valid. */
    std::map<models::BlockShapes, std::unique_ptr<CompiledBlock>>
        cache_;
};

} // namespace runtime
} // namespace streamtensor

#endif // STREAMTENSOR_RUNTIME_EXECUTOR_H
