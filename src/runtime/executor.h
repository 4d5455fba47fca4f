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

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
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

    /** Inter-die crossings of the step's distinct blocks, and the
     *  crossing-attributed stall time across all layers/triggers
     *  of the step. */
    int64_t crossings = 0;
    double crossing_stall_ms = 0.0;
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
     *  Thread-safe. A hit takes no lock and allocates nothing: it
     *  binary-searches the current shape table, loaded with one
     *  acquire read of an atomic pointer. A miss takes
     *  cache_mutex_ and dedupes against an in-flight set: the
     *  first caller compiles (outside the lock, so distinct shapes
     *  compile concurrently — run() warms prefill and decode
     *  together on support::ThreadPool::shared()), later callers
     *  for the same shapes block until it lands, so compileCount()
     *  counts unique shapes even under a threaded warm race. The
     *  compiling thread then publishes a new table, the old one
     *  plus the new entry, with a release store (both pinned by
     *  the runtime suite). */
    const CompiledBlock &block(const models::BlockShapes &shapes);

    /** Run one request end to end. */
    LlmRunResult run(int64_t input_len, int64_t output_len);

    /** First-token instant of a cold-start prefill gated on weight
     *  residency: layer i's trigger fires at max(end of layer
     *  i-1, @p layer_ready_ms[i]) and runs for one per-layer
     *  prefill slice, so compute overlaps the weight stream and
     *  only layers that outrun their weights stall.
     *  @p layer_ready_ms must have config().layers entries
     *  (serving's WeightStreamPlan::layer_ready_ms, passed as
     *  plain simulated instants so the runtime stays independent
     *  of the serving layer). With all-zero watermarks this equals
     *  start + run().ttft_ms up to summation order. */
    double gatedPrefillEndMs(
        int64_t input_len,
        const std::vector<double> &layer_ready_ms,
        double start_ms = 0.0);

    /** One serving step: execute every shape group's batch through
     *  all layers. Per layer, each group is one accelerator
     *  trigger whose batch members stream back-to-back with
     *  weights resident (CompiledBlock::batchedCycles), so the
     *  weight-streaming cost that dominates decode amortises over
     *  the batch. Groups sharing a shape merge into one trigger,
     *  and shapes are costed in ascending shape order, so the
     *  result does not depend on the caller's group order. A warm
     *  step allocates nothing. Each distinct shape is fetched
     *  through block() on the calling thread, which compiles a
     *  cache miss there; callers that want misses compiled in
     *  parallel warm through block() first. */
    StepResult step(const std::vector<StepGroup> &groups);

    /** Compiles performed so far (cache misses). Serving-bucket
     *  regression hook: requests sharing a bucket must not grow
     *  this. */
    int64_t compileCount() const { return compile_count_; }

  private:
    /** One compiled shape of a published table. */
    struct TableEntry
    {
        models::BlockShapes shapes;
        const CompiledBlock *block = nullptr;
    };

    /** Every compiled shape, sorted by shapes. Never modified
     *  once published. */
    using ShapeTable = std::vector<TableEntry>;

    /** The block for @p shapes in the current table, or null. */
    const CompiledBlock *
    findBlock(const models::BlockShapes &shapes) const;

    models::LlmConfig config_;
    hls::FpgaPlatform platform_;
    compiler::CompileOptions options_;
    std::mutex cache_mutex_;
    std::condition_variable compile_done_;

    /** Shapes some thread is currently compiling (cache_mutex_).
     *  block() waits on these instead of compiling again. */
    std::set<models::BlockShapes> compiling_;

    /** Owns every compiled block (cache_mutex_); blocks never
     *  move, so table entries and block() references stay
     *  valid. */
    std::vector<std::unique_ptr<CompiledBlock>> blocks_;

    /** Every table ever published (cache_mutex_). A hit may still
     *  be reading a superseded table, so none is freed before the
     *  executor: n compiled shapes retain n(n+1)/2 entries of 24
     *  bytes, about 5 KB for the 20 shapes of an e2e_stack
     *  workload. */
    std::vector<std::unique_ptr<const ShapeTable>> tables_;

    /** The newest table: released by a miss after its block is
     *  built, acquired by every lookup. */
    std::atomic<const ShapeTable *> table_{nullptr};

    std::atomic<int64_t> compile_count_{0};
};

} // namespace runtime
} // namespace streamtensor

#endif // STREAMTENSOR_RUNTIME_EXECUTOR_H
