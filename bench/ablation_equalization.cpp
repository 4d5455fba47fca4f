/**
 * @file
 * Ablation (paper §5.3.3): Normal vs Conservative equalization.
 * Conservative scales every kernel's II to the slowest kernel's
 * throughput, minimising FIFO depths at the cost of execution
 * overlap. Reports total FIFO storage and simulated block latency
 * for the GPT-2 and Llama decode blocks.
 */

#include <cstdio>

#include "compiler/compiler.h"
#include "models/block_builder.h"
#include "sim/simulator.h"
#include "support/math_util.h"

using namespace streamtensor;

namespace {

void
runOne(const models::LlmConfig &cfg, token::Equalization eq)
{
    compiler::CompileOptions options;
    options.equalization = eq;
    auto graph = models::buildTransformerBlock(
        cfg, models::decodeShapes(192));
    auto result =
        compiler::compile(std::move(graph), hls::u55c(), options);
    auto sims = sim::simulateAll(result.design.components);
    double cycles = 0.0;
    bool deadlock = false;
    bool timed_out = false;
    for (const auto &s : sims) {
        cycles += s.cycles;
        deadlock |= s.deadlock;
        timed_out |= s.timed_out;
    }
    int64_t fifo_kb =
        ceilDiv(result.design.components.totalFifoBits(), 8) /
        1024;
    int64_t total_depth = 0;
    for (const auto &sized : result.sizing)
        total_depth += sized.totalDepth();
    std::printf("%-8s %-13s %10lld %12lld %12.0f %s\n",
                cfg.name.c_str(),
                token::equalizationName(eq).c_str(),
                static_cast<long long>(total_depth),
                static_cast<long long>(fifo_kb), cycles,
                deadlock    ? "DEADLOCK"
                : timed_out ? "TIMEOUT (cycles truncated)"
                            : "ok");
}

} // namespace

int
main()
{
    std::printf("Ablation: FIFO equalization strategy (decode "
                "block, kv=192)\n\n");
    std::printf("%-8s %-13s %10s %12s %12s %s\n", "Model",
                "Strategy", "SumDepth", "FIFO KiB", "Cycles",
                "Status");
    for (const auto &cfg :
         {models::gpt2Config(), models::llamaConfig()}) {
        runOne(cfg, token::Equalization::Normal);
        runOne(cfg, token::Equalization::Conservative);
    }
    std::printf("\nExpected: Conservative shrinks total FIFO "
                "storage and (possibly) lengthens the block;\n"
                "the paper uses it when intermediate results "
                "pressure on-chip memory (the Llama case).\n");
    return 0;
}
