/**
 * @file
 * Micro-benchmarks (google-benchmark) of the end-to-end pipeline:
 * full compilation of a transformer block and cycle-level
 * simulation throughput.
 */

#include <benchmark/benchmark.h>

#include "compiler/compiler.h"
#include "models/block_builder.h"
#include "sim/simulator.h"

using namespace streamtensor;

namespace {

void
BM_CompileDecodeBlock(benchmark::State &state)
{
    for (auto _ : state) {
        auto graph = models::buildTransformerBlock(
            models::gpt2Config(), models::decodeShapes(192));
        auto result = compiler::compile(std::move(graph),
                                        hls::u55c(), {});
        benchmark::DoNotOptimize(
            result.design.components.numComponents());
    }
}
BENCHMARK(BM_CompileDecodeBlock)->Unit(benchmark::kMillisecond);

void
BM_CompilePrefillBlock(benchmark::State &state)
{
    for (auto _ : state) {
        auto graph = models::buildTransformerBlock(
            models::gpt2Config(),
            models::prefillShapes(state.range(0)));
        auto result = compiler::compile(std::move(graph),
                                        hls::u55c(), {});
        benchmark::DoNotOptimize(
            result.design.components.numComponents());
    }
}
BENCHMARK(BM_CompilePrefillBlock)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

/** Attach simulator throughput counters: simulated cycles per wall
 *  second (the headline metric of the leap-ahead rewrite) and heap
 *  events per simulation. */
void
addSimCounters(benchmark::State &state,
               const std::vector<sim::SimResult> &sims)
{
    double cycles = 0.0;
    double events = 0.0;
    for (const auto &s : sims) {
        cycles += s.cycles;
        events += static_cast<double>(s.events);
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        cycles * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    state.counters["sim_events"] = events;
}

void
BM_SimulateDecodeBlock(benchmark::State &state)
{
    auto graph = models::buildTransformerBlock(
        models::gpt2Config(), models::decodeShapes(192));
    auto result =
        compiler::compile(std::move(graph), hls::u55c(), {});
    std::vector<sim::SimResult> sims;
    for (auto _ : state) {
        sims = sim::simulateAll(result.design.components);
        benchmark::DoNotOptimize(sims[0].cycles);
    }
    addSimCounters(state, sims);
}
BENCHMARK(BM_SimulateDecodeBlock)->Unit(benchmark::kMillisecond);

/** Simulation of @p config's prefill block at state.range(0)
 *  tokens. */
void
simulatePrefillBlock(benchmark::State &state,
                     const models::LlmConfig &config)
{
    auto graph = models::buildTransformerBlock(
        config, models::prefillShapes(state.range(0)));
    auto result =
        compiler::compile(std::move(graph), hls::u55c(), {});
    std::vector<sim::SimResult> sims;
    for (auto _ : state) {
        sims = sim::simulateAll(result.design.components);
        benchmark::DoNotOptimize(sims[0].cycles);
    }
    addSimCounters(state, sims);
}

void
BM_SimulatePrefillBlock(benchmark::State &state)
{
    simulatePrefillBlock(state, models::gpt2Config());
}
BENCHMARK(BM_SimulatePrefillBlock)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

/** The largest serving prefill bucket below the context limit on
 *  Llama: the single most expensive shape a long-context set-up
 *  simulates. */
void
BM_SimulateLlamaPrefillBlock(benchmark::State &state)
{
    simulatePrefillBlock(state, models::llamaConfig());
}
BENCHMARK(BM_SimulateLlamaPrefillBlock)
    ->Arg(992)
    ->Unit(benchmark::kMillisecond);

/** Die partitioning cost on the compiled decode block: one
 *  partitionGroup pass per group (the Die_Partition stage), with
 *  the realised crossing count as a counter. */
void
BM_DiePartitionDecodeBlock(benchmark::State &state)
{
    auto graph = models::buildTransformerBlock(
        models::gpt2Config(), models::decodeShapes(192));
    auto result =
        compiler::compile(std::move(graph), hls::u55c(), {});
    auto &cg = result.design.components;
    partition::PartitionOptions options;
    if (state.range(0) == 0)
        options.strategy = partition::PartitionStrategy::Greedy;
    int64_t crossings = 0;
    for (auto _ : state) {
        crossings = 0;
        for (int64_t g = 0; g < cg.numGroups(); ++g) {
            auto part = partition::partitionGroup(cg, g,
                                                  hls::u55c(),
                                                  options);
            crossings += part.crossings;
        }
        benchmark::DoNotOptimize(crossings);
    }
    state.counters["crossings"] =
        static_cast<double>(crossings);
}
BENCHMARK(BM_DiePartitionDecodeBlock)
    ->Arg(0) // greedy
    ->Arg(1) // auto (ILP within guard)
    ->Unit(benchmark::kMicrosecond);

/** Crossing-aware simulation: the decode block compiled for a
 *  platform with a priced inter-die link (greedy placement, so
 *  crossings exist), simulated by the leap-ahead engine. The
 *  crossings counter pairs with sim_cycles_per_s to show what the
 *  link model costs the simulator. */
void
BM_SimulateCrossingAwareDecodeBlock(benchmark::State &state)
{
    hls::FpgaPlatform linked = hls::u55c();
    linked.inter_die_latency_cycles =
        static_cast<double>(state.range(0));
    linked.inter_die_ii_penalty = state.range(0) > 0 ? 1.0 : 0.0;
    compiler::CompileOptions options;
    options.partition.strategy =
        partition::PartitionStrategy::Greedy;
    auto graph = models::buildTransformerBlock(
        models::gpt2Config(), models::decodeShapes(192));
    auto result =
        compiler::compile(std::move(graph), linked, options);
    std::vector<sim::SimResult> sims;
    for (auto _ : state) {
        sims = sim::simulateAll(result.design.components);
        benchmark::DoNotOptimize(sims[0].cycles);
    }
    addSimCounters(state, sims);
    double crossings = 0.0;
    for (const auto &s : sims)
        crossings += static_cast<double>(s.crossing_channels);
    state.counters["crossings"] = crossings;
}
BENCHMARK(BM_SimulateCrossingAwareDecodeBlock)
    ->Arg(0)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
