/**
 * @file
 * Micro-benchmarks (google-benchmark) of the algorithmic
 * substrates: the simplex LP on FIFO-sizing-shaped instances, the
 * branch-and-bound ILP on die-assignment instances, converter
 * inference (Algorithm 1), and fusion exploration (Algorithm 2).
 */

#include <benchmark/benchmark.h>

#include "dse/converter_gen.h"
#include "dse/fusion.h"
#include "solver/ilp.h"
#include "solver/lp.h"
#include "token/fifo_sizing.h"

using namespace streamtensor;

namespace {

/** Chain-with-skips sizing problem of n kernels. */
token::FifoSizingProblem
chainProblem(int64_t n)
{
    token::FifoSizingProblem p;
    for (int64_t i = 0; i < n; ++i)
        p.addNode({50.0 + 10.0 * (i % 7), 2000.0 + 100.0 * i});
    for (int64_t i = 0; i + 1 < n; ++i)
        p.addEdge(i, i + 1, 256);
    for (int64_t i = 0; i + 2 < n; i += 3)
        p.addEdge(i, i + 2, 256);
    return p;
}

void
BM_FifoSizingLp(benchmark::State &state)
{
    auto problem = chainProblem(state.range(0));
    for (auto _ : state) {
        auto result = token::sizeFifos(problem);
        benchmark::DoNotOptimize(result.objective);
    }
}
BENCHMARK(BM_FifoSizingLp)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(128)
    ->Arg(256);

void
BM_SimplexDense(benchmark::State &state)
{
    int64_t n = state.range(0);
    solver::LpProblem lp(n);
    for (int64_t j = 0; j < n; ++j)
        lp.setObjective(j, 1.0);
    for (int64_t i = 0; i < n; ++i) {
        std::vector<double> row(n, 0.0);
        for (int64_t j = 0; j <= i; ++j)
            row[j] = 1.0;
        lp.addConstraint(row, solver::Relation::GE,
                         100.0 * (i + 1));
    }
    for (auto _ : state) {
        auto sol = solver::solveLp(lp);
        benchmark::DoNotOptimize(sol.objective);
    }
}
BENCHMARK(BM_SimplexDense)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

/** Tasks x 3 dies binary assignment with balance constraint. */
solver::IlpProblem
dieAssignmentIlp(int64_t tasks)
{
    int64_t dies = 3;
    solver::IlpProblem ilp(tasks * dies);
    for (int64_t i = 0; i < tasks; ++i) {
        std::vector<int64_t> vars;
        std::vector<double> ones(dies, 1.0);
        for (int64_t d = 0; d < dies; ++d) {
            ilp.setBinary(i * dies + d);
            vars.push_back(i * dies + d);
        }
        ilp.lp().addSparseConstraint(vars, ones,
                                     solver::Relation::EQ, 1.0);
    }
    for (int64_t d = 0; d < dies; ++d) {
        std::vector<int64_t> vars;
        std::vector<double> ones;
        for (int64_t i = 0; i < tasks; ++i) {
            vars.push_back(i * dies + d);
            ones.push_back(1.0);
        }
        ilp.lp().addSparseConstraint(
            vars, ones, solver::Relation::LE,
            static_cast<double>((tasks + dies - 1) / dies));
        // Prefer low dies via objective weights.
        for (int64_t i = 0; i < tasks; ++i)
            ilp.lp().setObjective(i * dies + d,
                                  0.1 * d + 0.01 * i);
    }
    return ilp;
}

void
BM_IlpDiePartition(benchmark::State &state)
{
    auto ilp = dieAssignmentIlp(state.range(0));
    for (auto _ : state) {
        auto sol = solver::solveIlp(ilp);
        benchmark::DoNotOptimize(sol.objective);
    }
}
BENCHMARK(BM_IlpDiePartition)->Arg(6)->Arg(9)->Arg(12);

void
BM_ConverterInference(benchmark::State &state)
{
    ir::TensorType tensor(ir::DataType::I8, {256, 256});
    auto src = ir::makeTiledITensor(tensor, {16, 16});
    auto res = ir::makePermutedITensor(tensor, {16, 16}, {1, 0});
    for (auto _ : state) {
        auto spec = dse::inferConverter(src, res);
        benchmark::DoNotOptimize(spec.before_loop);
    }
}
BENCHMARK(BM_ConverterInference);

void
BM_FusionExploration(benchmark::State &state)
{
    int64_t n = state.range(0);
    ir::TensorType tensor(ir::DataType::I8, {64, 64});
    auto a = ir::makeTiledITensor(tensor, {16, 16});
    auto b = ir::makePermutedITensor(tensor, {16, 16}, {1, 0});
    dse::FusionGraph graph;
    for (int64_t i = 0; i < n; ++i)
        graph.addNode();
    for (int64_t i = 0; i + 1 < n; ++i)
        graph.addEdge(i, i + 1, i % 2 ? a : b, i % 3 ? a : b);
    for (auto _ : state) {
        auto plan = dse::exploreFusion(graph, 1 << 20);
        benchmark::DoNotOptimize(plan.groups.size());
    }
}
BENCHMARK(BM_FusionExploration)->Arg(16)->Arg(64);

} // namespace

BENCHMARK_MAIN();
