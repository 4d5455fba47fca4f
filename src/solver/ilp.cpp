#include "solver/ilp.h"

#include <cmath>
#include <limits>

#include "support/error.h"

namespace streamtensor {
namespace solver {

namespace {

constexpr double kIntEps = 1e-6;

struct SearchState
{
    const IlpProblem *problem;
    double best_obj = std::numeric_limits<double>::infinity();
    std::vector<double> best_values;
    int64_t nodes = 0;
    int64_t max_nodes = 0;
    int64_t pivots = 0;
};

/** Index of the most fractional integer variable, or -1. */
int64_t
pickBranchVar(const IlpProblem &problem,
              const std::vector<double> &x)
{
    int64_t best = -1;
    double best_frac = kIntEps;
    const auto &ints = problem.integerVars();
    for (int64_t j = 0; j < problem.numVars(); ++j) {
        if (!ints[j])
            continue;
        double f = x[j] - std::floor(x[j]);
        double dist = std::min(f, 1.0 - f);
        if (dist > best_frac) {
            best_frac = dist;
            best = j;
        }
    }
    return best;
}

/**
 * Depth-first search over a shared relaxation: branching bounds
 * are pushed before recursing and popped after, and each node
 * hands its optimal basis to both children so their solves start
 * as dual repairs of one appended bound row.
 */
void
branchAndBound(SearchState &state, LpProblem &relaxation,
               const SimplexBasis *parent_basis)
{
    if (state.nodes++ >= state.max_nodes)
        return;
    LpOptions lp_options;
    if (parent_basis && !parent_basis->empty())
        lp_options.warm_start = parent_basis;
    LpSolution sol = solveLp(relaxation, lp_options);
    state.pivots += sol.pivots;
    if (lp_options.warm_start && !sol.optimal()) {
        // Never prune a subtree on a warm-started non-optimal
        // verdict alone; confirm with a cold solve.
        sol = solveLp(relaxation);
        state.pivots += sol.pivots;
    }
    if (!sol.optimal())
        return;
    if (sol.objective >= state.best_obj - 1e-9)
        return; // bound: cannot improve the incumbent.
    int64_t var = pickBranchVar(*state.problem, sol.values);
    if (var < 0) {
        // Integral solution.
        state.best_obj = sol.objective;
        state.best_values = sol.values;
        return;
    }
    double v = sol.values[var];
    SimplexBasis basis = std::move(sol.basis);
    // Down branch: x <= floor(v).
    relaxation.addBound(var, Relation::LE, std::floor(v));
    branchAndBound(state, relaxation, &basis);
    relaxation.popConstraint();
    // Up branch: x >= ceil(v).
    relaxation.addBound(var, Relation::GE, std::ceil(v));
    branchAndBound(state, relaxation, &basis);
    relaxation.popConstraint();
}

} // namespace

IlpProblem::IlpProblem(int64_t num_vars)
    : lp_(num_vars), integer_(num_vars, false)
{}

void
IlpProblem::setInteger(int64_t var)
{
    ST_ASSERT(var >= 0 && var < numVars(), "integer var range");
    integer_[var] = true;
}

void
IlpProblem::setBinary(int64_t var)
{
    setInteger(var);
    setUpperBound(var, 1.0);
}

void
IlpProblem::setUpperBound(int64_t var, double bound)
{
    lp_.addBound(var, Relation::LE, bound);
}

IlpSolution
solveIlp(const IlpProblem &problem, const IlpOptions &options)
{
    SearchState state;
    state.problem = &problem;
    state.max_nodes = options.max_nodes;
    state.best_obj = options.cutoff;
    LpProblem relaxation = problem.lp();
    branchAndBound(state, relaxation, nullptr);

    IlpSolution out;
    out.nodes_explored = state.nodes;
    out.lp_pivots = state.pivots;
    if (!state.best_values.empty()) {
        out.status = LpStatus::Optimal;
        out.objective = state.best_obj;
        out.values = std::move(state.best_values);
        // Snap near-integers exactly.
        const auto &ints = problem.integerVars();
        for (int64_t j = 0; j < problem.numVars(); ++j)
            if (ints[j])
                out.values[j] = std::round(out.values[j]);
    }
    return out;
}

IlpSolution
solveIlp(const IlpProblem &problem, int64_t max_nodes)
{
    IlpOptions options;
    options.max_nodes = max_nodes;
    return solveIlp(problem, options);
}

} // namespace solver
} // namespace streamtensor
