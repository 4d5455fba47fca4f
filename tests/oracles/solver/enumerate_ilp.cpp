#include "solver/enumerate_ilp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.h"

namespace streamtensor {
namespace solver {

namespace {

constexpr double kEps = 1e-9;

bool
satisfies(const SparseRow &row, const std::vector<double> &x)
{
    double lhs = row.dot(x);
    switch (row.rel) {
    case Relation::LE:
        return lhs <= row.rhs + kEps;
    case Relation::GE:
        return lhs >= row.rhs - kEps;
    case Relation::EQ:
        return std::fabs(lhs - row.rhs) <= kEps;
    }
    return false;
}

} // namespace

IlpSolution
solveIlpByEnumeration(const IlpProblem &problem)
{
    const LpProblem &lp = problem.lp();
    const int64_t n = problem.numVars();

    // Box each variable by its tightest single-variable <= row.
    std::vector<int64_t> upper(static_cast<size_t>(n), -1);
    for (const SparseRow &row : lp.constraints()) {
        if (row.nnz() != 1 || row.rel != Relation::LE ||
            row.value[0] <= 0.0)
            continue;
        auto bound =
            static_cast<int64_t>(std::floor(row.rhs / row.value[0]));
        int64_t &u = upper[static_cast<size_t>(row.index[0])];
        u = u < 0 ? bound : std::min(u, bound);
    }
    for (int64_t j = 0; j < n; ++j)
        ST_CHECK(problem.integerVars()[j] &&
                     upper[static_cast<size_t>(j)] >= 0,
                 "enumeration needs boxed integer variables");

    IlpSolution out;
    double best = std::numeric_limits<double>::infinity();
    std::vector<double> x(static_cast<size_t>(n), 0.0);
    // Odometer over the box: x[0] turns fastest.
    for (;;) {
        ++out.nodes_explored;
        bool feasible = true;
        for (const SparseRow &row : lp.constraints()) {
            if (!satisfies(row, x)) {
                feasible = false;
                break;
            }
        }
        if (feasible) {
            double obj = 0.0;
            for (int64_t j = 0; j < n; ++j)
                obj += lp.objective()[static_cast<size_t>(j)] *
                       x[static_cast<size_t>(j)];
            if (obj < best) {
                best = obj;
                out.values = x;
            }
        }
        int64_t j = 0;
        while (j < n && x[static_cast<size_t>(j)] ==
                            static_cast<double>(
                                upper[static_cast<size_t>(j)])) {
            x[static_cast<size_t>(j)] = 0.0;
            ++j;
        }
        if (j == n)
            break;
        x[static_cast<size_t>(j)] += 1.0;
    }
    if (!out.values.empty()) {
        out.status = LpStatus::Optimal;
        out.objective = best;
    }
    return out;
}

} // namespace solver
} // namespace streamtensor
