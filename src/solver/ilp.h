/**
 * @file
 * Integer linear programming via branch-and-bound on the simplex
 * relaxation. Used by the multi-die graph-partitioning problem
 * (paper §5.3, "Graph partitioning ... formulated and solved using
 * Integer Linear Programming").
 *
 * Node solves are warm-started: each branch-and-bound node threads
 * its parent's optimal basis into the child LP, so most node
 * solves reduce to a handful of dual repair pivots instead of a
 * cold two-phase solve. Branching bounds are pushed and popped on
 * a single shared relaxation instead of copying the problem per
 * node.
 */

#ifndef STREAMTENSOR_SOLVER_ILP_H
#define STREAMTENSOR_SOLVER_ILP_H

#include <cstdint>
#include <limits>
#include <vector>

#include "solver/lp.h"

namespace streamtensor {
namespace solver {

/** An ILP: an LP plus integrality flags and optional upper bounds. */
class IlpProblem
{
  public:
    explicit IlpProblem(int64_t num_vars);

    LpProblem &lp() { return lp_; }
    const LpProblem &lp() const { return lp_; }
    int64_t numVars() const { return lp_.numVars(); }

    /** Mark variable @p var integer-valued. */
    void setInteger(int64_t var);

    /** Mark variable @p var binary (integer in [0, 1]). */
    void setBinary(int64_t var);

    /** Add an upper bound x[var] <= bound. */
    void setUpperBound(int64_t var, double bound);

    const std::vector<bool> &integerVars() const { return integer_; }

  private:
    LpProblem lp_;
    std::vector<bool> integer_;
};

/** ILP solve result. */
struct IlpSolution
{
    LpStatus status = LpStatus::Infeasible;
    double objective = 0.0;
    std::vector<double> values;
    int64_t nodes_explored = 0;

    /** Total simplex pivots across all node solves (diagnostics;
     *  warm starts shrink this dramatically). */
    int64_t lp_pivots = 0;

    bool optimal() const { return status == LpStatus::Optimal; }
};

/** Branch-and-bound knobs. */
struct IlpOptions
{
    /** Node cap; when hit, the best incumbent found so far is
     *  returned (still marked Optimal if one exists, since
     *  partitioning only needs a good feasible point). */
    int64_t max_nodes = 200000;

    /** Objective cutoff: subtrees whose relaxation cannot beat
     *  this are pruned, and only strictly better integral points
     *  are accepted. Callers with a known feasible incumbent (die
     *  partitioning primes with the greedy assignment) pass its
     *  objective here; when nothing beats it the solve returns
     *  non-optimal and the caller keeps the incumbent. */
    double cutoff = std::numeric_limits<double>::infinity();
};

/**
 * Solve with depth-first branch-and-bound (most-fractional
 * branching) over a shared push/pop relaxation.
 */
IlpSolution solveIlp(const IlpProblem &problem,
                     const IlpOptions &options);

/** Convenience overload: default options with @p max_nodes. */
IlpSolution solveIlp(const IlpProblem &problem,
                     int64_t max_nodes = 200000);

} // namespace solver
} // namespace streamtensor

#endif // STREAMTENSOR_SOLVER_ILP_H
