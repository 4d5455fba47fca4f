/**
 * @file
 * A sparse two-phase simplex linear-programming solver.
 *
 * StreamTensor needs exact LP optima for the FIFO sizing problem
 * (paper §5.3.4, Eq. 3-5) and the die-partitioning relaxations.
 * Both instance families are structurally sparse: one variable per
 * dataflow edge, a handful of nonzeros per path or linearisation
 * row. Constraints are therefore stored as index/value pairs
 * end-to-end and the tableau exploits column sparsity, so solver
 * cost tracks the nonzero count rather than the variable-count x
 * constraint-count area.
 *
 * All variables are non-negative; constraints may be <=, >=, or ==.
 * The objective is always minimised. Pricing is Dantzig
 * (most-negative reduced cost) with a stall-detection fallback to
 * Bland's rule, so termination stays guaranteed on degenerate
 * instances. Solves can be warm-started from a previous basis,
 * which branch-and-bound uses to turn child-node solves into a few
 * dual repair pivots.
 */

#ifndef STREAMTENSOR_SOLVER_LP_H
#define STREAMTENSOR_SOLVER_LP_H

#include <cstdint>
#include <string>
#include <vector>

namespace streamtensor {
namespace solver {

/** Constraint relation. */
enum class Relation { LE, GE, EQ };

/**
 * One sparse constraint row: sum value[k] * x[index[k]] (rel) rhs.
 * Indices are sorted and unique; duplicate variable mentions passed
 * to the builders accumulate into a single entry (see
 * LpProblem::addSparseConstraint).
 */
struct SparseRow
{
    std::vector<int64_t> index;
    std::vector<double> value;
    Relation rel = Relation::LE;
    double rhs = 0.0;

    int64_t nnz() const { return static_cast<int64_t>(index.size()); }

    /** Coefficient of @p var; 0 when absent from the row. */
    double coeff(int64_t var) const;

    /** Row activity coeffs . x under the assignment @p x. */
    double dot(const std::vector<double> &x) const;
};

/** Outcome of an LP solve. */
enum class LpStatus { Optimal, Infeasible, Unbounded };

/** Printable status name. */
std::string lpStatusName(LpStatus status);

/**
 * A basis snapshot keyed by stable column ids: structural variable
 * j maps to id j, the slack of constraint row i maps to
 * numVars + i. Entries of -1 carry no information (an artificial
 * was basic in that row). Ids stay valid for any problem that
 * extends the producing one with additional trailing constraints —
 * the property branch-and-bound warm starts rely on.
 */
struct SimplexBasis
{
    std::vector<int64_t> basic;

    bool empty() const { return basic.empty(); }
};

/** A linear program: minimise objective . x subject to constraints,
 *  x >= 0. Constraints are held sparsely; the dense addConstraint
 *  is a thin adapter that drops zero coefficients on entry. */
class LpProblem
{
  public:
    explicit LpProblem(int64_t num_vars);

    int64_t numVars() const { return num_vars_; }
    int64_t numConstraints() const
    {
        return static_cast<int64_t>(constraints_.size());
    }

    /** Set the objective coefficient of variable @p var. */
    void setObjective(int64_t var, double coeff);
    const std::vector<double> &objective() const { return objective_; }

    /** Add a dense constraint row (adapter: zeros are dropped). */
    void addConstraint(const std::vector<double> &coeffs, Relation rel,
                       double rhs);

    /**
     * Add a sparse constraint: sum coeffs[i]*x[vars[i]] rel rhs.
     * Repeated indices in @p vars accumulate: addSparseConstraint
     * ({v, v}, {a, b}, ...) contributes a single (a + b) coefficient
     * on x[v], exactly as if the mentions had been summed densely.
     */
    void addSparseConstraint(const std::vector<int64_t> &vars,
                             const std::vector<double> &coeffs,
                             Relation rel, double rhs);

    /** Add the single-variable bound x[var] rel rhs. */
    void addBound(int64_t var, Relation rel, double rhs);

    /** Remove the most recently added constraint (branch-and-bound
     *  push/pop of branching bounds). */
    void popConstraint();

    const SparseRow &constraint(int64_t i) const;
    const std::vector<SparseRow> &constraints() const
    {
        return constraints_;
    }

  private:
    int64_t num_vars_;
    std::vector<double> objective_;
    std::vector<SparseRow> constraints_;
};

/** LP solve result. */
struct LpSolution
{
    LpStatus status = LpStatus::Infeasible;
    double objective = 0.0;
    std::vector<double> values;

    /** Final basis (filled on Optimal); feed it back through
     *  LpOptions::warm_start to resume after adding constraints. */
    SimplexBasis basis;

    /** Simplex pivots performed (diagnostics). */
    int64_t pivots = 0;

    bool optimal() const { return status == LpStatus::Optimal; }
};

/** Solve-time knobs. */
struct LpOptions
{
    /** Start from this basis: it is crash-installed, then primal
     *  infeasibility from newly added constraints is repaired with
     *  dual simplex pivots. Falls back to a cold solve whenever the
     *  basis cannot be installed cleanly. */
    const SimplexBasis *warm_start = nullptr;
};

/**
 * Solve with two-phase sparse simplex. Dantzig pricing with a
 * Bland fallback after 64 degenerate pivots, so it cannot cycle.
 * Suitable for the small/medium instances StreamTensor generates.
 */
LpSolution solveLp(const LpProblem &problem,
                   const LpOptions &options = {});

} // namespace solver
} // namespace streamtensor

#endif // STREAMTENSOR_SOLVER_LP_H
