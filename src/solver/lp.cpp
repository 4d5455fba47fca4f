#include "solver/lp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.h"
#include "support/logging.h"

namespace streamtensor {
namespace solver {

namespace {

constexpr double kEps = 1e-9;
constexpr double kPivotTol = 1e-7;

/** Pivots without objective improvement before pricing drops from
 *  Dantzig to Bland's rule (anti-cycling guarantee). */
constexpr int64_t kStallPivots = 64;

/**
 * Sparse simplex tableau.
 *
 * Storage is one contiguous row-major buffer: m_ rows of
 * stride_ = total_ + 1 doubles, the last entry of each row being
 * its right-hand side. Columns: structural vars, slack vars,
 * artificial vars.
 *
 * Alongside the buffer sits a column-nonzero structure: for every
 * column j, cols_[j] lists the rows that may hold a nonzero there
 * (a superset — entries that were eliminated to zero linger until
 * the list is consulted). The invariant "a(i, j) != 0 implies i in
 * cols_[j]" is maintained through pivoting by recording fill-in,
 * so the ratio test and row elimination touch only candidate rows
 * instead of the full column, and elimination touches only the
 * pivot row's nonzero columns instead of the full row.
 *
 * Pricing is Dantzig (most negative reduced cost); after
 * kStallPivots consecutive pivots without objective improvement it
 * falls back to Bland's rule (lowest eligible index, min-ratio
 * ties broken by lowest basis index), which cannot cycle. Any
 * strict improvement switches back to Dantzig.
 */
class Tableau
{
  public:
    enum class Phase2Result { Optimal, Unbounded, Infeasible, NeedCold };

    /**
     * @p dual_start builds the tableau for a dual-simplex phase-1:
     * every row is oriented so its slack enters the basis with
     * coefficient +1 regardless of rhs sign (GE rows are negated
     * wholesale), leaving no artificials but possibly negative
     * right-hand sides for phase2's dual repair. Only legal for
     * inequality-only problems whose phase-2 cost row starts dual
     * feasible (objective >= 0); the caller checks that.
     */
    explicit Tableau(const LpProblem &problem,
                     bool dual_start = false)
        : n_(problem.numVars()), m_(problem.numConstraints())
    {
        // Count slacks (one per inequality) and artificials: a row
        // needs an artificial unless its slack can serve as the
        // initial basic variable (slack coefficient +1 after the
        // b >= 0 normalisation — or after GE negation when
        // dual-starting).
        std::vector<double> row_sign(m_, 1.0);
        std::vector<double> slack_sign(m_, 0.0);
        num_slack_ = 0;
        num_art_ = 0;
        for (int64_t i = 0; i < m_; ++i) {
            const SparseRow &c = problem.constraint(i);
            Relation r = c.rel;
            if (dual_start) {
                ST_ASSERT(r != Relation::EQ,
                          "dual start needs inequality rows");
                row_sign[i] = r == Relation::GE ? -1.0 : 1.0;
                slack_sign[i] = 1.0;
                ++num_slack_;
                continue;
            }
            row_sign[i] = c.rhs < 0 ? -1.0 : 1.0;
            if (row_sign[i] < 0) {
                if (r == Relation::LE)
                    r = Relation::GE;
                else if (r == Relation::GE)
                    r = Relation::LE;
            }
            if (r != Relation::EQ) {
                slack_sign[i] = r == Relation::LE ? 1.0 : -1.0;
                ++num_slack_;
            }
            if (r == Relation::EQ || slack_sign[i] < 0)
                ++num_art_;
        }

        total_ = n_ + num_slack_ + num_art_;
        stride_ = total_ + 1;
        a_.assign(m_ * stride_, 0.0);
        basis_.assign(m_, -1);
        slack_col_of_row_.assign(m_, -1);
        slack_row_.assign(num_slack_, -1);
        // The column-nonzero structure pays for itself once the
        // tableau outgrows the cache-friendly regime; tiny
        // instances (branch-and-bound leaves, unit tests) are
        // faster with straight contiguous scans.
        use_cols_ = m_ * total_ >= 4096;
        if (use_cols_) {
            cols_.assign(total_, {});
            in_col_.assign(m_ * total_, 0);
        }
        cost_.assign(total_, 0.0);
        blocked_from_ = total_;

        int64_t next_slack = 0, next_art = 0;
        for (int64_t i = 0; i < m_; ++i) {
            const SparseRow &c = problem.constraint(i);
            double sign = row_sign[i];
            for (int64_t k = 0; k < c.nnz(); ++k) {
                int64_t j = c.index[k];
                ST_CHECK(j >= 0 && j < n_, "constraint var range");
                setEntry(i, j, sign * c.value[k]);
            }
            at(i, total_) = sign * c.rhs;
            if (slack_sign[i] != 0.0) {
                int64_t s = n_ + next_slack;
                slack_col_of_row_[i] = s;
                slack_row_[next_slack] = i;
                ++next_slack;
                setEntry(i, s, slack_sign[i]);
            }
            if (slack_sign[i] > 0) {
                basis_[i] = slack_col_of_row_[i];
            } else {
                int64_t art = n_ + num_slack_ + next_art++;
                setEntry(i, art, 1.0);
                basis_[i] = art;
            }
        }
    }

    /**
     * Crash-install a warm basis: pivot each surviving basic
     * variable in, preferring large pivot magnitudes. Returns true
     * when the install is clean — no artificial remains basic in a
     * row with meaningfully nonzero rhs — in which case phase 1
     * can be skipped (rhs negativity, if any, is repaired by dual
     * pivots in phase 2). A false return means the caller should
     * discard this tableau and solve cold: crash pivots may have
     * driven rhs negative, which phase 1's primal loop cannot
     * start from.
     */
    bool
    installWarmBasis(const SimplexBasis &warm)
    {
        std::vector<char> desired(total_, 0);
        std::vector<int64_t> want;
        want.reserve(warm.basic.size());
        for (int64_t id : warm.basic) {
            int64_t col = -1;
            if (id >= 0 && id < n_) {
                col = id;
            } else if (id >= n_ && id < n_ + m_) {
                col = slack_col_of_row_[id - n_]; // -1 on EQ rows
            }
            if (col >= 0 && !desired[col]) {
                desired[col] = 1;
                want.push_back(col);
            }
        }
        std::vector<char> is_basic(total_, 0);
        for (int64_t i = 0; i < m_; ++i)
            is_basic[basis_[i]] = 1;
        for (int64_t col : want) {
            if (is_basic[col])
                continue;
            int64_t brow = -1;
            double bmag = kPivotTol;
            forEachCandidateRow(col, [&](int64_t i) {
                // Never evict a row already holding a desired var.
                if (desired[basis_[i]])
                    return;
                double mag = std::fabs(at(i, col));
                if (mag > bmag) {
                    bmag = mag;
                    brow = i;
                }
            });
            if (brow < 0)
                continue; // cannot install this variable
            is_basic[basis_[brow]] = 0;
            pivot(brow, col);
            is_basic[col] = 1;
        }
        // Re-establish phase 1's end invariant: an artificial may
        // stay basic only at value 0 in a row that is zero across
        // every real column (then no later pivot can move it).
        // Otherwise phase 2 could silently drive the artificial
        // positive and return an infeasible point as Optimal, so
        // pivot it out or declare the install unclean.
        for (int64_t i = 0; i < m_; ++i) {
            if (basis_[i] < n_ + num_slack_)
                continue;
            if (std::fabs(at(i, total_)) > kPivotTol)
                return false;
            // Residues <= kEps are skipped by the elimination
            // guard in pivot(), so a row left un-pivoted here is
            // inert.
            for (int64_t j = 0; j < n_ + num_slack_; ++j) {
                if (std::fabs(at(i, j)) > kEps) {
                    pivot(i, j);
                    break;
                }
            }
        }
        return true;
    }

    /** Minimise the sum of artificial variables. Returns false
     *  when that sum stays positive (the LP is infeasible). */
    bool
    phase1()
    {
        if (num_art_ == 0)
            return true;
        cost_.assign(total_, 0.0);
        cost_rhs_ = 0.0;
        for (int64_t a = n_ + num_slack_; a < total_; ++a)
            cost_[a] = 1.0;
        blocked_from_ = total_;
        priceOut();
        resetPricing();
        iterate();
        // Scale-aware feasibility test: long pivot chains on large
        // right-hand sides accumulate rounding error.
        if (cost_rhs_ < -kPivotTol * rhsScale())
            return false; // sum of artificials > 0 -> infeasible.
        // Pivot remaining artificial basics out where possible.
        for (int64_t i = 0; i < m_; ++i) {
            if (basis_[i] < n_ + num_slack_)
                continue;
            for (int64_t j = 0; j < n_ + num_slack_; ++j) {
                if (std::fabs(at(i, j)) > kEps) {
                    pivot(i, j);
                    break;
                }
            }
            // Else the row is redundant; the artificial stays
            // basic at value 0, which is harmless.
        }
        return true;
    }

    /**
     * Minimise the real objective. A primal-infeasible start (the
     * warm-start and dual-start paths) is first repaired with dual
     * simplex pivots; NeedCold reports a start this tableau cannot
     * recover from, and the caller falls back to a cold solve.
     */
    Phase2Result
    phase2(const std::vector<double> &objective)
    {
        cost_.assign(total_, 0.0);
        cost_rhs_ = 0.0;
        for (int64_t j = 0; j < n_; ++j)
            cost_[j] = objective[j];
        // Forbid (re-)entry of artificial columns.
        blocked_from_ = n_ + num_slack_;
        priceOut();
        resetPricing();

        double tol = kPivotTol * rhsScale();
        if (worstRhs() < -tol) {
            // Dual simplex needs a dual-feasible cost row.
            for (int64_t j = 0; j < blocked_from_; ++j)
                if (cost_[j] < -kPivotTol)
                    return Phase2Result::NeedCold;
            switch (dualIterate(tol)) {
              case DualResult::Repaired: break;
              case DualResult::Infeasible:
                return Phase2Result::Infeasible;
              case DualResult::GiveUp:
                return Phase2Result::NeedCold;
            }
        }
        return iterate() ? Phase2Result::Optimal
                         : Phase2Result::Unbounded;
    }

    /** Extract structural variable values. */
    std::vector<double>
    solution() const
    {
        std::vector<double> x(n_, 0.0);
        for (int64_t i = 0; i < m_; ++i)
            if (basis_[i] < n_)
                x[basis_[i]] = at(i, total_);
        return x;
    }

    /** Current basis in stable ids (see SimplexBasis). */
    SimplexBasis
    basisSnapshot() const
    {
        SimplexBasis basis;
        basis.basic.reserve(m_);
        for (int64_t i = 0; i < m_; ++i) {
            int64_t col = basis_[i];
            if (col < n_)
                basis.basic.push_back(col);
            else if (col < n_ + num_slack_)
                basis.basic.push_back(n_ + slack_row_[col - n_]);
            else
                basis.basic.push_back(-1);
        }
        return basis;
    }

    int64_t pivots() const { return pivots_; }

  private:
    double &at(int64_t i, int64_t j) { return a_[i * stride_ + j]; }
    double at(int64_t i, int64_t j) const
    {
        return a_[i * stride_ + j];
    }

    /** Write a matrix entry, recording column membership. */
    void
    setEntry(int64_t i, int64_t j, double v)
    {
        at(i, j) += v;
        noteNonzero(i, j);
    }

    void
    noteNonzero(int64_t i, int64_t j)
    {
        if (!use_cols_)
            return;
        uint8_t &flag = in_col_[i * total_ + j];
        if (!flag) {
            flag = 1;
            cols_[j].push_back(static_cast<int32_t>(i));
        }
    }

    /** Visit rows that may hold a nonzero in column @p col: the
     *  column candidate list when maintained, every row otherwise. */
    template <typename Fn>
    void
    forEachCandidateRow(int64_t col, Fn &&fn) const
    {
        if (use_cols_) {
            for (int32_t i : cols_[col])
                fn(i);
        } else {
            for (int64_t i = 0; i < m_; ++i)
                fn(i);
        }
    }

    double
    rhsScale() const
    {
        double scale = 1.0;
        for (int64_t i = 0; i < m_; ++i)
            scale = std::max(scale, std::fabs(at(i, total_)));
        return scale;
    }

    double
    worstRhs() const
    {
        double worst = 0.0;
        for (int64_t i = 0; i < m_; ++i)
            worst = std::min(worst, at(i, total_));
        return worst;
    }

    /** Make the cost row consistent with the current basis. */
    void
    priceOut()
    {
        for (int64_t i = 0; i < m_; ++i) {
            double c = cost_[basis_[i]];
            if (std::fabs(c) < kEps)
                continue;
            const double *row = &a_[i * stride_];
            for (int64_t j = 0; j < total_; ++j)
                cost_[j] -= c * row[j];
            cost_rhs_ -= c * row[total_];
            cost_[basis_[i]] = 0.0;
        }
    }

    void
    resetPricing()
    {
        bland_mode_ = false;
        since_improve_ = 0;
        best_obj_ = std::numeric_limits<double>::infinity();
    }

    /** Entering column under the current pricing mode, or -1 at
     *  optimality. */
    int64_t
    chooseEntering() const
    {
        int64_t enter = -1;
        if (bland_mode_) {
            for (int64_t j = 0; j < blocked_from_; ++j) {
                if (cost_[j] < -kEps)
                    return j;
            }
            return -1;
        }
        double best = -kEps;
        for (int64_t j = 0; j < blocked_from_; ++j) {
            if (cost_[j] < best) {
                best = cost_[j];
                enter = j;
            }
        }
        return enter;
    }

    /** Primal simplex loop. Returns false when unbounded. */
    bool
    iterate()
    {
        while (true) {
            int64_t enter = chooseEntering();
            if (enter < 0)
                return true;
            // Leaving: min ratio over candidate rows, ties by
            // lowest basis index (Bland anti-cycling tie-break).
            int64_t leave = -1;
            double best = 0.0;
            forEachCandidateRow(enter, [&](int64_t i) {
                double a = at(i, enter);
                if (a <= kEps)
                    return;
                double ratio = at(i, total_) / a;
                if (leave < 0 || ratio < best - kEps ||
                    (ratio < best + kEps &&
                     basis_[i] < basis_[leave])) {
                    leave = i;
                    best = ratio;
                }
            });
            if (leave < 0)
                return false; // unbounded
            pivot(leave, enter);
            trackStall();
        }
    }

    /** Dantzig -> Bland stall bookkeeping, evaluated per pivot. */
    void
    trackStall()
    {
        double obj = -cost_rhs_;
        if (obj < best_obj_ - kEps * (1.0 + std::fabs(best_obj_))) {
            best_obj_ = obj;
            since_improve_ = 0;
            bland_mode_ = false;
            return;
        }
        if (++since_improve_ >= kStallPivots)
            bland_mode_ = true;
    }

    enum class DualResult { Repaired, Infeasible, GiveUp };

    /**
     * Dual simplex repair: drive negative right-hand sides out
     * while preserving dual feasibility. Used after a warm-started
     * basis meets constraints appended since it was optimal.
     */
    DualResult
    dualIterate(double tol)
    {
        int64_t cap = 4 * (m_ + total_) + 64;
        while (true) {
            int64_t leave = -1;
            double worst = -tol;
            for (int64_t i = 0; i < m_; ++i) {
                if (at(i, total_) < worst) {
                    worst = at(i, total_);
                    leave = i;
                }
            }
            if (leave < 0)
                return DualResult::Repaired;
            if (--cap < 0)
                return DualResult::GiveUp;
            const double *row = &a_[leave * stride_];
            int64_t enter = -1;
            double best = 0.0;
            for (int64_t j = 0; j < blocked_from_; ++j) {
                double a = row[j];
                if (a >= -kPivotTol)
                    continue;
                double ratio = std::max(cost_[j], 0.0) / -a;
                if (enter < 0 || ratio < best - kEps) {
                    enter = j;
                    best = ratio;
                }
            }
            if (enter < 0) {
                // All eligible entries non-negative: a Farkas row,
                // unless only a blocked artificial column could
                // have entered (then punt to a cold solve).
                for (int64_t j = blocked_from_; j < total_; ++j)
                    if (row[j] < -kPivotTol)
                        return DualResult::GiveUp;
                return DualResult::Infeasible;
            }
            pivot(leave, enter);
        }
    }

    void
    pivot(int64_t row, int64_t col)
    {
        double *prow = &a_[row * stride_];
        double p = prow[col];
        ST_ASSERT(std::fabs(p) > kEps, "zero pivot");

        // Gather the pivot row's nonzero columns once; elimination
        // below touches only these.
        prow_cols_.clear();
        for (int64_t j = 0; j < total_; ++j)
            if (std::fabs(prow[j]) > kEps)
                prow_cols_.push_back(j);

        for (int64_t j : prow_cols_)
            prow[j] /= p;
        prow[col] = 1.0;
        prow[total_] /= p;

        forEachCandidateRow(col, [&](int64_t i) {
            if (i == row)
                return;
            double *irow = &a_[i * stride_];
            double f = irow[col];
            if (std::fabs(f) < kEps)
                return;
            for (int64_t j : prow_cols_) {
                irow[j] -= f * prow[j];
                noteNonzero(i, j);
            }
            irow[col] = 0.0;
            irow[total_] -= f * prow[total_];
            if (irow[total_] < 0 && irow[total_] > -kEps)
                irow[total_] = 0;
        });

        double f = cost_[col];
        if (std::fabs(f) > kEps) {
            for (int64_t j : prow_cols_)
                cost_[j] -= f * prow[j];
            cost_rhs_ -= f * prow[total_];
            cost_[col] = 0.0;
        }
        basis_[row] = col;
        ++pivots_;
    }

    int64_t n_, m_;
    int64_t num_slack_ = 0, num_art_ = 0, total_ = 0, stride_ = 0;
    int64_t blocked_from_ = 0;
    std::vector<double> a_; ///< m_ rows x stride_ (last col = rhs)
    std::vector<double> cost_;
    double cost_rhs_ = 0.0;
    std::vector<int64_t> basis_;
    std::vector<int64_t> slack_col_of_row_; ///< row -> slack col | -1
    std::vector<int64_t> slack_row_;        ///< packed slack -> row
    bool use_cols_ = false; ///< maintain the column structure?
    std::vector<std::vector<int32_t>> cols_; ///< column candidates
    std::vector<uint8_t> in_col_;            ///< membership bitmap
    std::vector<int64_t> prow_cols_;         ///< pivot-row scratch
    int64_t pivots_ = 0;
    bool bland_mode_ = false;
    int64_t since_improve_ = 0;
    double best_obj_ = std::numeric_limits<double>::infinity();
};

LpSolution
finishOptimal(const LpProblem &problem, Tableau &tab)
{
    LpSolution solution;
    solution.status = LpStatus::Optimal;
    solution.values = tab.solution();
    solution.basis = tab.basisSnapshot();
    solution.pivots = tab.pivots();
    solution.objective = 0.0;
    for (int64_t j = 0; j < problem.numVars(); ++j)
        solution.objective +=
            problem.objective()[j] * solution.values[j];
    return solution;
}

} // namespace

double
SparseRow::coeff(int64_t var) const
{
    auto it = std::lower_bound(index.begin(), index.end(), var);
    if (it == index.end() || *it != var)
        return 0.0;
    return value[it - index.begin()];
}

double
SparseRow::dot(const std::vector<double> &x) const
{
    double acc = 0.0;
    for (size_t k = 0; k < index.size(); ++k)
        acc += value[k] * x[index[k]];
    return acc;
}

std::string
lpStatusName(LpStatus status)
{
    switch (status) {
      case LpStatus::Optimal: return "optimal";
      case LpStatus::Infeasible: return "infeasible";
      case LpStatus::Unbounded: return "unbounded";
    }
    ST_PANIC("unknown LpStatus");
}

LpProblem::LpProblem(int64_t num_vars)
    : num_vars_(num_vars), objective_(num_vars, 0.0)
{
    ST_CHECK(num_vars >= 1, "LP needs at least one variable");
}

void
LpProblem::setObjective(int64_t var, double coeff)
{
    ST_ASSERT(var >= 0 && var < num_vars_, "objective var range");
    objective_[var] = coeff;
}

void
LpProblem::addConstraint(const std::vector<double> &coeffs,
                         Relation rel, double rhs)
{
    ST_CHECK(static_cast<int64_t>(coeffs.size()) == num_vars_,
             "constraint width must equal numVars");
    SparseRow row;
    row.rel = rel;
    row.rhs = rhs;
    for (int64_t j = 0; j < num_vars_; ++j) {
        if (coeffs[j] != 0.0) {
            row.index.push_back(j);
            row.value.push_back(coeffs[j]);
        }
    }
    constraints_.push_back(std::move(row));
}

void
LpProblem::addSparseConstraint(const std::vector<int64_t> &vars,
                               const std::vector<double> &coeffs,
                               Relation rel, double rhs)
{
    ST_CHECK(vars.size() == coeffs.size(),
             "sparse constraint arity mismatch");
    SparseRow row;
    row.rel = rel;
    row.rhs = rhs;
    // Sort mentions by variable, accumulating duplicates so that
    // repeated indices sum exactly as they would densely.
    std::vector<int64_t> order(vars.size());
    for (size_t k = 0; k < vars.size(); ++k) {
        ST_ASSERT(vars[k] >= 0 && vars[k] < num_vars_,
                  "sparse var range");
        order[k] = static_cast<int64_t>(k);
    }
    std::sort(order.begin(), order.end(),
              [&](int64_t a, int64_t b) { return vars[a] < vars[b]; });
    row.index.reserve(vars.size());
    row.value.reserve(vars.size());
    for (int64_t k : order) {
        if (!row.index.empty() && row.index.back() == vars[k]) {
            row.value.back() += coeffs[k];
        } else {
            row.index.push_back(vars[k]);
            row.value.push_back(coeffs[k]);
        }
    }
    constraints_.push_back(std::move(row));
}

void
LpProblem::addBound(int64_t var, Relation rel, double rhs)
{
    ST_ASSERT(var >= 0 && var < num_vars_, "bound var range");
    SparseRow row;
    row.index.push_back(var);
    row.value.push_back(1.0);
    row.rel = rel;
    row.rhs = rhs;
    constraints_.push_back(std::move(row));
}

void
LpProblem::popConstraint()
{
    ST_CHECK(!constraints_.empty(), "no constraint to pop");
    constraints_.pop_back();
}

const SparseRow &
LpProblem::constraint(int64_t i) const
{
    ST_ASSERT(i >= 0 && i < numConstraints(),
              "constraint id out of range");
    return constraints_[i];
}

LpSolution
solveLp(const LpProblem &problem, const LpOptions &options)
{
    LpSolution solution;
    if (options.warm_start && !options.warm_start->empty()) {
        Tableau tab(problem);
        if (tab.installWarmBasis(*options.warm_start)) {
            switch (tab.phase2(problem.objective())) {
              case Tableau::Phase2Result::Optimal:
                return finishOptimal(problem, tab);
              case Tableau::Phase2Result::Unbounded:
                solution.status = LpStatus::Unbounded;
                solution.pivots = tab.pivots();
                return solution;
              case Tableau::Phase2Result::Infeasible:
                solution.status = LpStatus::Infeasible;
                solution.pivots = tab.pivots();
                return solution;
              case Tableau::Phase2Result::NeedCold:
                break; // fall through to the cold solve
            }
        }
        // Unclean install: discard the mutated tableau and start
        // over; crash pivots may have left rhs unusable for a
        // primal phase 1.
    }

    // Inequality-only problems with a non-negative objective start
    // dual feasible from the all-slack basis: skip phase 1 (and
    // its artificial columns) entirely and let phase 2's dual
    // repair drive out any negative rhs.
    bool dual_start = true;
    for (const SparseRow &c : problem.constraints()) {
        if (c.rel == Relation::EQ) {
            dual_start = false;
            break;
        }
    }
    if (dual_start) {
        for (double c : problem.objective()) {
            if (c < 0.0) {
                dual_start = false;
                break;
            }
        }
    }
    if (dual_start) {
        Tableau tab(problem, /*dual_start=*/true);
        switch (tab.phase2(problem.objective())) {
          case Tableau::Phase2Result::Optimal:
            return finishOptimal(problem, tab);
          case Tableau::Phase2Result::Unbounded:
            solution.status = LpStatus::Unbounded;
            solution.pivots = tab.pivots();
            return solution;
          case Tableau::Phase2Result::Infeasible:
            solution.status = LpStatus::Infeasible;
            solution.pivots = tab.pivots();
            return solution;
          case Tableau::Phase2Result::NeedCold:
            break; // dual repair stalled; use the classic path
        }
    }

    Tableau tab(problem);
    if (!tab.phase1()) {
        solution.status = LpStatus::Infeasible;
        solution.pivots = tab.pivots();
        return solution;
    }
    switch (tab.phase2(problem.objective())) {
      case Tableau::Phase2Result::Optimal:
        return finishOptimal(problem, tab);
      case Tableau::Phase2Result::Unbounded:
        solution.status = LpStatus::Unbounded;
        break;
      case Tableau::Phase2Result::Infeasible:
        solution.status = LpStatus::Infeasible;
        break;
      case Tableau::Phase2Result::NeedCold:
        // Phase 1 left a primal-feasible basis, so this indicates
        // numerical trouble; report infeasible loudly rather than
        // return a wrong optimum.
        warn("solveLp: post-phase-1 dual repair failed; "
             "reporting infeasible");
        solution.status = LpStatus::Infeasible;
        break;
    }
    solution.pivots = tab.pivots();
    return solution;
}

} // namespace solver
} // namespace streamtensor
