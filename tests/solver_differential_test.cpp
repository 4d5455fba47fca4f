/**
 * @file
 * Randomized differential tests: the sparse simplex (solver/lp.h)
 * against the retained dense reference implementation
 * (solver/dense_reference.h), warm-start-vs-cold equivalence for
 * solveLp, and solveIlp against exhaustive enumeration
 * (solver/enumerate_ilp.h).
 *
 * Instances mix LE/GE/EQ relations, negative right-hand sides,
 * duplicated rows (degenerate ties), and duplicate variable
 * mentions in sparse rows. The two solvers may visit different
 * bases, so only status and objective are compared (the optimum
 * value is unique; the argmin need not be).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "solver/dense_reference.h"
#include "solver/enumerate_ilp.h"
#include "solver/ilp.h"
#include "solver/lp.h"

using namespace streamtensor::solver;

namespace {

class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed ? seed : 1) {}

    uint64_t
    next()
    {
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        return state_ * 0x2545f4914f6cdd1dull;
    }

    /** Uniform in [0, bound). */
    int64_t pick(int64_t bound) { return next() % bound; }

  private:
    uint64_t state_;
};

Relation
pickRelation(Rng &rng)
{
    switch (rng.pick(4)) {
      case 0: return Relation::EQ;
      case 1: return Relation::LE;
      default: return Relation::GE;
    }
}

/** Random LP with mixed relations, negative rhs, repeated rows
 *  (degenerate ties), and duplicate sparse mentions. */
LpProblem
randomLp(Rng &rng)
{
    int64_t n = 2 + rng.pick(12);
    int64_t m = 1 + rng.pick(20);
    LpProblem lp(n);
    for (int64_t j = 0; j < n; ++j)
        lp.setObjective(j, static_cast<double>(1 + rng.pick(5)));

    std::vector<int64_t> prev_vars;
    std::vector<double> prev_coeffs;
    Relation prev_rel = Relation::GE;
    double prev_rhs = 0.0;
    for (int64_t i = 0; i < m; ++i) {
        if (i > 0 && rng.pick(5) == 0) {
            // Duplicate the previous row verbatim: degenerate ties
            // that exercise the Bland fallback.
            lp.addSparseConstraint(prev_vars, prev_coeffs, prev_rel,
                                   prev_rhs);
            continue;
        }
        int64_t k = 1 + rng.pick(std::min<int64_t>(n, 6));
        std::vector<int64_t> vars;
        std::vector<double> coeffs;
        for (int64_t t = 0; t < k; ++t) {
            vars.push_back(rng.pick(n)); // collisions intended
            coeffs.push_back(
                static_cast<double>(rng.pick(7)) - 3.0);
        }
        Relation rel = pickRelation(rng);
        // Mostly small rhs straddling zero; GE rows biased low to
        // keep a healthy share of feasible instances.
        double rhs = static_cast<double>(rng.pick(41)) - 10.0;
        if (rel == Relation::GE && rng.pick(2))
            rhs = -std::fabs(rhs);
        lp.addSparseConstraint(vars, coeffs, rel, rhs);
        prev_vars = std::move(vars);
        prev_coeffs = std::move(coeffs);
        prev_rel = rel;
        prev_rhs = rhs;
    }
    return lp;
}

void
expectFeasible(const LpProblem &lp, const LpSolution &sol)
{
    for (const auto &c : lp.constraints()) {
        double lhs = c.dot(sol.values);
        double tol = 1e-5 * (1.0 + std::fabs(c.rhs));
        switch (c.rel) {
          case Relation::LE: EXPECT_LE(lhs, c.rhs + tol); break;
          case Relation::GE: EXPECT_GE(lhs, c.rhs - tol); break;
          case Relation::EQ: EXPECT_NEAR(lhs, c.rhs, tol); break;
        }
    }
    for (double v : sol.values)
        EXPECT_GE(v, -1e-7);
}

} // namespace

class SparseVsDense : public ::testing::TestWithParam<int>
{};

TEST_P(SparseVsDense, IdenticalStatusAndObjective)
{
    Rng rng(0xd1ffe000 + GetParam());
    LpProblem lp = randomLp(rng);
    LpSolution sparse = solveLp(lp);
    LpSolution dense = solveLpDenseReference(lp);
    ASSERT_EQ(sparse.status, dense.status)
        << "sparse=" << lpStatusName(sparse.status)
        << " dense=" << lpStatusName(dense.status);
    if (sparse.optimal()) {
        EXPECT_NEAR(sparse.objective, dense.objective,
                    1e-6 * (1.0 + std::fabs(dense.objective)));
        expectFeasible(lp, sparse);
        expectFeasible(lp, dense);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseVsDense,
                         ::testing::Range(0, 200));

class WarmVsColdLp : public ::testing::TestWithParam<int>
{};

TEST_P(WarmVsColdLp, BoundAppendedResolveMatches)
{
    Rng rng(0xaa00 + GetParam());
    LpProblem lp = randomLp(rng);
    LpSolution first = solveLp(lp);
    if (!first.optimal())
        return; // warm starts only arise from an optimal parent.

    // Append a branching-style bound near an optimal value, the
    // exact shape solveIlp generates.
    int64_t var = rng.pick(lp.numVars());
    double v = first.values[var];
    if (rng.pick(2))
        lp.addBound(var, Relation::LE, std::floor(v));
    else
        lp.addBound(var, Relation::GE, std::ceil(v) + 1.0);

    LpOptions warm;
    warm.warm_start = &first.basis;
    LpSolution warmed = solveLp(lp, warm);
    LpSolution cold = solveLp(lp);
    ASSERT_EQ(warmed.status, cold.status)
        << "warm=" << lpStatusName(warmed.status)
        << " cold=" << lpStatusName(cold.status);
    if (cold.optimal()) {
        EXPECT_NEAR(warmed.objective, cold.objective,
                    1e-6 * (1.0 + std::fabs(cold.objective)));
        expectFeasible(lp, warmed);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmVsColdLp,
                         ::testing::Range(0, 100));

namespace {

/** Random bounded ILP: knapsack-like rows over binaries plus a few
 *  general integers with explicit upper bounds — at most 7
 *  variables of at most 8 values each, small enough to enumerate.
 *  A witness point drawn in the box satisfies every row: a GE
 *  right-hand side is clamped down to the row's activity there and
 *  an LE one up to it, so every draw is feasible and compares an
 *  optimum. */
IlpProblem
randomIlp(Rng &rng)
{
    int64_t n = 2 + rng.pick(6);
    IlpProblem ilp(n);
    std::vector<int64_t> witness(n);
    for (int64_t j = 0; j < n; ++j) {
        ilp.lp().setObjective(
            j, static_cast<double>(rng.pick(9)) - 4.0);
        int64_t upper = 1;
        if (rng.pick(3)) {
            ilp.setBinary(j);
        } else {
            ilp.setInteger(j);
            upper = 2 + rng.pick(6);
            ilp.setUpperBound(j, static_cast<double>(upper));
        }
        witness[j] = rng.pick(upper + 1);
    }
    int64_t m = 1 + rng.pick(4);
    for (int64_t i = 0; i < m; ++i) {
        std::vector<int64_t> vars;
        std::vector<double> coeffs;
        int64_t activity = 0; // at the witness
        for (int64_t j = 0; j < n; ++j) {
            if (rng.pick(2))
                continue;
            int64_t coeff = 1 + rng.pick(3);
            vars.push_back(j);
            coeffs.push_back(static_cast<double>(coeff));
            activity += coeff * witness[j];
        }
        if (vars.empty()) {
            int64_t j = rng.pick(n);
            vars.push_back(j);
            coeffs.push_back(1.0);
            activity = witness[j];
        }
        Relation rel = rng.pick(2) ? Relation::LE : Relation::GE;
        int64_t rhs = rng.pick(10);
        rhs = rel == Relation::GE ? std::min(rhs, activity)
                                  : std::max(rhs, activity);
        ilp.lp().addSparseConstraint(vars, coeffs, rel,
                                     static_cast<double>(rhs));
    }
    return ilp;
}

} // namespace

class IlpVsEnumeration : public ::testing::TestWithParam<int>
{};

TEST_P(IlpVsEnumeration, SameOptimum)
{
    Rng rng(0x11b0 + GetParam());
    IlpProblem ilp = randomIlp(rng);

    IlpSolution bnb = solveIlp(ilp);
    IlpSolution exact = solveIlpByEnumeration(ilp);
    ASSERT_EQ(bnb.status, exact.status)
        << "branch-and-bound=" << lpStatusName(bnb.status)
        << " enumeration=" << lpStatusName(exact.status);
    // Every seed compares an objective.
    ASSERT_TRUE(exact.optimal()) << lpStatusName(exact.status);
    EXPECT_NEAR(bnb.objective, exact.objective,
                1e-6 * (1.0 + std::fabs(exact.objective)));
    // Integrality of the branch-and-bound answer.
    const auto &ints = ilp.integerVars();
    for (int64_t j = 0; j < ilp.numVars(); ++j) {
        if (!ints[j])
            continue;
        EXPECT_NEAR(bnb.values[j], std::round(bnb.values[j]), 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlpVsEnumeration,
                         ::testing::Range(0, 60));

TEST(SparseVsDenseFixed, DegenerateTieStack)
{
    // 30 copies of the same GE row plus its EQ twin: maximal
    // degeneracy, both solvers must agree and terminate.
    LpProblem lp(4);
    for (int j = 0; j < 4; ++j)
        lp.setObjective(j, 1.0);
    for (int i = 0; i < 30; ++i)
        lp.addSparseConstraint({0, 1, 2, 3}, {1.0, 1.0, 1.0, 1.0},
                               Relation::GE, 8.0);
    lp.addSparseConstraint({0, 1, 2, 3}, {1.0, 1.0, 1.0, 1.0},
                           Relation::EQ, 8.0);
    auto sparse = solveLp(lp);
    auto dense = solveLpDenseReference(lp);
    ASSERT_TRUE(sparse.optimal());
    ASSERT_TRUE(dense.optimal());
    EXPECT_NEAR(sparse.objective, dense.objective, 1e-6);
    EXPECT_NEAR(sparse.objective, 8.0, 1e-6);
}

TEST(SparseVsDenseFixed, NegativeRhsEquality)
{
    // -x0 - x1 == -6 with minimisation: normalisation must flip
    // signs identically in both solvers.
    LpProblem lp(2);
    lp.setObjective(0, 2.0);
    lp.setObjective(1, 3.0);
    lp.addSparseConstraint({0, 1}, {-1.0, -1.0}, Relation::EQ,
                           -6.0);
    auto sparse = solveLp(lp);
    auto dense = solveLpDenseReference(lp);
    ASSERT_TRUE(sparse.optimal());
    ASSERT_TRUE(dense.optimal());
    EXPECT_NEAR(sparse.objective, dense.objective, 1e-6);
    EXPECT_NEAR(sparse.objective, 12.0, 1e-6); // all weight on x0
}

