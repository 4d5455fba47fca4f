/**
 * @file
 * Exhaustive-enumeration ILP oracle: tries every integer point of
 * a small box and keeps the cheapest feasible one. Exponential in
 * the variable count, so only for the tiny instances the
 * differential suite draws; it shares no code with the
 * branch-and-bound in solver/ilp.h. Not used on any compile path.
 */

#ifndef STREAMTENSOR_SOLVER_ENUMERATE_ILP_H
#define STREAMTENSOR_SOLVER_ENUMERATE_ILP_H

#include "solver/ilp.h"

namespace streamtensor {
namespace solver {

/** Solve @p problem by enumerating every integer point. Each
 *  variable must be integer and boxed by a single-variable `<=`
 *  row (setBinary / setUpperBound); its box is [0, the tightest
 *  such bound]. Returns Optimal with the lowest objective over the
 *  feasible points, or Infeasible when there are none.
 *  `nodes_explored` counts the points tried. */
IlpSolution solveIlpByEnumeration(const IlpProblem &problem);

} // namespace solver
} // namespace streamtensor

#endif // STREAMTENSOR_SOLVER_ENUMERATE_ILP_H
