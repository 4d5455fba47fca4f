/**
 * @file
 * Exact token-by-token FIFO occupancy (paper Fig. 8), retained as
 * the oracle the closed forms of token/token_model.h (Eq. 1 and
 * Eq. 2) are tested against. FIFO sizing derives every depth from
 * the closed forms; nothing on a compile path calls this.
 */

#ifndef STREAMTENSOR_TOKEN_EXACT_OCCUPANCY_H
#define STREAMTENSOR_TOKEN_EXACT_OCCUPANCY_H

#include <cstdint>

#include "token/token_model.h"

namespace streamtensor {
namespace token {

/**
 * Cumulative token-count curve: the number of tokens that have
 * crossed a point by time t, given the producing kernel starts at
 * @p start and emits @p total tokens.
 */
class TokenCurve
{
  public:
    TokenCurve(double start, const KernelProfile &profile,
               int64_t total);

    /** Tokens produced by (inclusive) time @p t. */
    int64_t countAt(double t) const;

    /** Time at which the k-th token (1-based) is produced. */
    double timeOfToken(int64_t k) const;

    /** Time the last token is produced. */
    double finishTime() const;

    double start() const { return start_; }
    double ii() const { return ii_; }
    int64_t total() const { return total_; }

  private:
    double start_;
    double delay_;
    double ii_;
    int64_t total_;
};

/**
 * Exact maximum FIFO occupancy between a source kernel (starting
 * at time 0) and a target kernel (starting at time @p delay),
 * connected by a FIFO carrying @p tokens tokens. The target pulls
 * its k-th token no earlier than the source pushed it and no
 * faster than its own II allows; this token-by-token recurrence
 * reproduces Fig. 8(a) exactly, including target starvation
 * (Fig. 8(e)).
 */
int64_t maxOccupancyExact(const KernelProfile &source,
                          const KernelProfile &target, double delay,
                          int64_t tokens);

} // namespace token
} // namespace streamtensor

#endif // STREAMTENSOR_TOKEN_EXACT_OCCUPANCY_H
