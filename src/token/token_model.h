/**
 * @file
 * Piecewise-linear token production/consumption model
 * (paper §5.3.1-5.3.3, Fig. 8).
 *
 * A kernel that streams T tokens is characterised by its initial
 * delay D (cycles from execution start to the first output token)
 * and its pipeline II (cycles between consecutive tokens). The
 * cumulative token count over time is then a clamped staircase
 * that the paper models as a piecewise linear function. The
 * maximum occupancy of the FIFO between a Source and a Target
 * follows analytically from the two curves and the `delay` between
 * their execution starts (Eq. 1 and Eq. 2). The token-by-token
 * recurrence those closed forms are checked against is a
 * test-only oracle under tests/oracles/token/.
 */

#ifndef STREAMTENSOR_TOKEN_TOKEN_MODEL_H
#define STREAMTENSOR_TOKEN_TOKEN_MODEL_H

#include <cstdint>
#include <string>

namespace streamtensor {
namespace token {

/** Profiled streaming behaviour of one kernel (from hls model). */
struct KernelProfile
{
    /** Cycles from execution start to the first output token (D). */
    double initial_delay = 0.0;

    /** Cycles between consecutive tokens (pipeline II). */
    double ii = 1.0;

    /** Latency L of a full execution producing @p tokens tokens:
     *  L = D + (T - 1) * II. */
    double latency(int64_t tokens) const;
};

/**
 * Paper closed forms. When the source throughput exceeds the
 * target's (II_src < II_tgt), Eq. 1 applies:
 *   max_tokens = min(T, T - floor((L - delay) / II_tgt))
 * otherwise Eq. 2:
 *   max_tokens = min(T, ceil((delay - D) / II_src))
 * The result is clamped to >= 1 (a FIFO always holds one token in
 * flight).
 */
int64_t maxTokensClosedForm(const KernelProfile &source,
                            const KernelProfile &target, double delay,
                            int64_t tokens);

/** FIFO-depth equalization strategies (paper §5.3.3). */
enum class Equalization {
    /** Kernels run at their profiled throughput. */
    Normal,
    /** All IIs scaled up to the slowest kernel's throughput,
     *  minimising FIFO sizes at a possible latency cost. */
    Conservative,
};

/** Printable name. */
std::string equalizationName(Equalization strategy);

} // namespace token
} // namespace streamtensor

#endif // STREAMTENSOR_TOKEN_TOKEN_MODEL_H
