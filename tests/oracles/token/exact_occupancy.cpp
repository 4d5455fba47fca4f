#include "token/exact_occupancy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.h"

namespace streamtensor {
namespace token {

TokenCurve::TokenCurve(double start, const KernelProfile &profile,
                       int64_t total)
    : start_(start), delay_(profile.initial_delay), ii_(profile.ii),
      total_(total)
{
    ST_CHECK(total_ >= 0, "token total must be >= 0");
    ST_CHECK(ii_ > 0, "II must be positive");
}

int64_t
TokenCurve::countAt(double t) const
{
    double first = start_ + delay_;
    if (t < first - 1e-12)
        return 0;
    int64_t k = static_cast<int64_t>(
                    std::floor((t - first) / ii_ + 1e-9)) + 1;
    return std::min(k, total_);
}

double
TokenCurve::timeOfToken(int64_t k) const
{
    ST_ASSERT(k >= 1 && k <= total_, "token index out of range");
    return start_ + delay_ + (k - 1) * ii_;
}

double
TokenCurve::finishTime() const
{
    if (total_ == 0)
        return start_ + delay_;
    return timeOfToken(total_);
}

int64_t
maxOccupancyExact(const KernelProfile &source,
                  const KernelProfile &target, double delay,
                  int64_t tokens)
{
    ST_CHECK(tokens >= 0, "token count must be >= 0");
    if (tokens == 0)
        return 0;
    TokenCurve produced(0.0, source, tokens);

    // Pull times: the target's k-th pull happens at the later of
    // (a) its own schedule (start + D + (k-1)*II, pushed back by
    // earlier starvation) and (b) the token's production time.
    int64_t max_occ = 0;
    double prev_pull = -std::numeric_limits<double>::infinity();
    double schedule = delay + target.initial_delay;
    for (int64_t k = 1; k <= tokens; ++k) {
        double ready = produced.timeOfToken(k);
        double pull = std::max(schedule, ready);
        if (prev_pull > -std::numeric_limits<double>::infinity())
            pull = std::max(pull, prev_pull + target.ii);
        prev_pull = pull;
        // Occupancy just before this pull: tokens produced strictly
        // before `pull` minus the k-1 already pulled. A token
        // produced exactly at the pull instant passes through.
        int64_t avail = produced.countAt(pull - 1e-9);
        max_occ = std::max(max_occ, avail - (k - 1));
    }
    return std::max<int64_t>(max_occ, 1);
}

} // namespace token
} // namespace streamtensor
