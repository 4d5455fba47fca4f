#include "token/token_model.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace streamtensor {
namespace token {

double
KernelProfile::latency(int64_t tokens) const
{
    ST_ASSERT(tokens >= 1, "latency needs >= 1 tokens");
    return initial_delay + (tokens - 1) * ii;
}

int64_t
maxTokensClosedForm(const KernelProfile &source,
                    const KernelProfile &target, double delay,
                    int64_t tokens)
{
    ST_CHECK(tokens >= 0, "token count must be >= 0");
    if (tokens == 0)
        return 0;
    double l = source.latency(tokens);
    int64_t result;
    if (source.ii < target.ii) {
        // Eq. 1: source throughput greater than target's. Tokens
        // the target manages to drain while the source is still
        // producing reduce the peak.
        double drained = std::floor((l - delay) / target.ii);
        result = tokens -
                 static_cast<int64_t>(std::max(0.0, drained));
    } else {
        // Eq. 2: source is the bottleneck; the FIFO only holds the
        // head start accumulated before the target begins.
        double head = std::ceil((delay - source.initial_delay) /
                                source.ii);
        result = static_cast<int64_t>(std::max(0.0, head));
    }
    result = std::min<int64_t>(result, tokens);
    return std::max<int64_t>(result, 1);
}

std::string
equalizationName(Equalization strategy)
{
    switch (strategy) {
      case Equalization::Normal: return "normal";
      case Equalization::Conservative: return "conservative";
    }
    ST_PANIC("unknown Equalization");
}

} // namespace token
} // namespace streamtensor
