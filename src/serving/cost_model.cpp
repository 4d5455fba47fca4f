#include "serving/cost_model.h"

namespace streamtensor {
namespace serving {

double
ExecutorCostModel::stepMs(
    const std::vector<runtime::StepGroup> &groups)
{
    runtime::StepResult step = executor_.step(groups);
    saw_deadlock_ = saw_deadlock_ || step.deadlock;
    return step.step_ms;
}

double
AnalyticCostModel::stepMs(
    const std::vector<runtime::StepGroup> &groups)
{
    double ms = 0.0;
    for (const auto &g : groups) {
        double per_seq =
            options_.per_seq_ms +
            options_.per_query_token_ms *
                static_cast<double>(g.shapes.seq_len) +
            options_.per_kv_token_ms *
                static_cast<double>(g.shapes.kv_len);
        ms += options_.trigger_ms +
              static_cast<double>(g.count) * per_seq;
    }
    return ms;
}

} // namespace serving
} // namespace streamtensor
