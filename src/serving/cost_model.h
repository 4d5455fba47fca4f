/**
 * @file
 * Step-cost oracles for the scheduler. ExecutorCostModel is the
 * real thing: each step's cost comes from the PR-3 cycle-accurate
 * simulator through runtime::LlmExecutor's compiled-block cache
 * (bucketing keeps the set of shapes — and therefore compiles —
 * small). AnalyticCostModel is a closed-form stand-in for the
 * deterministic replay/property suites, where thousands of
 * scheduler runs must cost microseconds, not compiles.
 */

#ifndef STREAMTENSOR_SERVING_COST_MODEL_H
#define STREAMTENSOR_SERVING_COST_MODEL_H

#include <vector>

#include "runtime/executor.h"

namespace streamtensor {
namespace serving {

/** Cost oracle for one engine step. Implementations must be
 *  deterministic pure functions of the shape groups (the replay
 *  suite depends on it) and must return a strictly positive
 *  cost so simulated time advances. */
class StepCostModel
{
  public:
    virtual ~StepCostModel() = default;

    /** Cost in milliseconds of one full model pass over the given
     *  shape groups. */
    virtual double
    stepMs(const std::vector<runtime::StepGroup> &groups) = 0;
};

/** Per-step costs from the compiled + simulated blocks of an
 *  executor (runtime::LlmExecutor::step). */
class ExecutorCostModel : public StepCostModel
{
  public:
    /** @p executor must outlive the model. */
    explicit ExecutorCostModel(runtime::LlmExecutor &executor)
        : executor_(executor)
    {}

    double
    stepMs(const std::vector<runtime::StepGroup> &groups) override;

    /** True once any costed block deadlocked or timed out. */
    bool sawDeadlock() const { return saw_deadlock_; }

  private:
    runtime::LlmExecutor &executor_;
    bool saw_deadlock_ = false;
};

/** Closed-form linear cost: per-step trigger cost per shape group
 *  plus per-sequence and per-token terms. Used by the scheduler
 *  test harness — trivially deterministic, hand-computable in
 *  replay assertions, and monotone in batch and shape size. */
struct AnalyticCostOptions
{
    double trigger_ms = 0.25;   ///< per shape group
    double per_seq_ms = 0.5;    ///< per batched sequence
    double per_query_token_ms = 0.02; ///< × shapes.seq_len
    double per_kv_token_ms = 0.005;   ///< × shapes.kv_len
};

class AnalyticCostModel : public StepCostModel
{
  public:
    explicit AnalyticCostModel(AnalyticCostOptions options = {})
        : options_(options)
    {}

    double
    stepMs(const std::vector<runtime::StepGroup> &groups) override;

  private:
    AnalyticCostOptions options_;
};

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_COST_MODEL_H
