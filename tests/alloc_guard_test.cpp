/** @file Allocation guard for the warm serving step. This suite
 *  replaces the global operator new with a counting one, so it
 *  lives in its own executable: once every shape is compiled, a
 *  step is arithmetic over cached CompiledBlock values and must not
 *  touch the heap. A map or vector creeping back into
 *  LlmExecutor::step (or the ExecutorCostModel wrapper the serving
 *  engine calls), a cached block() lookup, the bucket ladder
 *  lookup, a replica launch that reuses the previous step's cost,
 *  or the fleet's catch-up through a decode run fails here. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "models/block_builder.h"
#include "models/bucketing.h"
#include "runtime/executor.h"
#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/replica.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void *
countedAlloc(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
// The nothrow forms too (std::stable_sort's temporary buffer): left to
// the runtime, they would pair its allocator with the free() below.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return operator new(size, tag);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept { std::free(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

using namespace streamtensor;

namespace {

/** Heap allocations made while running @p fn. */
template <typename Fn>
int64_t
allocationsDuring(Fn &&fn)
{
    int64_t before = g_allocations.load();
    fn();
    return g_allocations.load() - before;
}

/** n groups over four shapes, unsorted and with duplicates from
 *  n = 5 on, so the merge does real work. */
std::vector<runtime::StepGroup>
stepGroups(int n)
{
    const models::BlockShapes shapes[] = {
        models::prefillShapes(64), models::decodeShapes(96),
        models::prefillShapes(32), models::decodeShapes(48)};
    std::vector<runtime::StepGroup> groups;
    for (int i = 0; i < n; ++i)
        groups.push_back({shapes[i % 4], i + 1});
    return groups;
}

/** Analytic costs, counting the calls. */
class CountingCostModel : public serving::StepCostModel
{
  public:
    double
    stepMs(const std::vector<runtime::StepGroup> &groups) override
    {
        ++calls;
        return analytic_.stepMs(groups);
    }

    int64_t calls = 0;

  private:
    serving::AnalyticCostModel analytic_;
};

serving::Request
request(int64_t input_len, int64_t output_len)
{
    serving::Request r;
    r.id = 1;
    r.input_len = input_len;
    r.output_len = output_len;
    return r;
}

} // namespace

TEST(AllocGuard, CounterSeesHeapAllocations)
{
    // A direct operator new call (unlike a new-expression) cannot
    // be elided, so the counter must see exactly one allocation.
    EXPECT_EQ(allocationsDuring([] {
                  ::operator delete(::operator new(16));
              }),
              1);
}

TEST(AllocGuard, WarmStepAllocatesNothing)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    serving::ExecutorCostModel cost(executor);
    (void)executor.step(stepGroups(8)); // compile every shape

    for (int n = 1; n <= 8; ++n) {
        const std::vector<runtime::StepGroup> groups = stepGroups(n);
        runtime::StepResult result;
        int64_t executor_allocs =
            allocationsDuring([&] { result = executor.step(groups); });
        double ms = 0.0;
        int64_t oracle_allocs =
            allocationsDuring([&] { ms = cost.stepMs(groups); });
        EXPECT_EQ(executor_allocs, 0) << n << " groups";
        EXPECT_EQ(oracle_allocs, 0) << n << " groups";
        EXPECT_GT(result.step_ms, 0.0);
        EXPECT_EQ(ms, result.step_ms);
    }
    EXPECT_EQ(executor.compileCount(), 4);
}

TEST(AllocGuard, WarmBlockHitAllocatesNothing)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    const models::BlockShapes shapes[] = {models::decodeShapes(48),
                                          models::prefillShapes(32)};
    const runtime::CompiledBlock *first[2] = {
        &executor.block(shapes[0]), &executor.block(shapes[1])};
    const runtime::CompiledBlock *hit[2] = {nullptr, nullptr};
    EXPECT_EQ(allocationsDuring([&] {
                  for (int i = 0; i < 2; ++i)
                      hit[i] = &executor.block(shapes[i]);
              }),
              0);
    EXPECT_EQ(hit[0], first[0]);
    EXPECT_EQ(hit[1], first[1]);
    EXPECT_EQ(executor.compileCount(), 2);

    models::BucketPolicy policy;
    const std::vector<int64_t> ladder =
        models::bucketBoundaries(policy);
    int64_t sum = 0;
    EXPECT_EQ(allocationsDuring([&] {
                  for (int64_t len = 1; len <= policy.max_len; ++len)
                      sum += models::bucketIn(ladder, len);
              }),
              0);
    EXPECT_GE(sum, policy.max_len * (policy.max_len + 1) / 2);
}

TEST(AllocGuard, RepeatedLaunchReusesCostWithoutAllocating)
{
    CountingCostModel cost;
    serving::ReplicaEngine engine(serving::ReplicaOptions{}, cost);
    engine.offer(request(8, 16), 0);
    // The prefill and the first decode are costed afresh.
    serving::SimTime now = 0;
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(engine.launchStep(now));
        now = engine.stepEnd();
        engine.completeDue(now);
    }
    ASSERT_EQ(cost.calls, 2);
    ASSERT_TRUE(engine.launchStep(now));

    // Contexts 10..15 stay in bucket 16 and the first page: every
    // launch repeats the last one, reuses its cost, and ends where
    // a planned run of one said it would.
    for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(engine.planRun(1), 1);
        serving::SimTime predicted_end = engine.wakeAt();
        bool launched = false;
        EXPECT_EQ(allocationsDuring([&] {
                      now = engine.stepEnd();
                      engine.completeDue(now);
                      launched = engine.launchStep(now);
                  }),
                  0)
            << "repeat " << i;
        ASSERT_TRUE(launched);
        EXPECT_EQ(engine.stepEnd(), predicted_end);
    }
    EXPECT_EQ(cost.calls, 2);
}

TEST(AllocGuard, DecodeRunCatchUpAllocatesNothing)
{
    // Input 40 sits in bucket 48 and three 16-token pages, so every
    // decode of a request with at most 9 output tokens repeats the
    // first one. Phase 1 catches up through the whole run at its
    // last step's end: two runs that differ only in how many steps
    // it catches up through take the same rounds and must allocate
    // the same.
    auto serve = [](int64_t output_len) {
        serving::FleetOptions options;
        options.num_replicas = 1;
        CountingCostModel cost;
        serving::FleetScheduler fleet(options, cost);
        std::vector<serving::Request> trace = {request(40, output_len)};
        serving::FleetResult result;
        int64_t allocs = allocationsDuring(
            [&] { result = fleet.run(std::move(trace)); });
        EXPECT_EQ(result.metrics.completed, 1);
        EXPECT_EQ(result.metrics.steps, output_len);
        EXPECT_EQ(result.rounds, 3);
        EXPECT_EQ(cost.calls, 2);
        return allocs;
    };
    EXPECT_EQ(serve(4), serve(9));
}
