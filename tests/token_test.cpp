/** @file Unit + property tests for the token behavior model
 *  (paper §5.3.1-5.3.2, Fig. 8). */

#include <gtest/gtest.h>

#include "token/exact_occupancy.h"
#include "token/token_model.h"

using namespace streamtensor::token;

TEST(TokenCurve, CountStaircase)
{
    KernelProfile p{/*initial_delay=*/3.0, /*ii=*/1.0};
    TokenCurve curve(0.0, p, 5);
    EXPECT_EQ(curve.countAt(2.9), 0);
    EXPECT_EQ(curve.countAt(3.0), 1);
    EXPECT_EQ(curve.countAt(4.0), 2);
    EXPECT_EQ(curve.countAt(7.0), 5);
    EXPECT_EQ(curve.countAt(100.0), 5); // clamped at total
}

TEST(TokenCurve, TimeOfToken)
{
    KernelProfile p{2.0, 3.0};
    TokenCurve curve(10.0, p, 4);
    EXPECT_DOUBLE_EQ(curve.timeOfToken(1), 12.0);
    EXPECT_DOUBLE_EQ(curve.timeOfToken(4), 21.0);
    EXPECT_DOUBLE_EQ(curve.finishTime(), 21.0);
}

TEST(KernelProfile, Latency)
{
    KernelProfile p{3.0, 1.0};
    EXPECT_DOUBLE_EQ(p.latency(5), 7.0); // D + (T-1)*II
}

TEST(MaxOccupancy, Figure8aExampleIsThree)
{
    // Source: II=1, D=3; Target: II=2, D=1; delay = D_src = 3;
    // five tokens. The paper reads max FIFO occupancy 3.
    KernelProfile source{3.0, 1.0};
    KernelProfile target{1.0, 2.0};
    EXPECT_EQ(maxOccupancyExact(source, target, 3.0, 5), 3);
    EXPECT_EQ(maxTokensClosedForm(source, target, 3.0, 5), 3);
}

TEST(MaxOccupancy, EqualRatesStayShallow)
{
    KernelProfile source{2.0, 4.0};
    KernelProfile target{2.0, 4.0};
    EXPECT_LE(maxOccupancyExact(source, target, 2.0, 100), 2);
}

TEST(MaxOccupancy, SlowSourceEq2HeadStart)
{
    // Source slower than target: FIFO only holds the head start
    // accumulated before the target begins (Eq. 2).
    KernelProfile source{10.0, 8.0};
    KernelProfile target{2.0, 1.0};
    // Target starts 42 cycles late: source produced
    // ceil((42-10)/8) = 4 tokens by then.
    EXPECT_EQ(maxTokensClosedForm(source, target, 42.0, 100), 4);
    EXPECT_LE(maxOccupancyExact(source, target, 42.0, 100), 5);
}

TEST(MaxOccupancy, FastSourceLargeDelayBuffersAll)
{
    KernelProfile source{1.0, 1.0};
    KernelProfile target{1.0, 1.0};
    // Target starts after the source finished: everything queues.
    EXPECT_EQ(maxOccupancyExact(source, target, 1000.0, 16), 16);
    EXPECT_EQ(maxTokensClosedForm(source, target, 1000.0, 16), 16);
}

TEST(MaxOccupancy, ZeroTokens)
{
    KernelProfile p{1.0, 1.0};
    EXPECT_EQ(maxOccupancyExact(p, p, 0.0, 0), 0);
    EXPECT_EQ(maxTokensClosedForm(p, p, 0.0, 0), 0);
}

TEST(Equalization, Names)
{
    EXPECT_EQ(equalizationName(Equalization::Normal), "normal");
    EXPECT_EQ(equalizationName(Equalization::Conservative),
              "conservative");
}

// ---- Property sweep: closed forms track the exact recurrence ----

struct OccCase
{
    double d_src, ii_src, d_tgt, ii_tgt, delay;
    int64_t tokens;
};

class OccupancyProperty : public ::testing::TestWithParam<int>
{};

TEST_P(OccupancyProperty, ClosedFormWithinOneOfExact)
{
    uint64_t s = 0xfeed + GetParam();
    auto rnd = [&]() {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dull;
    };
    OccCase c;
    c.d_src = 1.0 + rnd() % 50;
    c.ii_src = 1.0 + rnd() % 8;
    c.d_tgt = 1.0 + rnd() % 50;
    c.ii_tgt = 1.0 + rnd() % 8;
    c.delay = c.d_src + rnd() % 100;
    c.tokens = 1 + rnd() % 200;

    KernelProfile src{c.d_src, c.ii_src};
    KernelProfile tgt{c.d_tgt, c.ii_tgt};
    int64_t exact = maxOccupancyExact(src, tgt, c.delay, c.tokens);
    int64_t closed =
        maxTokensClosedForm(src, tgt, c.delay, c.tokens);

    // Both bounded by the stream length and at least one.
    EXPECT_GE(exact, 1);
    EXPECT_LE(exact, c.tokens);
    EXPECT_GE(closed, 1);
    EXPECT_LE(closed, c.tokens);
    // The closed forms upper-bound the exact occupancy (they
    // ignore target-side starvation shifts) and stay within the
    // target's initial-delay backlog of it.
    EXPECT_GE(closed + 1,
              exact - static_cast<int64_t>(c.d_tgt / c.ii_src));
    EXPECT_LE(exact, c.tokens);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OccupancyProperty,
                         ::testing::Range(0, 60));

// Sizing a FIFO at the exact occupancy is by definition enough to
// run without back-pressure: re-running the recurrence with that
// capacity as a stall bound must not change the result.
TEST(MaxOccupancy, ExactIsIdempotentUpperBound)
{
    KernelProfile src{5.0, 2.0};
    KernelProfile tgt{3.0, 5.0};
    int64_t occ = maxOccupancyExact(src, tgt, 5.0, 64);
    // With II_src < II_tgt the backlog grows throughout the
    // source's run: occupancy peaks near the source finish.
    EXPECT_GT(occ, 1);
    EXPECT_LE(occ, 64);
}
