/** @file Unit + property suite for the paged KV pool. The unit
 *  half pins the sharing/caching/eviction mechanics one at a time;
 *  the property half drives 100 seeded random op sequences against
 *  a shadow model and audits, after every single operation, page
 *  conservation, held-page arithmetic, physical-occupancy
 *  recomputation from the shadow's sharing structure, and the
 *  pool's own internal recount (KvPool::validate). */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "serving/kv_pool.h"
#include "support/error.h"

using namespace streamtensor;
using serving::KvPool;
using serving::KvPoolOptions;

namespace {

KvPool
makePool(int64_t total_pages, int64_t page_tokens = 16)
{
    KvPoolOptions options;
    options.page_tokens = page_tokens;
    options.total_pages = total_pages;
    return KvPool(options);
}

} // namespace

TEST(KvPool, PagesForIsCeilingDivision)
{
    KvPool pool = makePool(8, 16);
    EXPECT_EQ(pool.pagesFor(0), 0);
    EXPECT_EQ(pool.pagesFor(1), 1);
    EXPECT_EQ(pool.pagesFor(16), 1);
    EXPECT_EQ(pool.pagesFor(17), 2);
    EXPECT_EQ(pool.pagesFor(128), 8);
}

TEST(KvPool, GrowAllocatesOnDemandAndNeverShrinks)
{
    KvPool pool = makePool(8, 16);
    pool.bind(1, 0, 0);
    ASSERT_TRUE(pool.grow(1, 20)); // 2 pages
    EXPECT_EQ(pool.heldPages(1), 2);
    EXPECT_EQ(pool.activePages(), 2);
    EXPECT_EQ(pool.freePages(), 6);
    ASSERT_TRUE(pool.grow(1, 21)); // still 2 pages
    EXPECT_EQ(pool.heldPages(1), 2);
    ASSERT_TRUE(pool.grow(1, 33)); // 3 pages
    EXPECT_EQ(pool.heldPages(1), 3);
    ASSERT_TRUE(pool.grow(1, 10)); // never shrinks
    EXPECT_EQ(pool.heldPages(1), 3);
    pool.release(1);
    EXPECT_EQ(pool.activePages(), 0);
    EXPECT_EQ(pool.freePages(), 8);
    EXPECT_EQ(pool.heldPages(1), 0);
    pool.validate();
}

TEST(KvPool, GrowFailureIsAtomic)
{
    KvPool pool = makePool(4, 16);
    pool.bind(1, 0, 0);
    ASSERT_TRUE(pool.grow(1, 48)); // 3 of 4 pages
    pool.bind(2, 0, 0);
    ASSERT_TRUE(pool.grow(2, 16)); // last page
    // Seq 2 needs one more page than exists: nothing may move.
    EXPECT_FALSE(pool.grow(2, 33));
    EXPECT_EQ(pool.heldPages(2), 1);
    EXPECT_EQ(pool.activePages(), 4);
    EXPECT_EQ(pool.freePages(), 0);
    pool.validate();
}

TEST(KvPool, PrefixPagesShareOnePhysicalCopy)
{
    // Prefix of 40 tokens covers 2 full pages (the third page
    // straddles the prefix boundary and stays private — page-
    // granular copy-on-write).
    KvPool pool = makePool(16, 16);
    pool.bind(1, /*prefix_id=*/7, /*prefix_len=*/40);
    ASSERT_TRUE(pool.grow(1, 64)); // 4 pages: 2 shared + 2 private
    EXPECT_EQ(pool.activePages(), 4);
    EXPECT_EQ(pool.stats().prefix_miss_pages, 2);

    pool.bind(2, 7, 40);
    ASSERT_TRUE(pool.grow(2, 64));
    EXPECT_EQ(pool.heldPages(2), 4);
    // Physical: 2 shared + 2 private each = 6, not 8.
    EXPECT_EQ(pool.activePages(), 6);
    EXPECT_EQ(pool.stats().prefix_hit_pages, 2);

    // A different prefix group shares nothing.
    pool.bind(3, 8, 40);
    ASSERT_TRUE(pool.grow(3, 64));
    EXPECT_EQ(pool.activePages(), 10);
    pool.validate();
}

TEST(KvPool, SharedPagesFreeOnlyAtRefcountZero)
{
    KvPool pool = makePool(8, 16);
    pool.bind(1, 3, 32);
    pool.bind(2, 3, 32);
    ASSERT_TRUE(pool.grow(1, 48));
    ASSERT_TRUE(pool.grow(2, 48));
    EXPECT_EQ(pool.activePages(), 4); // 2 shared + 1 + 1

    // Releasing one holder must keep the shared pages active.
    pool.release(1);
    EXPECT_EQ(pool.activePages(), 3);
    EXPECT_EQ(pool.heldPages(2), 3);
    EXPECT_EQ(pool.cachedPages(), 0);

    // Releasing the last holder retains them as cached, not free.
    pool.release(2);
    EXPECT_EQ(pool.activePages(), 0);
    EXPECT_EQ(pool.cachedPages(), 2);
    EXPECT_EQ(pool.freePages(), 6);
    pool.validate();
}

TEST(KvPool, CachedPrefixPagesReviveAsHits)
{
    KvPool pool = makePool(8, 16);
    pool.bind(1, 5, 32);
    ASSERT_TRUE(pool.grow(1, 40));
    pool.release(1);
    ASSERT_EQ(pool.cachedPages(), 2);
    int64_t misses_before = pool.stats().prefix_miss_pages;

    // Same prefix returns: both prefix pages revive from cache.
    pool.bind(2, 5, 32);
    ASSERT_TRUE(pool.grow(2, 40));
    EXPECT_EQ(pool.stats().prefix_hit_pages, 2);
    EXPECT_EQ(pool.stats().prefix_miss_pages, misses_before);
    EXPECT_EQ(pool.cachedPages(), 0);
    EXPECT_EQ(pool.activePages(), 3);
    pool.validate();
}

TEST(KvPool, EvictionReclaimsOldestCachedFirst)
{
    KvPool pool = makePool(4, 16);
    // Two one-page prefixes cached in order: 5 then 6.
    pool.bind(1, 5, 16);
    ASSERT_TRUE(pool.grow(1, 16));
    pool.release(1);
    pool.bind(2, 6, 16);
    ASSERT_TRUE(pool.grow(2, 16));
    pool.release(2);
    ASSERT_EQ(pool.cachedPages(), 2);
    ASSERT_EQ(pool.freePages(), 2);

    // A 3-page private grow needs one eviction: the oldest
    // retained prefix (5) goes; 6 must still revive as a hit.
    pool.bind(3, 0, 0);
    ASSERT_TRUE(pool.grow(3, 48));
    EXPECT_EQ(pool.stats().evicted_cached_pages, 1);
    pool.bind(4, 6, 16);
    ASSERT_TRUE(pool.grow(4, 16));
    EXPECT_EQ(pool.stats().prefix_hit_pages, 1);
    pool.bind(5, 5, 16);
    EXPECT_FALSE(pool.grow(5, 16)); // pool exhausted, 5 is gone
    pool.validate();
}

TEST(KvPool, GrowthRevivesItsHitsBeforeReclaimingAnything)
{
    // One-token pages. Prefix 5's pages 0 and 1 and prefix 6's page
    // 0 are retained in that release order; a private sequence then
    // takes the free page and reclaims 5/0, the oldest.
    KvPool pool = makePool(4, 1);
    pool.bind(1, 5, 2);
    ASSERT_TRUE(pool.grow(1, 2));
    pool.bind(2, 6, 1);
    ASSERT_TRUE(pool.grow(2, 1));
    pool.release(1);
    pool.release(2);
    pool.bind(3, 0, 0);
    ASSERT_TRUE(pool.grow(3, 2));
    ASSERT_EQ(pool.cachedPages(), 2);
    ASSERT_EQ(pool.freePages(), 0);

    // A sequence with prefix 5 grows over both prefix pages: it
    // revives 5/1 first, so its fresh page for position 0 reclaims
    // 6/0, not the page position 1 is about to revive.
    serving::KvPoolStats before = pool.stats();
    pool.bind(4, 5, 2);
    ASSERT_TRUE(pool.grow(4, 2));
    EXPECT_EQ(pool.stats().prefix_hit_pages - before.prefix_hit_pages, 1);
    EXPECT_EQ(pool.stats().prefix_miss_pages - before.prefix_miss_pages,
              1);
    EXPECT_EQ(pool.stats().evicted_cached_pages -
                  before.evicted_cached_pages,
              1);
    pool.validate();

    // Its pages are held in position order: released, 5/0 is
    // retained before 5/1, so the next reclaim takes 5/0 and leaves
    // 5/1 in the prefix table.
    pool.release(3);
    pool.release(4);
    pool.bind(6, 0, 0);
    ASSERT_TRUE(pool.grow(6, 3));
    pool.bind(7, 5, 2);
    EXPECT_EQ(pool.missingPages(7, 1), 1);
    EXPECT_EQ(pool.missingPages(7, 2), 1);
    pool.validate();
}

TEST(KvPool, CachedPagesCountAsAvailable)
{
    KvPool pool = makePool(4, 16);
    pool.bind(1, 9, 64);
    ASSERT_TRUE(pool.grow(1, 64));
    pool.release(1);
    ASSERT_EQ(pool.cachedPages(), 4);
    ASSERT_EQ(pool.freePages(), 0);
    EXPECT_EQ(pool.availablePages(), 4);

    // Caching must never refuse an allocation the plain pool
    // could have served: a full-pool private grow still succeeds.
    pool.bind(2, 0, 0);
    ASSERT_TRUE(pool.grow(2, 64));
    EXPECT_EQ(pool.activePages(), 4);
    EXPECT_EQ(pool.cachedPages(), 0);
    pool.validate();
}

TEST(KvPool, MissingPagesPlansAdmission)
{
    KvPool pool = makePool(8, 16);
    pool.bind(1, 4, 32);
    ASSERT_TRUE(pool.grow(1, 48));
    // A sibling of the same prefix only needs its private page.
    pool.bind(2, 4, 32);
    EXPECT_EQ(pool.missingPages(2, 48), 1);
    // A stranger needs all three.
    pool.bind(3, 0, 0);
    EXPECT_EQ(pool.missingPages(3, 48), 3);
    // Lookup only: nothing was allocated.
    EXPECT_EQ(pool.heldPages(2), 0);
    EXPECT_EQ(pool.heldPages(3), 0);
    pool.validate();
}

TEST(KvPool, ClearKeepsLifetimeStatsAndServesAgain)
{
    KvPool pool = makePool(4, 16);
    // One prefix miss, one hit revived from the cache, a full pool.
    pool.bind(1, 5, 16);
    ASSERT_TRUE(pool.grow(1, 16));
    pool.release(1);
    pool.bind(2, 5, 16);
    ASSERT_TRUE(pool.grow(2, 16)); // revives 5: one hit
    pool.bind(3, 0, 0);
    ASSERT_TRUE(pool.grow(3, 48));
    ASSERT_EQ(pool.activePages(), 4);
    const serving::KvPoolStats before = pool.stats();
    ASSERT_EQ(before.prefix_hit_pages, 1);
    ASSERT_EQ(before.prefix_miss_pages, 1);
    ASSERT_EQ(before.peak_active_pages, 4);

    pool.clear();
    pool.validate();
    EXPECT_EQ(pool.activePages(), 0);
    EXPECT_EQ(pool.cachedPages(), 0);
    EXPECT_EQ(pool.freePages(), 4);
    EXPECT_EQ(pool.heldPages(2), 0);
    EXPECT_EQ(pool.stats().prefix_hit_pages, before.prefix_hit_pages);
    EXPECT_EQ(pool.stats().prefix_miss_pages,
              before.prefix_miss_pages);
    EXPECT_EQ(pool.stats().evicted_cached_pages,
              before.evicted_cached_pages);
    EXPECT_EQ(pool.stats().peak_active_pages,
              before.peak_active_pages);

    // The prefix table died with the contents: prefix 5 misses
    // again, and the ids of the old sequences bind afresh.
    pool.bind(2, 5, 16);
    EXPECT_EQ(pool.missingPages(2, 16), 1);
    ASSERT_TRUE(pool.grow(2, 16));
    pool.bind(1, 0, 0);
    ASSERT_TRUE(pool.grow(1, 48));
    EXPECT_EQ(pool.activePages(), 4);
    EXPECT_EQ(pool.stats().prefix_miss_pages,
              before.prefix_miss_pages + 1);
    EXPECT_EQ(pool.stats().prefix_hit_pages, before.prefix_hit_pages);
    pool.validate();
}

TEST(KvPool, ChecksDomains)
{
    KvPool pool = makePool(4, 16);
    EXPECT_THROW(pool.bind(1, -1, 0), FatalError);
    pool.bind(2, 0, 0);
    EXPECT_THROW(pool.bind(2, 0, 0), FatalError);
    EXPECT_THROW(pool.grow(99, 16), FatalError);
    EXPECT_THROW(pool.release(99), FatalError);
}

// ---------------------------------------------------------------
// 100-seed shadow-model property suite. Each seed drives a random
// op sequence (bind+grow, grow, release) and audits after EVERY
// op: conservation, held arithmetic, physical occupancy
// recomputed from the shadow's sharing structure, grow outcome
// bounds, and the pool's internal recount.
// ---------------------------------------------------------------

namespace {

struct ShadowSeq
{
    int64_t prefix_id = 0;
    int64_t prefix_len = 0;
    int64_t tokens = 0;
};

class PoolProperty : public ::testing::TestWithParam<uint64_t>
{};

void
auditAgainstShadow(const KvPool &pool,
                   const std::map<int64_t, ShadowSeq> &shadow)
{
    pool.validate();

    // Page conservation: the three states partition the pool.
    EXPECT_EQ(pool.activePages() + pool.cachedPages() +
                  pool.freePages(),
              pool.totalPages());

    // Held pages follow the ceiling arithmetic per sequence.
    for (const auto &[id, seq] : shadow)
        EXPECT_EQ(pool.heldPages(id), pool.pagesFor(seq.tokens))
            << "seq " << id;

    // Physical occupancy: Σ private pages plus, per prefix group,
    // one copy of the widest member's fully-covered prefix pages.
    int64_t priv = 0;
    std::map<int64_t, int64_t> group_shared;
    for (const auto &[id, seq] : shadow) {
        (void)id;
        int64_t held = pool.pagesFor(seq.tokens);
        int64_t shared =
            seq.prefix_id
                ? std::min(held, seq.prefix_len /
                                     pool.pageTokens())
                : 0;
        priv += held - shared;
        if (seq.prefix_id) {
            auto &best = group_shared[seq.prefix_id];
            best = std::max(best, shared);
        }
    }
    int64_t shared_total = 0;
    for (const auto &[gid, n] : group_shared) {
        (void)gid;
        shared_total += n;
    }
    EXPECT_EQ(pool.activePages(), priv + shared_total);
}

} // namespace

TEST_P(PoolProperty, ShadowModelAgreesEveryOp)
{
    const uint64_t seed = GetParam();
    std::mt19937_64 rng(seed);
    auto draw = [&](uint64_t lo, uint64_t hi) {
        return static_cast<int64_t>(lo + rng() % (hi - lo + 1));
    };

    const int64_t page_tokens = 16;
    const int64_t total_pages = draw(6, 40);
    KvPool pool = makePool(total_pages, page_tokens);
    const int64_t num_groups = draw(1, 3);
    // A single sequence wider than the pool is a caller error
    // (ST_CHECK), not back-pressure; keep demands in domain.
    const int64_t cap_tokens = total_pages * page_tokens;

    std::map<int64_t, ShadowSeq> shadow;
    int64_t next_id = 1;
    int64_t failed_grows = 0;
    for (int op = 0; op < 400; ++op) {
        uint64_t kind = rng() % 10;
        if (kind < 4 || shadow.empty()) {
            // Bind a new sequence and grow it to its prompt.
            ShadowSeq seq;
            if (rng() % 2) {
                seq.prefix_id = draw(1, num_groups);
                seq.prefix_len = page_tokens * draw(1, 3);
            }
            int64_t prompt = std::min(
                seq.prefix_len + draw(1, 60), cap_tokens);
            int64_t id = next_id++;
            pool.bind(id, seq.prefix_id, seq.prefix_len);
            int64_t missing = pool.missingPages(id, prompt);
            int64_t free_before = pool.freePages();
            int64_t avail_before = pool.availablePages();
            bool grew = pool.grow(id, prompt);
            // Outcome bounds: demand within the free list must
            // succeed; demand beyond everything reclaimable must
            // fail.
            if (missing <= free_before) {
                EXPECT_TRUE(grew);
            }
            if (missing > avail_before) {
                EXPECT_FALSE(grew);
            }
            if (grew) {
                seq.tokens = prompt;
                shadow[id] = seq;
            } else {
                ++failed_grows;
                pool.release(id);
                EXPECT_EQ(pool.heldPages(id), 0);
            }
        } else if (kind < 8) {
            // Grow a random resident sequence by a few tokens.
            auto it = shadow.begin();
            std::advance(it,
                         static_cast<int64_t>(
                             rng() % shadow.size()));
            int64_t target = std::min(
                it->second.tokens + draw(1, 24), cap_tokens);
            int64_t missing =
                pool.missingPages(it->first, target);
            int64_t held_before = pool.heldPages(it->first);
            int64_t free_before = pool.freePages();
            int64_t avail_before = pool.availablePages();
            bool grew = pool.grow(it->first, target);
            if (missing <= free_before) {
                EXPECT_TRUE(grew);
            }
            if (missing > avail_before) {
                EXPECT_FALSE(grew);
            }
            if (grew) {
                it->second.tokens = target;
            } else {
                ++failed_grows;
                // Atomic: failed growth moved nothing.
                EXPECT_EQ(pool.heldPages(it->first),
                          held_before);
            }
        } else {
            // Release a random resident sequence; its pages must
            // no longer be charged to it.
            auto it = shadow.begin();
            std::advance(it,
                         static_cast<int64_t>(
                             rng() % shadow.size()));
            pool.release(it->first);
            EXPECT_EQ(pool.heldPages(it->first), 0);
            shadow.erase(it);
        }
        auditAgainstShadow(pool, shadow);
    }

    // Drain: with every sequence released no page may stay
    // referenced — only cached prefix retentions and free pages.
    for (const auto &[id, seq] : shadow) {
        (void)seq;
        pool.release(id);
    }
    shadow.clear();
    auditAgainstShadow(pool, shadow);
    EXPECT_EQ(pool.activePages(), 0);

    // The suite is only meaningful if pressure occurred somewhere;
    // most seeds overflow a 6-40 page pool within 400 ops.
    if (total_pages <= 12) {
        EXPECT_GT(failed_grows, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolProperty,
                         ::testing::Range<uint64_t>(0, 100));

TEST(KvPoolDeterminism, IdenticalOpSequencesReplayIdentically)
{
    auto run = [](KvPool &pool) {
        pool.bind(1, 2, 32);
        pool.grow(1, 50);
        pool.bind(2, 2, 32);
        pool.grow(2, 40);
        pool.release(1);
        pool.bind(3, 0, 0);
        pool.grow(3, 90);
        pool.release(2);
        pool.release(3);
    };
    KvPool a = makePool(10, 16);
    KvPool b = makePool(10, 16);
    run(a);
    run(b);
    EXPECT_EQ(a.activePages(), b.activePages());
    EXPECT_EQ(a.cachedPages(), b.cachedPages());
    EXPECT_EQ(a.freePages(), b.freePages());
    EXPECT_EQ(a.stats().prefix_hit_pages,
              b.stats().prefix_hit_pages);
    EXPECT_EQ(a.stats().prefix_miss_pages,
              b.stats().prefix_miss_pages);
    EXPECT_EQ(a.stats().evicted_cached_pages,
              b.stats().evicted_cached_pages);
    EXPECT_EQ(a.stats().peak_active_pages,
              b.stats().peak_active_pages);
}
