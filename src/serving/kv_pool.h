/**
 * @file
 * Block-granular paged KV cache pool, the serving-side analogue of
 * vLLM's PagedAttention block manager and TensorRT-LLM's
 * kvCacheManager: physical KV memory is a pool of fixed-size pages
 * (page_tokens KV slots each) that sequences acquire on demand as
 * their context grows, instead of reserving each request's final
 * context at admission. It is the only KV admission policy of the
 * serving scheduler.
 *
 * Three mechanisms on top of the plain pool:
 *
 *  - **Ref-counted prefix sharing.** Pages *fully covered* by a
 *    request's shared prompt prefix are keyed by a hash of
 *    (prefix identity, page index) — the stand-in for hashing the
 *    page's token content, which this simulator does not model —
 *    and looked up in a prefix table. Sequences with a common
 *    system prompt pin one physical copy per prefix page; the page
 *    is freed only when its refcount reaches zero. The page that
 *    straddles the prefix/unique boundary is never shared: each
 *    sequence writes its own tokens into it, i.e. copy-on-write
 *    divergence resolved at page granularity, up front.
 *
 *  - **Retained (cached) prefix pages.** When the last reference
 *    to a prefix page is released, the page is not returned to the
 *    free list but *retained*: a later sequence with the same
 *    prefix revives it as a hit without recomputing its KV.
 *    Retained pages are reclaimed oldest-release-first when an
 *    allocation finds the free list empty, so caching never
 *    refuses an allocation the plain pool could have served.
 *
 *  - **Deterministic accounting.** All orderings derive from page
 *    ids, logical release ticks, and caller-supplied sequence ids
 *    — no wall clock, randomness, or pointer order — so a serving
 *    trace driving the pool replays bit-identically.
 *
 * Every page is in exactly one of three states and the pool
 * maintains `active + cached + free == total` at all times (the
 * conservation invariant the property suite recomputes):
 *
 *    free    never referenced, or released private pages
 *    active  refcount > 0 (held by at least one sequence)
 *    cached  refcount == 0 but retained in the prefix table
 */

#ifndef STREAMTENSOR_SERVING_KV_POOL_H
#define STREAMTENSOR_SERVING_KV_POOL_H

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace streamtensor {
namespace serving {

/** Pool geometry. */
struct KvPoolOptions
{
    /** KV slots per page. */
    int64_t page_tokens = 16;

    /** Physical pages in the pool. */
    int64_t total_pages = 256;
};

/** Cumulative pool statistics (monotone counters). */
struct KvPoolStats
{
    /** Prefix-position pages obtained by reference to an existing
     *  physical page (active or revived from the retained cache)
     *  instead of a fresh allocation. */
    int64_t prefix_hit_pages = 0;

    /** Prefix-position pages that had to be allocated (first
     *  toucher of that prefix page pays for its KV). */
    int64_t prefix_miss_pages = 0;

    /** Retained pages reclaimed to serve allocations. */
    int64_t evicted_cached_pages = 0;

    /** High-water mark of active pages. */
    int64_t peak_active_pages = 0;
};

class KvPool
{
  public:
    explicit KvPool(KvPoolOptions options);

    int64_t pageTokens() const { return options_.page_tokens; }
    int64_t totalPages() const { return options_.total_pages; }

    int64_t freePages() const
    {
        return static_cast<int64_t>(free_.size());
    }
    int64_t cachedPages() const
    {
        return static_cast<int64_t>(cached_lru_.size());
    }
    int64_t activePages() const { return active_pages_; }

    /** Pages an allocation could draw on right now: the free list
     *  plus every reclaimable retained page. */
    int64_t availablePages() const
    {
        return freePages() + cachedPages();
    }

    /** Pages needed to hold @p tokens KV slots (ceiling). */
    int64_t pagesFor(int64_t tokens) const;

    /** Register sequence @p seq_id with a shared prefix: its first
     *  @p prefix_len prompt tokens are the prefix identified by
     *  @p prefix_id (0 = no shared prefix). Must be called before
     *  grow(); the binding holds no pages yet. */
    void bind(int64_t seq_id, int64_t prefix_id,
              int64_t prefix_len);

    /** Fresh allocations grow(@p seq_id, @p tokens) would perform
     *  given the current prefix table — i.e. its page demand net
     *  of prefix hits. Lookup only; admission planning. */
    int64_t missingPages(int64_t seq_id, int64_t tokens) const;

    /** Grow the sequence's coverage to @p tokens. Prefix-position
     *  pages are first looked up in the prefix table (hit: share /
     *  revive); everything else allocates from the free list,
     *  reclaiming retained pages oldest-first when it runs dry.
     *  Every hit is taken before the first fresh allocation, so a
     *  reclaim never takes a page this growth revives; the held
     *  pages stay in position order.
     *  Atomic: when the fresh allocations cannot all be served the
     *  pool is left untouched and false is returned (the caller
     *  preempts a victim and retries). Never shrinks coverage. */
    bool grow(int64_t seq_id, int64_t tokens);

    /** Release the sequence (completion or preemption): decrement
     *  every held page's refcount. At zero, prefix pages are
     *  retained as cached; private pages return to the free list.
     *  The binding is forgotten. */
    void release(int64_t seq_id);

    /** Pages currently held by @p seq_id (0 when unbound). */
    int64_t heldPages(int64_t seq_id) const;

    /** Tokens currently covered for @p seq_id. */
    int64_t heldTokens(int64_t seq_id) const
    {
        return heldPages(seq_id) * options_.page_tokens;
    }

    /** Drop every sequence, page reference, retained page and
     *  prefix entry, leaving the layout of a new pool (page 0 pops
     *  first); the lifetime counters in stats() carry over. A
     *  replica crash loses its KV contents this way. */
    void clear();

    const KvPoolStats &stats() const { return stats_; }

    /** Recount every page's state from scratch and panic if the
     *  incremental counters, free list, retained set, or per-page
     *  flags or release ticks disagree — the conservation audit the
     *  property suite runs after every operation. */
    void validate() const;

  private:
    struct Page
    {
        int64_t ref = 0;

        /** Prefix-table key when this page holds shared prefix
         *  content; 0 for private pages. */
        uint64_t key = 0;

        /** True while retained in cached_lru_. */
        bool cached = false;

        /** This page's key in cached_lru_ while cached. */
        int64_t release_tick = 0;
    };

    struct Seq
    {
        int64_t prefix_id = 0;
        int64_t prefix_len = 0;

        /** Physical page per logical page position, in order. */
        std::vector<int32_t> pages;
    };

    /** Growing a sequence from its held pages to @p want pages:
     *  the fresh allocations, and the retained pages it revives
     *  from the prefix table. Lookup only: missingPages() and
     *  grow() both read it. */
    struct GrowthPlan
    {
        int64_t allocs = 0;
        int64_t revives = 0;
    };
    GrowthPlan planGrowth(const Seq &seq, int64_t want) const;

    /** Leading page positions that hold only shared prefix. */
    int64_t prefixPages(const Seq &seq) const
    {
        return seq.prefix_id ? seq.prefix_len / options_.page_tokens
                             : 0;
    }

    /** Pop a free page, reclaiming the oldest retained page when
     *  the free list is empty. Caller guarantees availability. */
    int32_t allocPage();

    std::vector<Page> pages_;
    std::vector<int32_t> free_; ///< LIFO
    /** Retained pages by release tick (begin() = oldest). */
    std::map<int64_t, int32_t> cached_lru_;
    /** Prefix-page key -> physical page (active or cached). */
    std::unordered_map<uint64_t, int32_t> prefix_table_;
    std::map<int64_t, Seq> seqs_;
    int64_t active_pages_ = 0;
    int64_t tick_ = 0;
    KvPoolOptions options_;
    KvPoolStats stats_;
};

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_KV_POOL_H
