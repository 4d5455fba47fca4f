#include "serving/kv_pool.h"

#include <algorithm>

#include "support/error.h"

namespace streamtensor {
namespace serving {

namespace {

/** splitmix64 finalizer — the usual strong 64-bit mixer. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Key of the @p page_index'th page of prefix @p prefix_id — the
 *  simulator's stand-in for hashing the page's token content (all
 *  requests naming the same prefix share those tokens by
 *  definition). Never returns the 0 sentinel. */
uint64_t
pageKey(int64_t prefix_id, int64_t page_index)
{
    uint64_t key =
        mix64(mix64(static_cast<uint64_t>(prefix_id)) ^
              static_cast<uint64_t>(page_index));
    return key == 0 ? 1 : key;
}

} // namespace

KvPool::KvPool(KvPoolOptions options) : options_(options)
{
    ST_CHECK(options_.page_tokens >= 1, "pages need token slots");
    ST_CHECK(options_.total_pages >= 1, "pool needs pages");
    clear();
}

void
KvPool::clear()
{
    pages_.assign(static_cast<size_t>(options_.total_pages), Page{});
    free_.clear();
    free_.reserve(pages_.size());
    // LIFO stack: page 0 pops first.
    for (int64_t p = options_.total_pages - 1; p >= 0; --p)
        free_.push_back(static_cast<int32_t>(p));
    cached_lru_.clear();
    prefix_table_.clear();
    seqs_.clear();
    active_pages_ = 0;
    tick_ = 0;
}

int64_t
KvPool::pagesFor(int64_t tokens) const
{
    ST_CHECK(tokens >= 0, "token count domain");
    return (tokens + options_.page_tokens - 1) /
           options_.page_tokens;
}

void
KvPool::bind(int64_t seq_id, int64_t prefix_id, int64_t prefix_len)
{
    ST_CHECK(prefix_id >= 0 && prefix_len >= 0,
             "prefix domain");
    ST_CHECK(prefix_id != 0 || prefix_len == 0,
             "prefix length without a prefix id");
    Seq seq;
    seq.prefix_id = prefix_id;
    seq.prefix_len = prefix_len;
    ST_CHECK(seqs_.emplace(seq_id, std::move(seq)).second,
             "sequence already bound");
}

KvPool::GrowthPlan
KvPool::planGrowth(const Seq &seq, int64_t want) const
{
    GrowthPlan plan;
    int64_t full_prefix = prefixPages(seq);
    for (auto pos = static_cast<int64_t>(seq.pages.size()); pos < want;
         ++pos) {
        if (pos < full_prefix) {
            auto hit = prefix_table_.find(pageKey(seq.prefix_id, pos));
            if (hit != prefix_table_.end()) {
                // Shared: no fresh allocation.
                if (pages_[static_cast<size_t>(hit->second)].cached)
                    ++plan.revives;
                continue;
            }
        }
        ++plan.allocs;
    }
    return plan;
}

int64_t
KvPool::missingPages(int64_t seq_id, int64_t tokens) const
{
    auto it = seqs_.find(seq_id);
    ST_CHECK(it != seqs_.end(), "sequence not bound");
    return planGrowth(it->second, pagesFor(tokens)).allocs;
}

int32_t
KvPool::allocPage()
{
    if (!free_.empty()) {
        int32_t page = free_.back();
        free_.pop_back();
        return page;
    }
    ST_ASSERT(!cached_lru_.empty(), "allocPage without capacity");
    auto oldest = cached_lru_.begin();
    int32_t page = oldest->second;
    cached_lru_.erase(oldest);
    Page &p = pages_[static_cast<size_t>(page)];
    ST_ASSERT(p.cached && p.ref == 0 && p.key != 0,
              "retained page state corrupt");
    prefix_table_.erase(p.key);
    p.cached = false;
    p.key = 0;
    ++stats_.evicted_cached_pages;
    return page;
}

bool
KvPool::grow(int64_t seq_id, int64_t tokens)
{
    auto it = seqs_.find(seq_id);
    ST_CHECK(it != seqs_.end(), "sequence not bound");
    Seq &seq = it->second;
    int64_t held = static_cast<int64_t>(seq.pages.size());
    int64_t want = pagesFor(tokens);
    if (want <= held)
        return true;
    ST_CHECK(want <= options_.total_pages,
             "sequence larger than the whole pool");

    // Revived pages must not also be counted as reclaimable
    // capacity.
    GrowthPlan plan = planGrowth(seq, want);
    if (plan.allocs > freePages() + cachedPages() - plan.revives)
        return false;

    // Commit in two passes over the new positions. Every hit is
    // revived first, so the eviction in the second pass can never
    // reclaim a page this very growth references; the second pass
    // fills the remaining positions with fresh pages, in order.
    int64_t full_prefix = prefixPages(seq);
    constexpr int32_t unfilled = -1;
    seq.pages.resize(static_cast<size_t>(want), unfilled);
    for (int64_t pos = held; pos < full_prefix && pos < want; ++pos) {
        auto hit = prefix_table_.find(pageKey(seq.prefix_id, pos));
        if (hit == prefix_table_.end())
            continue;
        Page &p = pages_[static_cast<size_t>(hit->second)];
        if (p.cached) {
            // Revive from the retained cache.
            auto lru = cached_lru_.find(p.release_tick);
            ST_ASSERT(lru != cached_lru_.end() &&
                          lru->second == hit->second,
                      "cached page missing from LRU");
            cached_lru_.erase(lru);
            p.cached = false;
        }
        if (p.ref == 0)
            ++active_pages_;
        ++p.ref;
        ++stats_.prefix_hit_pages;
        seq.pages[static_cast<size_t>(pos)] = hit->second;
    }
    for (int64_t pos = held; pos < want; ++pos) {
        int32_t &slot = seq.pages[static_cast<size_t>(pos)];
        if (slot != unfilled)
            continue;
        slot = allocPage();
        Page &p = pages_[static_cast<size_t>(slot)];
        ST_ASSERT(p.ref == 0 && !p.cached && p.key == 0,
                  "allocated page state corrupt");
        p.ref = 1;
        ++active_pages_;
        if (pos < full_prefix) {
            p.key = pageKey(seq.prefix_id, pos);
            prefix_table_.emplace(p.key, slot);
            ++stats_.prefix_miss_pages;
        }
    }
    stats_.peak_active_pages =
        std::max(stats_.peak_active_pages, active_pages_);
    return true;
}

void
KvPool::release(int64_t seq_id)
{
    auto it = seqs_.find(seq_id);
    ST_CHECK(it != seqs_.end(), "sequence not bound");
    for (int32_t page : it->second.pages) {
        Page &p = pages_[static_cast<size_t>(page)];
        ST_ASSERT(p.ref > 0, "releasing an unreferenced page");
        if (--p.ref == 0) {
            --active_pages_;
            if (p.key != 0) {
                // Retain for prefix reuse, reclaimable
                // oldest-release-first.
                p.cached = true;
                p.release_tick = tick_++;
                cached_lru_.emplace(p.release_tick, page);
            } else {
                free_.push_back(page);
            }
        }
    }
    seqs_.erase(it);
}

int64_t
KvPool::heldPages(int64_t seq_id) const
{
    auto it = seqs_.find(seq_id);
    return it == seqs_.end()
               ? 0
               : static_cast<int64_t>(it->second.pages.size());
}

void
KvPool::validate() const
{
    std::vector<int64_t> refs(pages_.size(), 0);
    for (const auto &[id, seq] : seqs_) {
        (void)id;
        for (int32_t page : seq.pages)
            ++refs[static_cast<size_t>(page)];
    }
    int64_t active = 0;
    for (size_t p = 0; p < pages_.size(); ++p) {
        ST_ASSERT(refs[p] == pages_[p].ref,
                  "page refcount drifted from bindings");
        if (pages_[p].ref > 0) {
            ++active;
            ST_ASSERT(!pages_[p].cached,
                      "active page marked cached");
        }
    }
    ST_ASSERT(active == active_pages_,
              "active-page counter drifted");
    for (const auto &[tick, page] : cached_lru_) {
        const Page &p = pages_[static_cast<size_t>(page)];
        ST_ASSERT(p.cached && p.ref == 0 && p.key != 0,
                  "retained page state corrupt");
        ST_ASSERT(p.release_tick == tick,
                  "retained page's release tick does not map back");
        auto hit = prefix_table_.find(p.key);
        ST_ASSERT(hit != prefix_table_.end() &&
                      hit->second == page,
                  "retained page missing from prefix table");
    }
    for (int32_t page : free_) {
        const Page &p = pages_[static_cast<size_t>(page)];
        ST_ASSERT(p.ref == 0 && !p.cached && p.key == 0,
                  "free page state corrupt");
    }
    ST_ASSERT(active_pages_ + cachedPages() + freePages() ==
                  options_.total_pages,
              "page conservation violated");
    ST_ASSERT(static_cast<int64_t>(prefix_table_.size()) <=
                  options_.total_pages,
              "prefix table larger than the pool");
}

} // namespace serving
} // namespace streamtensor
