#include "serving/queue.h"

#include <algorithm>

#include "support/error.h"

namespace streamtensor {
namespace serving {

void
RequestQueue::assertCapacityInvariant() const
{
    ST_ASSERT(max_depth_ == 0 ||
                  size_ - max_depth_ <= front_inserts_,
              "queue occupancy beyond capacity not attributable "
              "to readmissions");
}

bool
RequestQueue::push(const Request &request)
{
    if (max_depth_ > 0 && size_ >= max_depth_)
        return false;
    fifo_.push_back(request);
    ++size_;
    queued_input_tokens_ += request.input_len;
    if (request.deadline_ms > 0.0)
        ++deadlined_;
    max_depth_seen_ = std::max(max_depth_seen_, size_);
    // A bounded push can never be the insert that exceeds
    // capacity.
    ST_ASSERT(max_depth_ == 0 || size_ <= max_depth_,
              "bounded push exceeded queue capacity");
    assertCapacityInvariant();
    return true;
}

void
RequestQueue::pushFront(const Request &request)
{
    fifo_.push_front(request);
    ++size_;
    ++front_inserts_;
    queued_input_tokens_ += request.input_len;
    if (request.deadline_ms > 0.0)
        ++deadlined_;
    max_depth_seen_ = std::max(max_depth_seen_, size_);
    assertCapacityInvariant();
}

const Request &
RequestQueue::front() const
{
    ST_CHECK(size_ > 0, "front() on an empty queue");
    return fifo_.front();
}

Request
RequestQueue::pop()
{
    ST_CHECK(size_ > 0, "pop() on an empty queue");
    Request r = fifo_.front();
    fifo_.pop_front();
    --size_;
    queued_input_tokens_ -= r.input_len;
    if (r.deadline_ms > 0.0)
        --deadlined_;
    return r;
}

std::vector<Request>
RequestQueue::expireBefore(double now_ms)
{
    std::vector<Request> expired;
    // Sweeps run every event-loop round; skip the walk entirely
    // unless something queued can actually expire.
    if (deadlined_ == 0)
        return expired;
    for (auto r = fifo_.begin(); r != fifo_.end();) {
        if (r->deadline_ms > 0.0 && r->deadline_ms <= now_ms) {
            expired.push_back(*r);
            queued_input_tokens_ -= r->input_len;
            --deadlined_;
            r = fifo_.erase(r);
            --size_;
        } else {
            ++r;
        }
    }
    return expired;
}

std::vector<Request>
RequestQueue::drainAll()
{
    std::vector<Request> all;
    all.reserve(static_cast<size_t>(size_));
    while (size_ > 0)
        all.push_back(pop());
    return all;
}

std::vector<Request>
RequestQueue::snapshot() const
{
    return {fifo_.begin(), fifo_.end()};
}

} // namespace serving
} // namespace streamtensor
