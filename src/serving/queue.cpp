#include "serving/queue.h"

#include <algorithm>
#include <iterator>

#include "support/error.h"

namespace streamtensor {
namespace serving {

void
RequestQueue::countInsert(const Request &request)
{
    queued_input_tokens_ += request.input_len;
    if (request.deadline_ms > 0.0)
        ++deadlined_;
    max_depth_seen_ = std::max(max_depth_seen_, size());
    ST_ASSERT(max_depth_ == 0 ||
                  size() - max_depth_ <= front_inserts_,
              "queue occupancy beyond capacity not attributable "
              "to readmissions");
}

void
RequestQueue::countRemove(const Request &request)
{
    queued_input_tokens_ -= request.input_len;
    if (request.deadline_ms > 0.0)
        --deadlined_;
}

bool
RequestQueue::push(const Request &request)
{
    if (max_depth_ > 0 && size() >= max_depth_)
        return false;
    fifo_.push_back({request, ResumeState{}});
    countInsert(request);
    // A bounded push can never be the insert that exceeds
    // capacity.
    ST_ASSERT(max_depth_ == 0 || size() <= max_depth_,
              "bounded push exceeded queue capacity");
    return true;
}

void
RequestQueue::pushFront(const QueuedRequest &entry)
{
    fifo_.push_front(entry);
    ++front_inserts_;
    countInsert(entry.req);
}

const QueuedRequest &
RequestQueue::front() const
{
    ST_CHECK(!empty(), "front() on an empty queue");
    return fifo_.front();
}

QueuedRequest
RequestQueue::pop()
{
    ST_CHECK(!empty(), "pop() on an empty queue");
    QueuedRequest entry = std::move(fifo_.front());
    fifo_.pop_front();
    countRemove(entry.req);
    return entry;
}

std::vector<QueuedRequest>
RequestQueue::expireBefore(SimTime now)
{
    std::vector<QueuedRequest> expired;
    // Sweeps run every event-loop round; skip the walk entirely
    // unless something queued can actually expire.
    if (deadlined_ == 0)
        return expired;
    for (auto e = fifo_.begin(); e != fifo_.end();) {
        if (deadlinePassed(e->req, now)) {
            countRemove(e->req);
            expired.push_back(std::move(*e));
            e = fifo_.erase(e);
        } else {
            ++e;
        }
    }
    return expired;
}

std::vector<QueuedRequest>
RequestQueue::drainAll()
{
    std::vector<QueuedRequest> all(
        std::make_move_iterator(fifo_.begin()),
        std::make_move_iterator(fifo_.end()));
    fifo_.clear();
    queued_input_tokens_ = 0;
    deadlined_ = 0;
    return all;
}

std::vector<QueuedRequest>
RequestQueue::snapshot() const
{
    return {fifo_.begin(), fifo_.end()};
}

} // namespace serving
} // namespace streamtensor
