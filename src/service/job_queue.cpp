#include "src/service/job_queue.hpp"

namespace satproof::service {

JobQueue::EnqueueResult JobQueue::try_enqueue(QueuedJob&& job) {
  {
    std::lock_guard lock(mutex_);
    if (closed_) return EnqueueResult::kClosed;
    if (fast_.size() + bulk_.size() >= capacity_) return EnqueueResult::kFull;
    (job.lane == Lane::kBulk ? bulk_ : fast_).push_back(std::move(job));
  }
  ready_.notify_one();
  return EnqueueResult::kAccepted;
}

std::optional<QueuedJob> JobQueue::pop_blocking() {
  std::unique_lock lock(mutex_);
  ready_.wait(lock,
              [this] { return closed_ || !fast_.empty() || !bulk_.empty(); });
  std::deque<QueuedJob>& lane = fast_.empty() ? bulk_ : fast_;
  if (lane.empty()) return std::nullopt;  // closed and drained
  std::optional<QueuedJob> job(std::move(lane.front()));
  lane.pop_front();
  return job;
}

void JobQueue::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
}

std::size_t JobQueue::depth() const {
  std::lock_guard lock(mutex_);
  return fast_.size() + bulk_.size();
}

}  // namespace satproof::service
