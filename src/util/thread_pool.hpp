#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace satproof::util {

/// Bounded worker pool over std::jthread.
///
/// Deliberately work-stealing-free: one shared FIFO guarded by one mutex.
/// The depth-first checker submits one coarse task per lane per build round
/// (that lane's share of the round's clauses), so queue contention is
/// negligible and the simple design keeps the pool easy to reason about
/// under TSan. Workers are started once and live for the pool's lifetime;
/// destruction requests stop and joins.
///
/// Tasks must not throw — a task that needs to report failure stores its
/// error somewhere the submitter can see (the checker records each
/// failing clause on its lane and reads them after wait_idle()).
class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(unsigned num_threads = 0);

  /// Requests stop and joins all workers. Pending tasks that have not
  /// started are discarded.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues one task.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. Establishes a
  /// happens-before edge from all completed task bodies to the caller, so
  /// the caller may read anything the tasks wrote without further
  /// synchronization.
  void wait_idle();

 private:
  void worker_loop(const std::stop_token& stop);

  std::mutex mutex_;
  std::condition_variable_any work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::size_t unfinished_ = 0;  // queued + currently executing
  std::vector<std::jthread> workers_;
};

}  // namespace satproof::util
