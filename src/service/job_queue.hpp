#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>

#include "src/service/run_check.hpp"
#include "src/util/temp_file.hpp"

namespace satproof::service {

/// One admitted proof-checking job. The CNF and trace were streamed to
/// temp files during upload; the request owns them, so their bytes live
/// exactly as long as the job does.
struct JobRequest {
  std::uint64_t id = 0;
  Backend backend = Backend::kDf;
  unsigned jobs = 0;             ///< parallel-backend worker count
  std::uint32_t timeout_ms = 0;  ///< wall-clock budget from enqueue; 0 = none
  bool certify = false;  ///< emit an LRAT certificate (kSubmitFlagCertify)
  util::TempFile cnf_file;
  util::TempFile trace_file;
  std::chrono::steady_clock::time_point enqueued_at;
  /// Upload duration (SUBMIT to SUBMIT_END) on the ingest loop, carried
  /// along so the job's span tree can include the ingest stage.
  std::uint64_t ingest_us = 0;
};

/// Priority lane of an admitted job. Fast jobs overtake bulk jobs at
/// every pop, so a burst of multi-MB uploads cannot starve small
/// submissions of worker time.
enum class Lane : std::uint8_t {
  kFast = 0,
  kBulk = 1,
};

/// Upload size at which a job is classed as bulk. Chosen from the
/// suite shape: every Table-2 instance's CNF + binary trace is well under
/// 1 MiB, while "someone replaying an overnight solver log" is tens of MB.
inline constexpr std::uint64_t kBulkLaneThresholdBytes = 1u << 20;

/// Lane for a job whose upload totalled `bytes` (declared, or measured at
/// ingest when the client declared nothing).
[[nodiscard]] inline Lane lane_for_bytes(std::uint64_t bytes) {
  return bytes >= kBulkLaneThresholdBytes ? Lane::kBulk : Lane::kFast;
}

/// Worker-side completion: invoked exactly once, on the worker thread,
/// with the job's outcome. The server's callback encodes the result frame
/// and hands it to the I/O loop; it must not block.
using JobCompletion = std::function<void(JobOutcome outcome, bool timed_out)>;

/// A job plus its scheduling metadata, as stored in the queue.
struct QueuedJob {
  JobRequest request;
  Lane lane = Lane::kFast;
  JobCompletion on_done;
};

/// Bounded two-lane FIFO — the backpressure point and the scheduler of
/// the service: one mutex, one condition variable, one deque per lane.
///
/// Admission control lives here and nowhere else: try_enqueue refuses
/// when the queue holds `capacity` not-yet-started jobs (the caller
/// answers BUSY) or after close() (the caller answers DRAINING).
///
/// Lane priority is strict: every worker takes a fast-lane job before any
/// bulk job, and within a lane the oldest job first.
///
/// close() stops admission but not draining: pop_blocking keeps handing
/// out queued jobs until both lanes are empty, then returns nullopt to
/// each worker. Every admitted job is executed exactly once.
class JobQueue {
 public:
  explicit JobQueue(std::size_t capacity) : capacity_(capacity) {}

  enum class EnqueueResult { kAccepted, kFull, kClosed };

  /// Admits a job at the back of its lane. On kFull/kClosed `job` is not
  /// moved from; it and its temp files go when the caller drops it.
  EnqueueResult try_enqueue(QueuedJob&& job);

  /// Blocking take: waits until a job is available or the queue is closed
  /// *and* fully drained (nullopt — the worker should exit).
  std::optional<QueuedJob> pop_blocking();

  /// Refuses all future enqueues (drain). Queued jobs still run.
  void close();

  /// Jobs admitted but not yet taken by a worker.
  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<QueuedJob> fast_;
  std::deque<QueuedJob> bulk_;
  bool closed_ = false;
};

}  // namespace satproof::service
