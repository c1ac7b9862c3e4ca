#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/service/job_queue.hpp"
#include "src/service/protocol.hpp"
#include "src/service/run_check.hpp"
#include "src/util/arena.hpp"
#include "src/util/epoll.hpp"
#include "src/util/socket.hpp"

namespace satproof::service {

struct ServerOptions {
  /// Unix-domain socket path ("" = no unix listener). First-class
  /// transport: no TCP stack in the loop, filesystem permissions for
  /// access control.
  std::string unix_socket_path;
  /// Listen on 127.0.0.1 TCP as well (never on other interfaces).
  bool enable_tcp = false;
  std::uint16_t tcp_port = 0;  ///< 0 = ephemeral (see tcp_port())

  unsigned workers = 0;  ///< checker worker threads (0 = hardware threads)
  std::size_t queue_capacity = 64;  ///< pending jobs before BUSY
  std::uint32_t default_timeout_ms = 0;  ///< per-job budget; 0 = unlimited
  /// Idle-connection guard: a peer that stalls mid-frame (or goes silent)
  /// is dropped after this long instead of holding a connection slot
  /// forever. 0 disables.
  std::uint32_t idle_timeout_ms = 30000;
  /// Jobs whose wall time exceeds this dump their span tree to stderr
  /// (one block per slow job) and bump the slow-job counter. 0 disables
  /// per-job span collection entirely.
  std::uint32_t slow_job_ms = 0;
  /// Run the trusted kernel over every certificate emitted for a certify
  /// job before reporting success (`satproof serve --certify`). A kernel
  /// REJECT turns the job into an error outcome — the service never ships
  /// a certificate it could not verify itself.
  bool certify = false;
  /// Per-worker checker memory cap in bytes (`satproof serve
  /// --mem-limit`). Passed to run_check for every job: df/hybrid requests
  /// whose estimated peak exceeds it run on the window-shifting backend,
  /// whose resident footprint is budget-bounded, so one multi-GB upload
  /// cannot OOM a worker; certifying jobs included. 0 = no cap.
  std::size_t mem_limit_bytes = 0;
};

/// Scheduler state sampled when satproofd's metrics are rendered.
struct SchedulerSnapshot {
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t running_jobs = 0;
  std::size_t workers = 0;
};

/// satproofd's `satproofd_*` series on one registry: counter and
/// histogram handles that the I/O thread and the workers bump lock-free,
/// and callback families that read one `scheduler` sample per render.
class ServerMetrics {
 public:
  ServerMetrics(obs::MetricsRegistry& registry,
                std::function<SchedulerSnapshot()> scheduler);

  /// One job that delivered a verdict, or one reported as timed out,
  /// attributed to the backend that ran it.
  void record_completed(Backend backend, double seconds, bool ok,
                        std::size_t arena_peak_bytes);
  void record_timeout(Backend backend);
  /// One job admitted to the queue on `lane`.
  void record_accepted(Lane lane);

  obs::Counter& connections;
  obs::Counter& malformed_frames;
  obs::Counter& accepted;
  obs::Counter& rejected_busy;
  obs::Counter& completed;
  obs::Counter& failed;
  obs::Counter& timed_out;
  obs::Counter& slow_jobs;  ///< wall time above --slow-job-ms
  obs::Counter& certified;  ///< kernel-verified certificates
  obs::Counter& certify_failed;  ///< kernel REJECTs (emitter bug!)

 private:
  struct BackendSeries {
    obs::Counter* completed;  ///< verdict delivered (ok or rejected)
    obs::Counter* failed;     ///< verdict was not ok
    obs::Counter* timed_out;
    obs::Histogram* seconds;  ///< wall time of completed jobs
  };
  std::array<BackendSeries, kNumBackends> backends_{};
  std::array<obs::Counter*, 2> lane_enqueued_{};  ///< indexed by Lane
  std::atomic<std::size_t> arena_peak_bytes_{0};  ///< max over completed
  SchedulerSnapshot scheduler_;  ///< this render's; under the registry lock
};

/// The satproofd daemon: accepts proof-checking jobs over the framed
/// protocol (src/service/protocol.hpp), streams uploads to temp files,
/// schedules checking runs on a worker pool behind one bounded two-lane
/// queue, and serves live metrics.
///
/// Threading: ONE I/O thread runs an EventPoller (epoll on Linux) over
/// the listeners, a drain pipe, a completion pipe, and every live
/// connection — all non-blocking, so a slow or stalled uploader costs a
/// buffer, never a thread, and dead connections are reaped the moment
/// they close. N worker threads (one recycled ClauseArena each) take
/// jobs fast-lane-first, oldest-first from the one queue; finished
/// results travel back to the I/O thread over the completion pipe for
/// non-blocking delivery.
/// Ingestion never buffers a whole trace in memory — upload chunks go
/// straight to disk, and the checkers then read the file through the mmap
/// ByteSource path.
///
/// Shutdown is a *drain*: request_drain() (or a SIGTERM handler calling
/// notify_drain_from_signal()) stops accepting connections and jobs, lets
/// queued and running jobs finish, delivers their results to waiting
/// clients, then releases wait_until_drained(). Nothing is killed mid-check.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners and starts the I/O and worker threads. Throws
  /// std::runtime_error when no transport is configured or a bind fails.
  void start();

  /// Actual TCP port (resolves an ephemeral request); 0 when TCP is off.
  [[nodiscard]] std::uint16_t tcp_port() const { return tcp_port_; }

  /// Worker threads actually running (resolves workers == 0).
  [[nodiscard]] unsigned worker_count() const { return worker_count_; }

  /// Async-signal-safe drain trigger for SIGTERM/SIGINT handlers: only
  /// writes one byte to a pipe.
  void notify_drain_from_signal() noexcept { wake_pipe_.notify(); }

  /// Thread-safe drain trigger.
  void request_drain() { wake_pipe_.notify(); }

  /// Blocks until a drain completes (all jobs finished, all connections
  /// closed, listeners down).
  void wait_until_drained();

  /// request_drain() + wait_until_drained().
  void drain_and_wait();

  /// Metrics snapshot (same JSON as the protocol's stats reply): this
  /// server's registry, then the process-wide one, one key per series.
  [[nodiscard]] std::string metrics_json() const;

  /// The same samples in Prometheus text exposition format (the
  /// protocol's STATS_PROM reply).
  [[nodiscard]] std::string metrics_prometheus() const;

  [[nodiscard]] const ServerOptions& options() const { return options_; }

  /// The server's own counters (the `satproofd_*` series).
  [[nodiscard]] const ServerMetrics& metrics() const { return metrics_; }

 private:
  struct Connection;  // I/O-thread-private; defined in server.cpp

  /// Result frame (or empty wakeup for a no-wait job) travelling from a
  /// worker back to the I/O thread.
  struct CompletionMsg {
    std::uint64_t conn_key = 0;
    std::vector<std::uint8_t> frame;  ///< full wire frame; empty = no reply
  };

  void io_loop();
  void accept_ready(util::Socket& listener);
  void on_connection_event(const util::PollEvent& ev, std::uint64_t now_us);
  /// Returns false when the connection must close (after flushing).
  bool handle_frame(Connection& conn, Frame& frame);
  void process_buffered_frames(Connection& conn);
  void queue_output(Connection& conn, FrameTag tag,
                    std::span<const std::uint8_t> payload);
  void flush_output(Connection& conn);
  void destroy_connection(std::uint64_t key);
  void deliver_completions();
  void sweep_idle(std::uint64_t now_us);
  void begin_drain();
  [[nodiscard]] bool drain_complete() const;

  void worker_main();
  void execute_job(QueuedJob job, util::ClauseArena& arena);

  ServerOptions options_;
  unsigned worker_count_ = 1;
  util::Socket unix_listener_;
  util::Socket tcp_listener_;
  std::uint16_t tcp_port_ = 0;
  util::WakePipe wake_pipe_;        ///< drain trigger (async-signal-safe)
  util::WakePipe completion_pipe_;  ///< worker -> I/O thread wakeup

  JobQueue queue_;
  std::atomic<std::size_t> running_jobs_{0};
  obs::MetricsRegistry registry_;  ///< per server: counts start at zero
  ServerMetrics metrics_;
  std::atomic<std::uint64_t> next_job_id_{1};
  std::atomic<bool> draining_{false};

  /// Completion mailbox: workers push under the mutex and notify the
  /// completion pipe; the I/O thread swaps the vector out.
  std::mutex completions_mutex_;
  std::vector<CompletionMsg> completions_;

  // --- I/O-thread-only state (no locks: one owner) ----------------------
  std::unique_ptr<util::EventPoller> poller_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_conn_key_ = 16;  ///< 0-3 are listener/pipe keys
  std::size_t pending_jobs_ = 0;  ///< admitted, completion not yet handled

  std::mutex state_mutex_;
  std::condition_variable state_cv_;
  bool started_ = false;
  bool drained_ = false;

  std::vector<std::jthread> workers_;
  std::jthread io_thread_;
};

}  // namespace satproof::service
