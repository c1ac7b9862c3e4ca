#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace satproof::obs {

/// One completed span, in Chrome-trace "complete event" ("ph":"X") terms.
/// `name` must point at a string literal (or otherwise outlive the sink):
/// spans are recorded on checker hot paths and must not allocate.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t start_us = 0;  ///< microseconds since process start
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;  ///< small dense id, assigned per OS thread
};

/// Collects finished spans from all threads. Threads buffer locally and
/// append in batches, so the mutex here is off the hot path.
class TraceSink {
 public:
  void append(const TraceEvent* events, std::size_t n);

  /// Chrome trace-event JSON (`{"traceEvents":[...]}`), loadable in
  /// chrome://tracing or Perfetto.
  [[nodiscard]] std::string to_chrome_json() const;

  /// Writes `to_chrome_json()` to `path`; returns false on I/O error.
  bool write_file(const std::filesystem::path& path) const;

  [[nodiscard]] std::size_t event_count() const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// Builds a nested tree of spans on ONE thread, for human-readable slow-job
/// dumps. Installed per-thread via `set_thread_collector`; spans opened on
/// other threads (e.g. the depth-first checker's lane pool) are not captured.
class SpanTreeCollector {
 public:
  void on_enter(const char* name, std::uint64_t start_us);
  void on_exit(std::uint64_t dur_us);
  /// Records an already-measured span (no nesting) under the current open
  /// span, e.g. a queue wait measured before the collector's thread ran.
  void add_leaf(const char* name, std::uint64_t start_us,
                std::uint64_t dur_us);

  /// Indented tree, one span per line with millisecond durations.
  [[nodiscard]] std::string render() const;

  [[nodiscard]] bool empty() const { return nodes_.empty(); }

 private:
  struct Node {
    const char* name = nullptr;
    std::uint64_t start_us = 0;
    std::uint64_t dur_us = 0;
    int depth = 0;
  };

  // Pre-order list with explicit depth: append-only, so on_enter/on_exit
  // stay O(1) and render is a single pass.
  std::vector<Node> nodes_;
  std::vector<std::size_t> open_;  ///< stack of indices into nodes_
};

/// Microseconds since the process-wide monotonic epoch.
std::uint64_t now_us();

/// Installs (or clears, with nullptr) the slow-job collector for the
/// calling thread. The caller keeps ownership.
void set_thread_collector(SpanTreeCollector* collector);

/// Records a span measured manually (not via the RAII Span) on the calling
/// thread. No-op when tracing is inactive.
void emit(const char* name, std::uint64_t start_us, std::uint64_t dur_us);

/// Flushes the calling thread's buffered events to the installed sink.
void flush_this_thread();

/// RAII scoped span. Cost when tracing is disabled: one relaxed atomic
/// load, one thread-local read, one branch — no allocation, no clock read.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  /// Ends the span now instead of at scope exit; idempotent.
  void finish();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_us_ = 0;
  bool active_ = false;
};

/// Installs a process-global TraceSink for its lifetime. Only one session
/// may be active at a time (last install wins). The destructor flushes the
/// calling thread and uninstalls the sink; other threads flush when their
/// buffers fill or when they exit.
class TraceSession {
 public:
  TraceSession();
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  [[nodiscard]] TraceSink& sink() { return *sink_; }
  [[nodiscard]] const std::shared_ptr<TraceSink>& sink_ptr() const {
    return sink_;
  }

 private:
  std::shared_ptr<TraceSink> sink_;
};

}  // namespace satproof::obs
