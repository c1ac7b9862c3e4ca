#pragma once

// Small helpers shared by the benchmark's stages: clocks, order
// statistics, the attempted/failed tally, the benchmark-side span log,
// and child processes.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile, `p` in [0, 100]; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// The highest percentile that still has at least ten samples beyond it:
/// p99 from 1000 samples on, lower below that, never under p50.
[[nodiscard]] double tail_percentile(std::size_t samples);

/// Operations attempted and failed in one run. Every correctness check
/// goes through check(); the first few failures are logged to stderr.
class Tally {
 public:
  void check(bool ok, const std::string& what);
  /// Counts `n` operations that were checked elsewhere and passed.
  void passed(std::uint64_t n) { attempted_ += n; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Spans the benchmark records around each call into a library layer.
/// Disabled (the timed runs), record() is a no-op; the caller times the
/// call either way.
class SpanLog {
 public:
  struct Event {
    std::string name;   ///< layer call, e.g. "cnf.parse" or "run_check.df"
    std::string stage;  ///< benchmark stage the call belongs to
    std::string row;    ///< input row (instance name)
    std::uint64_t bytes = 0;  ///< bytes the call consumed
    int pass = 0;
    std::uint64_t start_us = 0;
    std::uint64_t dur_us = 0;
    double seconds = 0;
  };

  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_pass(int pass) { pass_ = pass; }

  void record(const std::string& name, const std::string& stage,
              const std::string& row, std::uint64_t bytes,
              Clock::time_point start, Clock::time_point end);

  /// Per-pass sums of the seconds of events matching `name` and `stage`
  /// ("" matches any stage), one entry per pass that has such events.
  [[nodiscard]] std::vector<double> per_pass_seconds(
      const std::string& name, const std::string& stage = "") const;

  /// Chrome trace-event JSON: these spans (pid 1, with their attributes)
  /// followed by `library_events`, comma-joined events of library
  /// TraceSession dumps (pid 0), which feed no metric. `other_data` is a
  /// JSON object stored under "otherData".
  [[nodiscard]] std::string chrome_json(const std::string& workload,
                                        const std::string& library_events,
                                        const std::string& other_data) const;

 private:
  bool enabled_ = false;
  int pass_ = 0;
  std::vector<Event> events_;
};

[[nodiscard]] std::uint64_t file_size(const std::string& path);
[[nodiscard]] std::string read_file(const std::string& path);

/// Runs `argv` as a child process and waits for it; true on exit code 0.
/// When `out` is non-null it receives the child's standard output.
bool run_process(const std::vector<std::string>& argv,
                 std::string* out = nullptr);

/// This process's peak resident set (VmHWM) in bytes; 0 if unknown.
/// Unlike getrusage's ru_maxrss it starts afresh at exec, so a probe
/// child does not inherit its parent's high-water mark.
[[nodiscard]] std::uint64_t own_peak_rss();

}  // namespace perfbench
