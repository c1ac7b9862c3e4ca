#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace satproof::obs {

/// Monotonically increasing counter. Counters are created once via
/// `MetricsRegistry::counter` and bumped lock-free afterwards.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Latency histogram with fixed log2 bounds, bumped lock-free: bucket i
/// counts observations of at most 2^(i+8) microseconds, from 256 us (the
/// first bucket takes everything faster) to 2^32 us (~72 min), and the
/// last one is `+Inf`. Rendered as the standard `_bucket{le}` / `_sum` /
/// `_count` series, so a consumer recovers any quantile with
/// `histogram_quantile`.
class Histogram {
 public:
  static constexpr int kFirstLog2Us = 8;
  static constexpr int kLastLog2Us = 32;
  static constexpr std::size_t kBuckets = kLastLog2Us - kFirstLog2Us + 2;

  void observe(double seconds);

  /// Upper bound of bucket `i` in seconds (infinity for the last one).
  [[nodiscard]] static double upper_bound(std::size_t i);
  /// Observations in bucket `i` alone (not cumulative).
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum_seconds() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) /
           1e9;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// A series' label pairs, rendered in order as `{key="value",...}`.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

/// One sample reported by a callback family.
struct Sample {
  Labels labels;
  double value = 0.0;
};

/// One family as a walk sees it: each sample keyed by its series,
/// `name{labels}` as the exposition writes it (a histogram contributes
/// its `_bucket`, `_sum` and `_count` series).
struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<std::pair<std::string, double>> series;
};

/// Metric families: counter and histogram handles, and callback families
/// sampled at render time for values owned elsewhere. Each satproofd
/// server owns one registry; `instance()` is the process-wide registry
/// of the `satproof_*` checker counters.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the series `name{labels}`. The reference is stable
  /// for the registry's lifetime — cache it, don't re-look-up on hot
  /// paths. A family's series render in creation order. Re-using a name
  /// for another kind of family throws std::logic_error.
  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       const Labels& labels = {});

  /// A family whose samples `collect` reports at render time. It runs
  /// under the registry's lock and must not call back into the registry.
  /// Re-using any family's name throws std::logic_error.
  void register_callback(const std::string& name, const std::string& help,
                         MetricType type,
                         std::function<std::vector<Sample>()> collect);
  /// The unlabelled case: one gauge sampled from `fn`.
  void register_gauge(const std::string& name, const std::string& help,
                      std::function<double()> fn);
  /// Runs `prepare` under the registry's lock at the start of every
  /// snapshot, before any callback: callback families that read what it
  /// sampled all read one sample.
  void before_snapshot(std::function<void()> prepare);

  /// Appends every family, in registration order, as of now.
  void snapshot(std::vector<FamilySnapshot>& out) const;

 private:
  struct Family {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    std::vector<std::string> labels;  ///< rendered label body per handle
    std::deque<Counter> counters;     // deques: stable addresses on growth
    std::deque<Histogram> histograms;
    std::function<std::vector<Sample>()> collect;  ///< callback families
  };

  /// Finds or creates `name`; throws std::logic_error on a kind clash or
  /// when a callback family's name is taken.
  Family& family(const std::string& name, const std::string& help,
                 MetricType type, bool callback);
  template <typename Handle>
  Handle& handle(const std::string& name, const std::string& help,
                 MetricType type, const Labels& labels,
                 std::deque<Handle> Family::*handles);

  mutable std::mutex mu_;
  std::deque<Family> families_;
  std::vector<std::function<void()>> prepare_;
};

/// Prometheus text exposition (HELP/TYPE comments + samples) of every
/// family of `registries`, in order.
[[nodiscard]] std::string render_prometheus(
    std::initializer_list<const MetricsRegistry*> registries);

/// The same samples as one flat JSON object keyed by series:
/// `{"satproofd_jobs_completed_total":8,"...{backend=\"df\"}":3,...}`.
[[nodiscard]] std::string render_json(
    std::initializer_list<const MetricsRegistry*> registries);

/// Well-known counters bumped by the checking paths. Grouped here so the
/// names stay consistent between backends, docs, and tests.
struct CheckerCounters {
  Counter& derivations;
  Counter& clauses_built;
  Counter& resolutions;
  Counter& arena_allocated_bytes;
  Counter& drup_propagations;
  Counter& checks_total;

  static CheckerCounters& get();
};

}  // namespace satproof::obs
