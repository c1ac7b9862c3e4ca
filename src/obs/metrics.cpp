#include "src/obs/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/util/json.hpp"

namespace satproof::obs {
namespace {

/// Prometheus sample values are floats: integral values print as integers
/// (counters stay exact up to 2^53), anything else in the shortest form
/// that round-trips. Non-finite values print as 0. JSON reads the same
/// text as a number.
void append_value(std::string& out, double v) {
  char buf[32];
  std::to_chars_result r{};
  if (!std::isfinite(v)) v = 0.0;
  if (v >= 0 && v < 0x1p64 && v == std::floor(v)) {
    r = std::to_chars(buf, buf + sizeof(buf), static_cast<std::uint64_t>(v));
  } else {
    r = std::to_chars(buf, buf + sizeof(buf), v);
  }
  out.append(buf, r.ptr);
}

/// `key="value",...` with Prometheus label-value escaping.
std::string label_body(const Labels& labels) {
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) out += ',';
    out += key;
    out += "=\"";
    for (const char c : value) {
      if (c == '\\' || c == '"' || c == '\n') out += '\\';
      out += c == '\n' ? 'n' : c;
    }
    out += '"';
  }
  return out;
}

std::string series_key(const std::string& name, const std::string& body) {
  return body.empty() ? name : name + '{' + body + '}';
}

constexpr const char* kTypeNames[] = {"counter", "gauge", "histogram"};

/// Appends the cumulative `_bucket{le}`, `_sum` and `_count` series of
/// one histogram; `_count` is the `+Inf` bucket, so the two always agree.
void append_histogram(FamilySnapshot& f, const std::string& body,
                      const Histogram& h) {
  const std::string prefix = body.empty() ? "" : body + ',';
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    cumulative += h.bucket(i);
    std::string key = f.name + "_bucket{" + prefix + "le=\"";
    if (i + 1 < Histogram::kBuckets) {
      append_value(key, Histogram::upper_bound(i));
    } else {
      key += "+Inf";
    }
    f.series.emplace_back(key + "\"}", static_cast<double>(cumulative));
  }
  f.series.emplace_back(series_key(f.name + "_sum", body), h.sum_seconds());
  f.series.emplace_back(series_key(f.name + "_count", body),
                        static_cast<double>(cumulative));
}

std::vector<FamilySnapshot> walk(
    std::initializer_list<const MetricsRegistry*> registries) {
  std::vector<FamilySnapshot> families;
  for (const MetricsRegistry* r : registries) r->snapshot(families);
  return families;
}

}  // namespace

void Histogram::observe(double seconds) {
  if (!(seconds > 0.0)) seconds = 0.0;
  // Past 2^kLastLog2Us us (infinity too) lands in the last, +Inf bucket.
  const double us =
      std::min(seconds * 1e6, std::ldexp(1.0, kLastLog2Us + 1));
  std::size_t i = 0;
  if (us > std::ldexp(1.0, kFirstLog2Us)) {
    i = static_cast<std::size_t>(std::ceil(std::log2(us))) - kFirstLog2Us;
  }
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(static_cast<std::uint64_t>(std::min(seconds * 1e9, 1e19)),
                    std::memory_order_relaxed);
}

double Histogram::upper_bound(std::size_t i) {
  return i + 1 < kBuckets
             ? std::ldexp(1e-6, static_cast<int>(i) + kFirstLog2Us)
             : std::numeric_limits<double>::infinity();
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Family& MetricsRegistry::family(const std::string& name,
                                                 const std::string& help,
                                                 MetricType type,
                                                 bool callback) {
  auto it = std::find_if(families_.begin(), families_.end(),
                         [&](const Family& f) { return f.name == name; });
  if (it == families_.end()) {
    it = families_.emplace(it);
    it->name = name;
    it->help = help;
    it->type = type;
  } else if (callback || it->collect || it->type != type) {
    throw std::logic_error("metric " + name + " registered as another kind");
  }
  return *it;
}

template <typename Handle>
Handle& MetricsRegistry::handle(const std::string& name,
                                const std::string& help, MetricType type,
                                const Labels& labels,
                                std::deque<Handle> Family::*handles) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& f = family(name, help, type, false);
  const std::string body = label_body(labels);
  for (std::size_t i = 0; i < f.labels.size(); ++i) {
    if (f.labels[i] == body) return (f.*handles)[i];
  }
  f.labels.push_back(body);
  return (f.*handles).emplace_back();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels) {
  return handle(name, help, MetricType::kCounter, labels, &Family::counters);
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      const Labels& labels) {
  return handle(name, help, MetricType::kHistogram, labels,
                &Family::histograms);
}

void MetricsRegistry::register_callback(
    const std::string& name, const std::string& help, MetricType type,
    std::function<std::vector<Sample>()> collect) {
  std::lock_guard<std::mutex> lock(mu_);
  family(name, help, type, true).collect = std::move(collect);
}

void MetricsRegistry::register_gauge(const std::string& name,
                                     const std::string& help,
                                     std::function<double()> fn) {
  register_callback(name, help, MetricType::kGauge,
                    [fn = std::move(fn)] {
                      return std::vector<Sample>{{{}, fn()}};
                    });
}

void MetricsRegistry::before_snapshot(std::function<void()> prepare) {
  std::lock_guard<std::mutex> lock(mu_);
  prepare_.push_back(std::move(prepare));
}

void MetricsRegistry::snapshot(std::vector<FamilySnapshot>& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& prepare : prepare_) prepare();
  for (const Family& f : families_) {
    FamilySnapshot& s = out.emplace_back(f.name, f.help, f.type);
    if (f.collect) {
      for (const Sample& sample : f.collect()) {
        s.series.emplace_back(series_key(f.name, label_body(sample.labels)),
                              sample.value);
      }
    }
    for (std::size_t i = 0; i < f.counters.size(); ++i) {
      s.series.emplace_back(series_key(f.name, f.labels[i]),
                            static_cast<double>(f.counters[i].value()));
    }
    for (std::size_t i = 0; i < f.histograms.size(); ++i) {
      append_histogram(s, f.labels[i], f.histograms[i]);
    }
  }
}

std::string render_prometheus(
    std::initializer_list<const MetricsRegistry*> registries) {
  std::string out;
  for (const FamilySnapshot& f : walk(registries)) {
    out += "# HELP " + f.name + ' ' + f.help + "\n# TYPE " + f.name + ' ' +
           kTypeNames[static_cast<int>(f.type)] + '\n';
    for (const auto& [key, value] : f.series) {
      out += key;
      out += ' ';
      append_value(out, value);
      out += '\n';
    }
  }
  return out;
}

std::string render_json(
    std::initializer_list<const MetricsRegistry*> registries) {
  std::string out = "{";
  for (const FamilySnapshot& f : walk(registries)) {
    for (const auto& [key, value] : f.series) {
      if (out.size() > 1) out += ',';
      out += util::JsonWriter::escape(key);
      out += ':';
      append_value(out, value);
    }
  }
  out += '}';
  return out;
}

CheckerCounters& CheckerCounters::get() {
  const auto c = [](const char* name, const char* help) -> Counter& {
    return MetricsRegistry::instance().counter(name, help);
  };
  static CheckerCounters counters{
      c("satproof_derivations_total",
        "Trace derivation records processed by checker runs."),
      c("satproof_clauses_built_total",
        "Clauses materialized while replaying resolution proofs."),
      c("satproof_resolutions_total",
        "Pairwise resolution operations performed by checker runs."),
      c("satproof_arena_allocated_bytes_total",
        "Bytes handed out by clause arenas across checker runs."),
      c("satproof_drup_propagations_total",
        "Unit propagations performed by DRUP (RUP) checks."),
      c("satproof_checks_total", "Proof-check runs completed."),
  };
  return counters;
}

}  // namespace satproof::obs
