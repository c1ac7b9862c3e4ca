#include "src/obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "src/util/json.hpp"

namespace satproof::obs {
namespace {

using Clock = std::chrono::steady_clock;

/// Process-wide monotonic epoch so timestamps from different threads and
/// different sessions share one origin.
Clock::time_point process_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

// Forces epoch initialization before main() on most toolchains; harmless
// (and self-correcting via the static above) when it isn't.
const Clock::time_point g_epoch_init = process_epoch();

std::atomic<bool> g_enabled{false};
/// Bumped on every session install; stale thread buffers from a previous
/// session detect the mismatch and discard instead of leaking old events
/// into the new sink.
std::atomic<std::uint64_t> g_generation{0};

std::mutex g_sink_mu;
std::shared_ptr<TraceSink> g_sink;  // guarded by g_sink_mu

std::shared_ptr<TraceSink> current_sink() {
  std::lock_guard<std::mutex> lock(g_sink_mu);
  return g_sink;
}

std::uint32_t next_tid() {
  static std::atomic<std::uint32_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

constexpr std::size_t kFlushThreshold = 256;

/// Per-thread event buffer. Flushed when full, on explicit flush, and at
/// thread exit (the destructor), so short-lived pool threads still deliver
/// their spans.
struct ThreadBuffer {
  std::uint32_t tid = next_tid();
  std::uint64_t generation = 0;
  std::vector<TraceEvent> events;

  ~ThreadBuffer() { flush(); }

  void push(const TraceEvent& ev) {
    const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
    if (gen != generation) {
      events.clear();
      generation = gen;
    }
    events.push_back(ev);
    if (events.size() >= kFlushThreshold) flush();
  }

  void flush() {
    if (events.empty()) return;
    if (generation == g_generation.load(std::memory_order_acquire)) {
      if (std::shared_ptr<TraceSink> sink = current_sink()) {
        sink->append(events.data(), events.size());
      }
    }
    events.clear();
  }
};

thread_local ThreadBuffer t_buffer;
thread_local SpanTreeCollector* t_collector = nullptr;

}  // namespace

// ---------------------------------------------------------------------------
// TraceSink

void TraceSink::append(const TraceEvent* events, std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.insert(events_.end(), events, events + n);
}

std::size_t TraceSink::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string TraceSink::to_chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  util::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const TraceEvent& ev : events_) {
    w.begin_object();
    w.key("name");
    w.value(ev.name);
    w.key("ph");
    w.value("X");
    w.key("ts");
    w.value(ev.start_us);
    w.key("dur");
    w.value(ev.dur_us);
    w.key("pid");
    w.value(std::uint64_t{1});
    w.key("tid");
    w.value(static_cast<std::uint64_t>(ev.tid));
    w.end_object();
  }
  w.end_array();
  w.key("displayTimeUnit");
  w.value("ms");
  w.end_object();
  return w.take();
}

bool TraceSink::write_file(const std::filesystem::path& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) return false;
  out << to_chrome_json() << "\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// SpanTreeCollector

void SpanTreeCollector::on_enter(const char* name, std::uint64_t start_us) {
  Node node;
  node.name = name;
  node.start_us = start_us;
  node.depth = static_cast<int>(open_.size());
  open_.push_back(nodes_.size());
  nodes_.push_back(node);
}

void SpanTreeCollector::on_exit(std::uint64_t dur_us) {
  if (open_.empty()) return;  // unbalanced exit: tolerate, don't crash
  nodes_[open_.back()].dur_us = dur_us;
  open_.pop_back();
}

void SpanTreeCollector::add_leaf(const char* name, std::uint64_t start_us,
                                 std::uint64_t dur_us) {
  Node node;
  node.name = name;
  node.start_us = start_us;
  node.dur_us = dur_us;
  node.depth = static_cast<int>(open_.size());
  nodes_.push_back(node);
}

std::string SpanTreeCollector::render() const {
  std::string out;
  for (const Node& node : nodes_) {
    out.append(static_cast<std::size_t>(2 * node.depth), ' ');
    out += node.name;
    out += ' ';
    const double ms = static_cast<double>(node.dur_us) / 1e3;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", ms);
    out += buf;
    out += " ms\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Free functions

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            process_epoch())
          .count());
}

void set_thread_collector(SpanTreeCollector* collector) {
  t_collector = collector;
}

void emit(const char* name, std::uint64_t start_us, std::uint64_t dur_us) {
  if (g_enabled.load(std::memory_order_relaxed)) {
    TraceEvent ev;
    ev.name = name;
    ev.start_us = start_us;
    ev.dur_us = dur_us;
    ev.tid = t_buffer.tid;
    t_buffer.push(ev);
  }
  if (t_collector != nullptr) {
    t_collector->add_leaf(name, start_us, dur_us);
  }
}

void flush_this_thread() { t_buffer.flush(); }

// ---------------------------------------------------------------------------
// Span

Span::Span(const char* name) {
  const bool sink_on = g_enabled.load(std::memory_order_relaxed);
  SpanTreeCollector* collector = t_collector;
  if (!sink_on && collector == nullptr) return;  // disabled fast path
  active_ = true;
  name_ = name;
  start_us_ = now_us();
  if (collector != nullptr) collector->on_enter(name, start_us_);
}

Span::~Span() { finish(); }

void Span::finish() {
  if (!active_) return;
  active_ = false;
  const std::uint64_t dur = now_us() - start_us_;
  if (g_enabled.load(std::memory_order_relaxed)) {
    TraceEvent ev;
    ev.name = name_;
    ev.start_us = start_us_;
    ev.dur_us = dur;
    ev.tid = t_buffer.tid;
    t_buffer.push(ev);
  }
  if (t_collector != nullptr) t_collector->on_exit(dur);
}

// ---------------------------------------------------------------------------
// TraceSession

TraceSession::TraceSession() : sink_(std::make_shared<TraceSink>()) {
  {
    std::lock_guard<std::mutex> lock(g_sink_mu);
    g_sink = sink_;
  }
  g_generation.fetch_add(1, std::memory_order_acq_rel);
  g_enabled.store(true, std::memory_order_release);
}

TraceSession::~TraceSession() {
  flush_this_thread();
  g_enabled.store(false, std::memory_order_release);
  // Bump the generation so threads still holding buffered events for this
  // session discard them instead of delivering to a future sink.
  g_generation.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(g_sink_mu);
  if (g_sink == sink_) g_sink.reset();
}

}  // namespace satproof::obs
