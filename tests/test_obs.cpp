// Unit tests for the observability layer: span recording and nesting,
// cross-thread interleaving into one sink, the slow-job span-tree
// collector, and Prometheus text exposition format.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <limits>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/service/server.hpp"
#include "src/util/temp_file.hpp"

namespace satproof::obs {
namespace {

// ---------------------------------------------------------------- tracing

TEST(ObsTrace, SpanOutsideSessionRecordsNothing) {
  { Span span("orphan"); }
  TraceSession session;
  flush_this_thread();
  EXPECT_EQ(session.sink().event_count(), 0u);
}

TEST(ObsTrace, NestedSpansLandInTheSinkWithContainment) {
  TraceSession session;
  {
    Span outer("outer");
    {
      Span inner("inner");
    }
  }
  flush_this_thread();
  const std::string json = session.sink().to_chrome_json();
  ASSERT_EQ(session.sink().event_count(), 2u);

  // Spans close inner-first, so "inner" precedes "outer" in the buffer.
  // Containment: inner's [ts, ts+dur] within outer's.
  const std::regex ev(
      "\\{\"name\":\"(\\w+)\",\"ph\":\"X\",\"ts\":(\\d+),\"dur\":(\\d+)");
  std::sregex_iterator it(json.begin(), json.end(), ev), end;
  std::uint64_t inner_ts = 0, inner_end = 0, outer_ts = 0, outer_end = 0;
  int seen = 0;
  for (; it != end; ++it, ++seen) {
    const std::uint64_t ts = std::stoull((*it)[2]);
    const std::uint64_t dur = std::stoull((*it)[3]);
    if ((*it)[1] == "inner") {
      inner_ts = ts;
      inner_end = ts + dur;
    } else if ((*it)[1] == "outer") {
      outer_ts = ts;
      outer_end = ts + dur;
    }
  }
  EXPECT_EQ(seen, 2);
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_end, outer_end);
}

TEST(ObsTrace, ChromeJsonShapeIsValid) {
  TraceSession session;
  { Span span("stage"); }
  flush_this_thread();
  const std::string json = session.sink().to_chrome_json();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

TEST(ObsTrace, WriteFileRoundTrips) {
  util::TempFile out("obs-trace");
  {
    TraceSession session;
    { Span span("stage"); }
    flush_this_thread();
    ASSERT_TRUE(session.sink().write_file(out.path()));
  }
  std::ifstream in(out.path());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"name\":\"stage\""), std::string::npos);
}

TEST(ObsTrace, ThreadsInterleaveIntoOneSinkWithDistinctTids) {
  TraceSession session;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 300;  // crosses the flush threshold
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span("worker_span");
      }
      // Remaining events flush via the thread-exit destructor.
    });
  }
  for (auto& t : threads) t.join();
  { Span span("main_span"); }
  flush_this_thread();

  EXPECT_EQ(session.sink().event_count(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread + 1);
  const std::string json = session.sink().to_chrome_json();
  const std::regex tid_re("\"tid\":(\\d+)");
  std::set<std::string> tids;
  for (std::sregex_iterator it(json.begin(), json.end(), tid_re), end;
       it != end; ++it) {
    tids.insert((*it)[1]);
  }
  EXPECT_GE(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST(ObsTrace, StaleBufferedEventsDoNotLeakIntoANewSession) {
  // A worker records a span under session 1 but holds it buffered past
  // session 1's death; when the buffer finally flushes (thread exit),
  // the generation mismatch must discard it instead of delivering it to
  // session 2's sink.
  std::optional<TraceSession> first(std::in_place);
  std::atomic<bool> recorded{false};
  std::atomic<bool> release{false};
  std::thread worker([&] {
    { Span span("stale_event"); }
    recorded.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!recorded.load()) std::this_thread::yield();
  first.reset();  // session 1 dies with the event still thread-buffered

  TraceSession fresh;
  release.store(true);
  worker.join();  // thread-exit flush sees a newer generation
  { Span span("fresh_span"); }
  flush_this_thread();
  const std::string json = fresh.sink().to_chrome_json();
  EXPECT_NE(json.find("fresh_span"), std::string::npos);
  EXPECT_EQ(json.find("stale_event"), std::string::npos);
}

TEST(ObsTrace, EmitRecordsAManualSpan) {
  TraceSession session;
  emit("manual", now_us(), 123);
  flush_this_thread();
  const std::string json = session.sink().to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"manual\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":123"), std::string::npos);
}

// ---------------------------------------------------- span-tree collector

TEST(ObsSpanTree, CollectorBuildsAnIndentedTree) {
  SpanTreeCollector collector;
  set_thread_collector(&collector);
  {
    Span outer("run");
    {
      Span inner("parse");
    }
    {
      Span inner("replay");
    }
  }
  collector.add_leaf("queue_wait", 0, 1500);
  set_thread_collector(nullptr);

  const std::string tree = collector.render();
  // "run" at depth 0; parse/replay nested one level below.
  EXPECT_NE(tree.find("run "), std::string::npos);
  EXPECT_NE(tree.find("\n  parse "), std::string::npos);
  EXPECT_NE(tree.find("\n  replay "), std::string::npos);
  EXPECT_NE(tree.find("queue_wait 1.500 ms"), std::string::npos);
}

TEST(ObsSpanTree, CollectorWorksWithoutATraceSession) {
  // Slow-job profiling must not require a global trace sink.
  SpanTreeCollector collector;
  set_thread_collector(&collector);
  { Span span("solo"); }
  set_thread_collector(nullptr);
  EXPECT_FALSE(collector.empty());
  EXPECT_NE(collector.render().find("solo"), std::string::npos);

  // And spans after uninstall are ignored.
  { Span span("after"); }
  EXPECT_EQ(collector.render().find("after"), std::string::npos);
}

// ---------------------------------------------------------------- metrics

/// Every non-comment, non-blank line of a Prometheus exposition must be
/// `name{labels} value` with a parseable float value.
void expect_wellformed_prometheus(const std::string& text) {
  const std::regex sample(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.eE+-]+$)");
  const std::regex comment(R"(^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$)");
  std::istringstream in(text);
  std::string line;
  int samples = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(std::regex_match(line, comment)) << "bad comment: " << line;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample)) << "bad sample: " << line;
      ++samples;
    }
  }
  EXPECT_GT(samples, 0);
}

TEST(ObsMetrics, RegistryCountersAccumulateAndRender) {
  Counter& c = MetricsRegistry::instance().counter(
      "satproof_test_counter_total", "Test counter.");
  const std::uint64_t before = c.value();
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), before + 42);

  // Same name returns the same counter.
  Counter& again = MetricsRegistry::instance().counter(
      "satproof_test_counter_total", "Test counter.");
  EXPECT_EQ(&again, &c);

  const std::string text = render_prometheus({&MetricsRegistry::instance()});
  EXPECT_NE(text.find("# HELP satproof_test_counter_total Test counter."),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE satproof_test_counter_total counter"),
            std::string::npos);
  expect_wellformed_prometheus(text);
}

TEST(ObsMetrics, GaugesSampleTheirCallbackAtRenderTime) {
  MetricsRegistry registry;
  double value = 1.0;
  registry.register_gauge("satproof_test_gauge", "Test gauge.",
                          [&value] { return value; });
  std::string text = render_prometheus({&registry});
  EXPECT_NE(text.find("satproof_test_gauge 1"), std::string::npos);
  value = 7.5;
  text = render_prometheus({&registry});
  EXPECT_NE(text.find("satproof_test_gauge 7.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE satproof_test_gauge gauge"), std::string::npos);
  // A callback family is registered once; its name is not re-bound.
  EXPECT_THROW(registry.register_gauge("satproof_test_gauge", "Test gauge.",
                                       [] { return 0.0; }),
               std::logic_error);
  EXPECT_NE(render_prometheus({&registry}).find("satproof_test_gauge 7.5"),
            std::string::npos);
}

TEST(ObsMetrics, LabelledCountersAreStableHandlesInCreationOrder) {
  MetricsRegistry registry;
  Counter& df =
      registry.counter("t_jobs_total", "Jobs.", {{"backend", "df"}});
  Counter& bf =
      registry.counter("t_jobs_total", "Jobs.", {{"backend", "bf"}});
  EXPECT_NE(&df, &bf);
  EXPECT_EQ(&registry.counter("t_jobs_total", "Jobs.", {{"backend", "df"}}),
            &df);
  Counter& odd = registry.counter("t_odd_total", "Odd.",
                                  {{"worker", "0"}, {"name", "a\"b\\c"}});
  df.inc(2);
  bf.inc();
  odd.inc();
  EXPECT_EQ(render_prometheus({&registry}),
            "# HELP t_jobs_total Jobs.\n"
            "# TYPE t_jobs_total counter\n"
            "t_jobs_total{backend=\"df\"} 2\n"
            "t_jobs_total{backend=\"bf\"} 1\n"
            "# HELP t_odd_total Odd.\n"
            "# TYPE t_odd_total counter\n"
            "t_odd_total{worker=\"0\",name=\"a\\\"b\\\\c\"} 1\n");
  EXPECT_THROW(registry.histogram("t_jobs_total", "Jobs."), std::logic_error);
  EXPECT_THROW(
      registry.register_gauge("t_jobs_total", "Jobs.", [] { return 1.0; }),
      std::logic_error);
}

TEST(ObsMetrics, HistogramRendersCumulativeLog2Buckets) {
  MetricsRegistry registry;
  Histogram& h =
      registry.histogram("t_seconds", "Latency.", {{"backend", "df"}});
  h.observe(0.0);      // bucket 0: up to 2^8 us, and everything faster
  h.observe(256e-6);   // bucket 0: the bound is inclusive
  h.observe(300e-6);   // bucket 1: up to 2^9 us
  h.observe(1.0);      // 2^19.9 us: bucket 12, up to 2^20 us
  h.observe(1e9);      // past every bound: +Inf
  h.observe(-1.0);     // clamped to 0
  EXPECT_EQ(Histogram::kBuckets, 26u);  // 2^8 .. 2^32 us, then +Inf
  EXPECT_EQ(Histogram::upper_bound(0), 0.000256);
  EXPECT_EQ(Histogram::upper_bound(19), 134.217728);
  EXPECT_EQ(Histogram::upper_bound(Histogram::kBuckets - 2), 4294.967296);
  EXPECT_EQ(Histogram::upper_bound(Histogram::kBuckets - 1),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.bucket(0), 3u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(12), 1u);
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 1u);
  Histogram edge;
  edge.observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(edge.bucket(Histogram::kBuckets - 1), 1u);
  edge.observe(4294.967296);  // the last finite bound is inclusive too
  EXPECT_EQ(edge.bucket(Histogram::kBuckets - 2), 1u);

  const std::string text = render_prometheus({&registry});
  expect_wellformed_prometheus(text);
  EXPECT_EQ(text.rfind("# HELP t_seconds Latency.\n# TYPE t_seconds histogram\n"
                       "t_seconds_bucket{backend=\"df\",le=\"0.000256\"} 3\n"
                       "t_seconds_bucket{backend=\"df\",le=\"0.000512\"} 4\n"
                       "t_seconds_bucket{backend=\"df\",le=\"0.001024\"} 4\n",
                       0),
            0u)
      << text;
  EXPECT_NE(text.find("t_seconds_bucket{backend=\"df\",le=\"0.524288\"} 4\n"
                      "t_seconds_bucket{backend=\"df\",le=\"1.048576\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("t_seconds_bucket{backend=\"df\",le=\"4294.967296\"} "
                      "5\n"
                      "t_seconds_bucket{backend=\"df\",le=\"+Inf\"} 6\n"
                      "t_seconds_sum{backend=\"df\"} 1000000001.000556\n"
                      "t_seconds_count{backend=\"df\"} 6\n"),
            std::string::npos)
      << text;
}

TEST(ObsMetrics, CallbackFamiliesAndJsonShareOneWalk) {
  MetricsRegistry registry;
  registry.counter("t_total", "Total.").inc(3);
  std::vector<Sample> lanes = {{{{"lane", "fast"}}, 4},
                               {{{"lane", "bulk"}}, 0}};
  registry.register_callback("t_lane_total", "By lane.", MetricType::kCounter,
                             [&lanes] { return lanes; });
  registry.register_gauge("t_ratio", "Ratio.", [] { return 0.25; });
  EXPECT_EQ(render_json({&registry}),
            "{\"t_total\":3,\"t_lane_total{lane=\\\"fast\\\"}\":4,"
            "\"t_lane_total{lane=\\\"bulk\\\"}\":0,\"t_ratio\":0.25}");
  lanes[1].value = 7;  // sampled again at the next render
  EXPECT_EQ(render_prometheus({&registry}),
            "# HELP t_total Total.\n# TYPE t_total counter\nt_total 3\n"
            "# HELP t_lane_total By lane.\n# TYPE t_lane_total counter\n"
            "t_lane_total{lane=\"fast\"} 4\nt_lane_total{lane=\"bulk\"} 7\n"
            "# HELP t_ratio Ratio.\n# TYPE t_ratio gauge\nt_ratio 0.25\n");
  EXPECT_THROW(registry.counter("t_ratio", "Ratio."), std::logic_error);
}

TEST(ObsMetrics, ServiceSnapshotExposesQueueBackendsAndCheckerCounters) {
  service::SchedulerSnapshot scheduler;
  scheduler.queue_depth = 3;
  scheduler.queue_capacity = 64;
  scheduler.running_jobs = 1;
  scheduler.workers = 2;
  MetricsRegistry registry;
  service::ServerMetrics m(registry, [&scheduler] { return scheduler; });
  m.connections.inc();
  for (int i = 0; i < 4; ++i) m.record_accepted(service::Lane::kFast);
  m.record_completed(service::Backend::kDf, 0.010, true, 4096);
  m.slow_jobs.inc();
  // Make sure the process-wide checker counters exist (they are created on
  // first use by run_check; tests may run before any check).
  (void)CheckerCounters::get();

  const std::string text =
      render_prometheus({&registry, &MetricsRegistry::instance()});
  expect_wellformed_prometheus(text);
  EXPECT_NE(text.find("satproofd_queue_depth 3"), std::string::npos);
  EXPECT_NE(text.find("satproofd_running_jobs 1"), std::string::npos);
  EXPECT_NE(text.find("satproofd_workers 2"), std::string::npos);
  EXPECT_NE(text.find("satproofd_jobs_accepted_total 4"), std::string::npos);
  EXPECT_NE(text.find("satproofd_lane_jobs_enqueued_total{lane=\"fast\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("satproofd_lane_jobs_enqueued_total{lane=\"bulk\"} 0"),
            std::string::npos);
  EXPECT_EQ(text.find("satproofd_worker_"), std::string::npos);
  EXPECT_NE(text.find("satproofd_jobs_completed_total 1"), std::string::npos);
  EXPECT_NE(text.find("satproofd_slow_jobs_total 1"), std::string::npos);
  EXPECT_NE(
      text.find("satproofd_backend_jobs_completed_total{backend=\"df\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "satproofd_backend_jobs_completed_total{backend=\"parallel\"} 0"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE satproof_resolutions_total counter"),
            std::string::npos);
}

TEST(ObsMetrics, ServiceSamplesTheSchedulerOncePerRender) {
  // Each call returns a later moment: one more job queued and running.
  int calls = 0;
  MetricsRegistry registry;
  service::ServerMetrics m(registry, [&calls] {
    ++calls;
    service::SchedulerSnapshot s;
    s.queue_depth = static_cast<std::size_t>(calls);
    s.running_jobs = s.queue_depth;
    s.workers = 2;
    return s;
  });
  EXPECT_EQ(calls, 0);
  const std::string text = render_prometheus({&registry});
  EXPECT_EQ(calls, 1);
  EXPECT_NE(text.find("satproofd_queue_depth 1\n"), std::string::npos);
  EXPECT_NE(text.find("satproofd_running_jobs 1\n"), std::string::npos);
  EXPECT_NE(text.find("satproofd_workers 2\n"), std::string::npos);
  (void)render_json({&registry});
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace satproof::obs
