// perfbench — the repository benchmark program.
//
//   perfbench --workload suite|bigtrace --seed N --seconds S --trace 0|1
//             --workdir DIR --gen-bigtrace PATH [--trace-out FILE]
//
// Generates the workload's inputs from the seed, then measures for about
// S seconds: repeated iterations of a timed set-up, a pass of every
// end-to-end stage and a satproofd window of a closed and an open loop
// (the median set-up, the fastest pass and all windows pooled reported),
// then peak-RSS probes. Every output is checked; failures count against
// attempts. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates untraced passes with traced passes that add direct layer
// calls, writes the spans as Chrome-trace JSON to FILE, and reports the
// per-layer metrics derived from those spans.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

#include "corpus.hpp"
#include "service_load.hpp"
#include "src/obs/trace.hpp"
#include "stages.hpp"
#include "util.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 30;
  bool trace = false;
  std::string workdir;
  std::string gen_bigtrace;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
    const std::string v = argv[++i];
    if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::stoull(v);
    else if (arg == "--seconds") a.seconds = std::stod(v);
    else if (arg == "--trace") a.trace = v == "1";
    else if (arg == "--workdir") a.workdir = v;
    else if (arg == "--gen-bigtrace") a.gen_bigtrace = v;
    else if (arg == "--trace-out") a.trace_out = v;
    else throw std::runtime_error("unknown argument " + arg);
  }
  if (a.workdir.empty() || a.gen_bigtrace.empty() || a.seconds <= 0) {
    throw std::runtime_error("--workdir, --gen-bigtrace and --seconds > 0 "
                             "are required");
  }
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string provenance_json(const Args& a) {
  std::ostringstream out;
  out << "{\"workload\":\"" << a.workload << "\",\"seed\":" << a.seed
      << ",\"seconds\":" << a.seconds
      << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":\"" << cpu_model() << "\",\"compiler\":\"g++ "
      << __VERSION__ << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
      << "\"}";
  return out.str();
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"correct\": " << (tally.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << tally.attempted()
      << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// `start` plus `seconds`.
Clock::time_point after(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// The inner event array of a library TraceSession dump.
std::string library_events(const satproof::obs::TraceSink& sink) {
  const std::string json = sink.to_chrome_json();
  const auto open = json.find('[');
  const auto close = json.rfind(']');
  if (open == std::string::npos || close == std::string::npos ||
      close <= open) {
    return {};
  }
  return json.substr(open + 1, close - open - 1);
}

void append_events(std::string& all, const std::string& more) {
  if (more.find_first_not_of(" \n") == std::string::npos) return;
  if (!all.empty()) all += ",\n";
  all += more;
}

int run(const Args& args) {
  namespace fs = std::filesystem;
  const fs::path work = fs::absolute(args.workdir);
  fs::remove_all(work);
  const std::string inputs = (work / "inputs").string();
  const std::string scratch = (work / "scratch").string();
  const std::string spool = (work / "spool").string();
  fs::create_directories(scratch);
  fs::create_directories(spool);
  // satproofd spools uploads under the temp directory: keep them inside
  // the work directory, where the leftover check can see them.
  ::setenv("TMPDIR", spool.c_str(), 1);

  Tally tally;
  SpanLog spans;
  std::cerr << "perfbench: provenance " << provenance_json(args) << "\n";

  const double s = args.seconds;
  const auto start = Clock::now();

  // Set-up: once into the inputs the run uses, then again at the start of
  // every later untraced iteration below, into a directory deleted
  // afterwards, so setup_s samples the host across the run as the passes
  // do. Every repetition must produce the same bytes.
  std::vector<double> setup_s;
  std::vector<std::uint64_t> hashes;
  auto timed_set_up = [&](const std::string& dir) {
    const auto t0 = Clock::now();
    Corpus c = set_up(args.workload, args.seed, dir, args.gen_bigtrace);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    std::vector<std::uint64_t> h;
    for (const auto* rows : {&c.check, &c.solve}) {
      for (const Pair& p : *rows) h.push_back(p.trace_hash);
    }
    if (!hashes.empty()) {
      tally.check(h == hashes, "set-up is not deterministic");
    }
    hashes = h;
    return c;
  };
  const Corpus corpus = timed_set_up(inputs);
  const std::string again = (work / "setup-again").string();

  Stages stages(corpus, tally, spans, scratch);
  ServiceOptions so;
  so.closed_rounds = corpus.closed_rounds;
  so.open_rounds = corpus.open_rounds;
  so.seed = args.seed;
  so.dir = spool;

  std::map<std::string, std::vector<double>> untraced, traced, counts;
  std::vector<ServiceWindow> windows;
  std::string lib_events;
  int pass = 0;
  // Each iteration is a set-up, a pass of every stage and a satproofd
  // window: at least two (an untraced and a traced one when traced), more
  // while another fits in the S seconds since the run began, so a slow
  // host gives fewer iterations rather than a longer run.
  double last_pass_s = 0;
  while (pass < 2 || after(Clock::now(), last_pass_s) <= after(start, s)) {
    const auto pass_start = Clock::now();
    if (!args.trace && pass > 0) {
      (void)timed_set_up(again);
      fs::remove_all(again);
    }
    const bool traced_pass = args.trace && pass % 2 == 1;
    spans.set_pass(pass);
    spans.enable(traced_pass);
    Values v;
    ServiceWindow w;
    std::shared_ptr<satproof::obs::TraceSink> sink;
    {
      // The session's destructor flushes this thread's buffered spans.
      std::optional<satproof::obs::TraceSession> session;
      if (traced_pass) sink = session.emplace().sink_ptr();
      v = stages.run_pass();
      if (traced_pass) {
        for (const auto& [k, x] : stages.run_layers()) counts[k].push_back(x);
      }
      w = run_service_window(corpus, stages.df_lines(),
                             stages.certify_lines(), stages.df_seconds(),
                             stages.certify_seconds(), so, tally, spans);
    }
    if (sink) append_events(lib_events, library_events(*sink));
    auto& runs = traced_pass ? traced : untraced;
    for (const auto& [k, x] : v) runs[k].push_back(x);
    last_pass_s = seconds_between(pass_start, Clock::now());
    std::cerr << "perfbench: pass " << pass << (traced_pass ? " (traced)" : "")
              << " at " << seconds_between(start, Clock::now()) << " s:";
    for (const auto& [k, x] : v) std::cerr << " " << k << "=" << x;
    std::cerr << " | service "
              << static_cast<double>(w.closed_jobs) / w.closed_s
              << " jobs/s, p50 " << percentile(w.latency_ms, 50)
              << " ms, p90 " << percentile(w.latency_ms, 90) << " ms\n";
    windows.push_back(std::move(w));
    ++pass;
  }
  std::cerr << "perfbench: set-up " << median(setup_s) << " s, median of "
            << setup_s.size() << "\n";
  // Peak RSS is deterministic here: one set of probes per run.
  const Values rss = args.trace ? Values{} : stages.run_rss();

  // satproofd: every window pooled. A window's own figures rest on a few
  // dozen jobs whose order through the workers varies, so the best window
  // would pick the luckiest draw rather than a quiet phase of the host.
  std::uint64_t closed_jobs = 0;
  double closed_s = 0;
  std::vector<double> latency_ms, lag_ms, direct_ms, steals, bulk_share;
  for (const ServiceWindow& w : windows) {
    closed_jobs += w.closed_jobs;
    closed_s += w.closed_s;
    latency_ms.insert(latency_ms.end(), w.latency_ms.begin(),
                      w.latency_ms.end());
    lag_ms.insert(lag_ms.end(), w.lag_ms.begin(), w.lag_ms.end());
    direct_ms.insert(direct_ms.end(), w.direct_ms.begin(), w.direct_ms.end());
    steals.push_back(w.steals);
    bulk_share.push_back(w.bulk_share);
  }
  std::cerr << "perfbench: service " << windows.size() << " windows, "
            << closed_jobs << " closed-loop jobs, " << latency_ms.size()
            << " open-loop samples\n";

  std::vector<Metric> m;
  if (!args.trace) {
    // The fastest pass: contention from other tenants of a shared host
    // comes in phases of seconds to tens of seconds and only ever adds
    // time, so the minimum moves far less from run to run than the median.
    auto over_passes = [&](const char* k) {
      const auto& v = untraced[k];
      return *std::min_element(v.begin(), v.end());
    };
    m = {
        {"setup_s", "s", median(setup_s)},
        {"pipeline_s", "s", over_passes("pipeline_s")},
        {"check_df_s", "s", over_passes("check_df_s")},
        {"check_bf_s", "s", over_passes("check_bf_s")},
        {"check_hybrid_s", "s", over_passes("check_hybrid_s")},
        {"check_window_s", "s", over_passes("check_window_s")},
        {"check_parallel_s", "s", over_passes("check_parallel_s")},
        {"check_drup_s", "s", over_passes("check_drup_s")},
        {"certify_s", "s", over_passes("certify_s")},
        {"df_rss_mb", "MB", rss.at("df_rss_mb")},
        {"window_rss_mb", "MB", rss.at("window_rss_mb")},
        {"svc_jobs_per_s", "jobs/s",
         static_cast<double>(closed_jobs) / closed_s},
        {"svc_p50_ms", "ms", percentile(latency_ms, 50)},
        {"svc_p90_ms", "ms", percentile(latency_ms, 90)},
    };
  } else {
    // Per-layer metrics from the traced passes' spans (medians over
    // passes) and the layers' own counters.
    auto layer = [&](const char* name, const char* stage) {
      return median(spans.per_pass_seconds(name, stage));
    };
    auto count = [&](const char* k) { return median(counts[k]); };
    std::uint64_t cnf_bytes = 0, trace_bytes = 0;
    for (const Pair& p : corpus.check) {
      cnf_bytes += p.cnf_bytes;
      trace_bytes += p.trace_bytes;
    }
    const double parse = layer("cnf.parse", "check");
    const double decode = layer("trace.decode", "check");
    const double df = layer("checker.df", "check");
    const double parallel = layer("checker.parallel", "check");
    const double emit = layer("checker.df_emit", "check") - df;
    const double kernel = layer("cert.kernel", "check");
    const double resolutions = count("checker.resolutions");
    const double cert_bytes = count("cert.bytes");

    // Residuals: how much of an end-to-end time its layers leave
    // unexplained, in the same traced passes.
    const double check_df = layer("run_check.df", "check_df");
    const double pipeline = median(traced["pipeline_s"]);
    const double pipeline_layers =
        2 * layer("cnf.parse", "solve") + layer("solver.solve", "pipeline") +
        layer("checker.df", "solve") +
        (layer("checker.df_emit", "solve") - layer("checker.df", "solve")) +
        layer("cert.kernel", "solve");
    auto e2e_total = [](std::map<std::string, std::vector<double>>& runs) {
      double t = 0;
      for (const char* k :
           {"pipeline_s", "check_df_s", "check_bf_s", "check_hybrid_s",
            "check_window_s", "check_parallel_s", "check_drup_s",
            "certify_s"}) {
        t += median(runs[k]);
      }
      return t;
    };
    const double untraced_total = e2e_total(untraced);
    const double direct_p50 = median(direct_ms);
    m = {
        {"cnf.parse_s", "s", parse},
        {"cnf.parse_mb_per_s", "MB/s",
         static_cast<double>(cnf_bytes) / 1e6 / parse},
        {"solver.solve_s", "s", layer("solver.solve", "layer")},
        {"solver.conflicts", "count", count("solver.conflicts")},
        {"solver.trace_bytes", "bytes", count("solver.trace_bytes")},
        {"solver.trace_overhead_ratio", "ratio",
         count("solver.trace_overhead_ratio")},
        {"trace.decode_s", "s", decode},
        {"trace.decode_mb_per_s", "MB/s",
         static_cast<double>(trace_bytes) / 1e6 / decode},
        {"checker.df_s", "s", df},
        {"checker.bf_s", "s", layer("checker.bf", "check")},
        {"checker.hybrid_s", "s", layer("checker.hybrid", "check")},
        {"checker.window_s", "s", layer("checker.window", "check")},
        {"checker.parallel_s", "s", parallel},
        {"checker.drup_s", "s", layer("checker.drup", "solve")},
        {"checker.df_built_ratio", "ratio", count("checker.df_built_ratio")},
        {"checker.resolutions", "count", resolutions},
        {"checker.resolutions_per_s", "1/s", resolutions / df},
        {"checker.df_peak_bytes", "bytes", count("checker.df_peak_bytes")},
        {"checker.hybrid_peak_bytes", "bytes",
         count("checker.hybrid_peak_bytes")},
        {"checker.window_peak_bytes", "bytes",
         count("checker.window_peak_bytes")},
        {"checker.arena_recycled_ratio", "ratio",
         count("checker.arena_recycled_ratio")},
        {"checker.parallel_speedup", "ratio", df / parallel},
        {"core.clauses", "count", count("core.clauses")},
        {"core.ratio", "ratio", count("core.ratio")},
        {"cert.emit_s", "s", emit},
        {"cert.bytes", "bytes", cert_bytes},
        {"cert.additions", "count", count("cert.additions")},
        {"cert.kernel_s", "s", kernel},
        {"cert.kernel_mb_per_s", "MB/s", cert_bytes / 1e6 / kernel},
        {"service.run_ms_p50", "ms", direct_p50},
        {"service.overhead_ms_p50", "ms",
         percentile(latency_ms, 50) - direct_p50},
        {"service.steals", "count", median(steals)},
        {"service.bulk_share", "ratio", median(bulk_share)},
        {"service.generator_lag_ms_p99", "ms",
         percentile(lag_ms, tail_percentile(lag_ms.size()))},
        {"obs.tracing_overhead_pct", "%",
         (e2e_total(traced) / untraced_total - 1) * 100},
        {"residual.check_df_pct", "%",
         (check_df - parse - df) / check_df * 100},
        {"residual.pipeline_pct", "%",
         (pipeline - pipeline_layers) / pipeline * 100},
    };
    if (!args.trace_out.empty()) {
      fs::create_directories(fs::absolute(args.trace_out).parent_path());
      std::ofstream out(args.trace_out, std::ios::trunc);
      out << spans.chrome_json(args.workload, lib_events,
                               provenance_json(args));
      tally.check(static_cast<bool>(out), "write " + args.trace_out);
      std::cerr << "perfbench: spans written to " << args.trace_out << "\n";
    }
  }

  fs::remove_all(work);
  print_result(tally, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (!kOptimizedBuild) {
    std::cerr << "perfbench: refusing to report from an unoptimised or "
                 "sanitizer build\n";
    return 2;
  }
  try {
    if (argc == 6 && std::string(argv[1]) == "--rss-probe") {
      return rss_probe(argv[2], argv[3], argv[4], std::stoull(argv[5]));
    }
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
