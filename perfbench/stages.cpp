#include "stages.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "src/cert/kernel.hpp"
#include "src/cert/lrat_emitter.hpp"
#include "src/checker/breadth_first.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/drup.hpp"
#include "src/checker/hybrid.hpp"
#include "src/checker/parallel.hpp"
#include "src/checker/window.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/service/run_check.hpp"
#include "src/trace/binary.hpp"

namespace perfbench {

namespace service = satproof::service;
namespace checker = satproof::checker;
using service::Backend;

namespace {

constexpr unsigned kParallelJobs = 4;

bool verified(const service::JobOutcome& o) {
  return o.ok && service::verdict_line(o).rfind("VERIFIED", 0) == 0;
}

/// Kernel-verifies `cert_path` against `cnf_path`.
satproof::kern::VerifyResult kernel_verify(const std::string& cnf_path,
                                           const std::string& cert_path) {
  std::ifstream cnf(cnf_path, std::ios::binary);
  std::ifstream cert(cert_path, std::ios::binary);
  if (!cnf || !cert) {
    satproof::kern::VerifyResult r;
    r.error = "cannot open " + cnf_path + " or " + cert_path;
    return r;
  }
  return satproof::kern::verify_lrat(cnf, cert);
}

}  // namespace

Stages::Stages(const Corpus& corpus, Tally& tally, SpanLog& spans,
               std::string scratch)
    : corpus_(corpus), tally_(tally), spans_(spans),
      scratch_(std::move(scratch)) {}

Values Stages::run_pass() {
  Values t;
  const bool first = df_lines_.empty();
  const std::string cert_path = scratch_ + "/pass.lrat";

  // Adds `seconds` to the stage's total and to its row's.
  auto add = [&](const char* stage, const Pair& p, double seconds) {
    const std::string key = std::string(stage) + "_s";
    t[key] += seconds;
    t[key + "/" + p.name] += seconds;
  };

  // One run_check call, timed and spanned under `stage`.
  auto timed_check = [&](const char* stage, const Pair& p,
                         const std::string& trace, Backend b,
                         std::size_t mem_limit = 0,
                         const service::CertOptions& cert = {}) {
    const auto t0 = Clock::now();
    service::JobOutcome o =
        service::run_check(p.cnf, trace, b, kParallelJobs, nullptr, cert,
                           mem_limit);
    const auto t1 = Clock::now();
    spans_.record(std::string("run_check.") + service::backend_name(b), stage,
                  p.name, p.cnf_bytes + file_size(trace), t0, t1);
    add(stage, p, seconds_between(t0, t1));
    return o;
  };

  // df + text LRAT to a file, then the trusted kernel; returns the outcome
  // and adds the kernel's share to the stage's time.
  auto certify = [&](const char* stage, const Pair& p,
                     const std::string& trace) {
    service::JobOutcome o;
    {
      std::ofstream sink(cert_path, std::ios::binary | std::ios::trunc);
      o = timed_check(stage, p, trace, Backend::kDf, 0,
                      service::CertOptions{&sink, false});
    }
    const auto t0 = Clock::now();
    const auto k = kernel_verify(p.cnf, cert_path);
    const auto t1 = Clock::now();
    spans_.record("kern.verify_lrat", stage, p.name, file_size(cert_path), t0,
                  t1);
    add(stage, p, seconds_between(t0, t1));
    tally_.check(verified(o) && k.verified && k.additions == o.cert_additions,
                 std::string(stage) + " " + p.name + ": kernel " +
                     (k.verified ? "VERIFIED" : "REJECTED " + k.error));
    return o;
  };

  df_seconds_.assign(corpus_.check.size(), 0);
  certify_seconds_.assign(corpus_.check.size(), 0);
  for (std::size_t i = 0; i < corpus_.check.size(); ++i) {
    const Pair& p = corpus_.check[i];
    const double df_before = t["check_df_s"];
    const auto df = timed_check("check_df", p, p.trace, Backend::kDf);
    df_seconds_[i] = t["check_df_s"] - df_before;
    tally_.check(verified(df), "df " + p.name + ": " + df.error);
    for (const Backend b : {Backend::kBf, Backend::kHybrid}) {
      const char* stage = b == Backend::kBf ? "check_bf" : "check_hybrid";
      const auto o = timed_check(stage, p, p.trace, b);
      tally_.check(verified(o), std::string(stage) + " " + p.name + ": " +
                                    o.error);
    }
    // Window and parallel replay exactly the cone df builds: the counts
    // and the core must be byte-identical to df's.
    const auto same_as_df = [&](const service::JobOutcome& o) {
      return o.stats.resolutions == df.stats.resolutions &&
             o.stats.clauses_built == df.stats.clauses_built &&
             o.stats.core_original_clauses == df.stats.core_original_clauses;
    };
    const auto win = timed_check("check_window", p, p.trace, Backend::kWindow,
                                 corpus_.window_budget);
    tally_.check(verified(win) && same_as_df(win),
                 "window " + p.name + " differs from df: " + win.error);
    const auto par = timed_check("check_parallel", p, p.trace,
                                 Backend::kParallel);
    tally_.check(verified(par) && same_as_df(par),
                 "parallel " + p.name + " differs from df: " + par.error);
    const double certify_before = t["certify_s"];
    const auto cert = certify("certify", p, p.trace);
    certify_seconds_[i] = t["certify_s"] - certify_before;
    if (first) {
      df_lines_.push_back(service::verdict_line(df));
      certify_lines_.push_back(service::verdict_line(cert));
    }
  }

  const std::string pipe_trace = scratch_ + "/pipeline.trace";
  for (const Pair& p : corpus_.solve) {
    // solve with a binary trace -> df check with core + LRAT -> kernel.
    auto t0 = Clock::now();
    const satproof::Formula f = satproof::dimacs::parse_file(p.cnf);
    auto t1 = Clock::now();
    spans_.record("cnf.parse", "pipeline", p.name, p.cnf_bytes, t0, t1);
    const SolveOutcome s = solve_to_files(f, pipe_trace, "");
    const auto t2 = Clock::now();
    spans_.record("solver.solve", "pipeline", p.name, file_size(pipe_trace),
                  t1, t2);
    add("pipeline", p, seconds_between(t0, t2));
    (void)certify("pipeline", p, pipe_trace);
    // The solver is deterministic: the pipeline must reproduce set-up's
    // trace byte for byte.
    tally_.check(s.unsat && fnv1a_file(pipe_trace) == p.trace_hash,
                 "pipeline " + p.name + ": trace differs from set-up's");

    if (!p.drup.empty()) {
      const auto d = timed_check("check_drup", p, p.drup, Backend::kDrup);
      tally_.check(verified(d), "drup " + p.name + ": " + d.error);
    }
  }
  return t;
}

Values Stages::run_rss() {
  // Each probe is a fresh exec of this binary (see rss_probe()) that
  // reports its own peak, so it counts every page the check touches; a
  // forked child would reuse the parent's resident heap. The no-op
  // probe's peak (the loaded binary) is the baseline.
  const Pair& p = corpus_.check[corpus_.rss_index];
  auto probe = [&](const std::string& backend) {
    std::string out;
    const bool ok = run_process({"/proc/self/exe", "--rss-probe", backend,
                                 p.cnf, p.trace,
                                 std::to_string(corpus_.window_budget)},
                                &out);
    const double rss = ok ? std::strtod(out.c_str(), nullptr) : 0;
    tally_.check(rss > 0, backend + " RSS probe on " + p.name);
    return rss;
  };
  const double base = probe("noop");
  return {{"df_rss_mb", (probe("df") - base) / 1e6},
          {"window_rss_mb", (probe("window") - base) / 1e6}};
}

int rss_probe(const std::string& backend, const std::string& cnf,
              const std::string& trace, std::size_t window_budget) {
  if (backend != "noop") {
    const auto b = service::backend_from_name(backend);
    if (!b) return 2;
    // A budget on df would downgrade it to window: window only.
    const std::size_t budget = *b == Backend::kWindow ? window_budget : 0;
    if (!verified(service::run_check(cnf, trace, *b, 0, nullptr, {}, budget))) {
      return 1;
    }
  }
  std::printf("%llu\n", static_cast<unsigned long long>(own_peak_rss()));
  return 0;
}

Values Stages::run_layers() {
  Values n;
  const std::string cert_path = scratch_ + "/layer.lrat";

  // Times `fn` as one span; returns its result.
  auto span = [&](const char* name, const char* stage, const Pair& p,
                  std::uint64_t bytes, auto&& fn) {
    const auto t0 = Clock::now();
    auto r = fn();
    spans_.record(name, stage, p.name, bytes, t0, Clock::now());
    return r;
  };
  auto open = [](const std::string& trace) {
    return satproof::trace::open_binary_trace_file(trace);
  };

  struct Row {
    satproof::Formula f;
    checker::CheckResult df;
    checker::CheckStats hybrid, window;
    std::uint64_t additions = 0;
    std::uint64_t cert_bytes = 0;
  };
  // One row's layer calls, in the order the timed pass makes the matching
  // run_check calls: parse, decode, df (then bf, hybrid, window and
  // parallel when `all_backends`), df with the LRAT emitter, the kernel.
  auto layer_row = [&](const char* stage, const Pair& p, bool all_backends) {
    Row row;
    row.f = span("cnf.parse", stage, p, p.cnf_bytes,
                 [&] { return satproof::dimacs::parse_file(p.cnf); });
    const satproof::Formula& f = row.f;
    const std::uint64_t tb = p.trace_bytes;
    const std::uint64_t records = span("trace.decode", stage, p, tb, [&] {
      auto reader = open(p.trace);
      satproof::trace::Record r;
      std::uint64_t count = 0;
      while (reader->next(r)) ++count;
      return count;
    });
    tally_.check(records > 0, "decode " + p.name);

    row.df = span("checker.df", stage, p, tb, [&] {
      auto reader = open(p.trace);
      return checker::check_depth_first(f, *reader);
    });
    tally_.check(row.df.ok, "direct df " + p.name + ": " + row.df.error);

    if (all_backends) {
      // Options as run_check sets them.
      const auto bf = span("checker.bf", stage, p, tb, [&] {
        auto reader = open(p.trace);
        return checker::check_breadth_first(f, *reader);
      });
      const auto hy = span("checker.hybrid", stage, p, tb, [&] {
        auto reader = open(p.trace);
        return checker::check_hybrid(f, *reader);
      });
      const auto win = span("checker.window", stage, p, tb, [&] {
        auto reader = open(p.trace);
        checker::WindowOptions o;
        o.mem_limit_bytes = corpus_.window_budget;
        // Off in run_check; on here to compare the core with df's. It is
        // one scan over marks the check keeps anyway.
        o.collect_core = true;
        return checker::check_window(f, *reader, o);
      });
      const auto par = span("checker.parallel", stage, p, tb, [&] {
        auto reader = open(p.trace);
        checker::ParallelOptions o;
        o.jobs = kParallelJobs;
        return checker::check_parallel(f, *reader, o);
      });
      tally_.check(bf.ok && hy.ok && win.ok && par.ok &&
                       win.core == row.df.core && par.core == row.df.core,
                   "direct bf/hybrid/window/parallel " + p.name);
      row.hybrid = hy.stats;
      row.window = win.stats;
    }

    // df again with the LRAT emitter streaming to a file.
    const bool emitted = span("checker.df_emit", stage, p, tb, [&] {
      std::ofstream sink(cert_path, std::ios::binary | std::ios::trunc);
      satproof::cert::TextLratWriter writer(sink);
      satproof::cert::LratEmitter emitter(writer, f.num_clauses());
      checker::DepthFirstOptions o;
      o.observer = &emitter;
      auto reader = open(p.trace);
      const auto r = checker::check_depth_first(f, *reader, o);
      writer.finish();
      row.additions = emitter.additions();
      return r.ok && emitter.finished() && writer.ok();
    });
    tally_.check(emitted, "direct emit " + p.name);
    row.cert_bytes = file_size(cert_path);
    const auto k = span("cert.kernel", stage, p, row.cert_bytes,
                        [&] { return kernel_verify(p.cnf, cert_path); });
    tally_.check(k.verified, "direct kernel " + p.name + ": " + k.error);
    return row;
  };

  std::uint64_t built = 0, derivations = 0, resolutions = 0, core = 0,
                clauses = 0, recycled = 0, allocated = 0;
  double df_peak = 0, hybrid_peak = 0, window_peak = 0, cert_bytes = 0,
         additions = 0;
  for (const Pair& p : corpus_.check) {
    const Row row = layer_row("check", p, true);
    const checker::CheckStats& df = row.df.stats;
    built += df.clauses_built;
    derivations += df.total_derivations;
    resolutions += df.resolutions;
    core += df.core_original_clauses;
    clauses += row.f.num_clauses();
    df_peak = std::max(df_peak, static_cast<double>(df.peak_mem_bytes));
    hybrid_peak = std::max(hybrid_peak,
                           static_cast<double>(row.hybrid.peak_mem_bytes));
    window_peak = std::max(window_peak,
                           static_cast<double>(row.window.peak_mem_bytes));
    for (const auto* s : {&row.hybrid, &row.window}) {
      recycled += s->arena_recycled_bytes;
      allocated += s->arena_allocated_bytes;
    }
    additions += static_cast<double>(row.additions);
    cert_bytes += static_cast<double>(row.cert_bytes);
  }

  double conflicts = 0, trace_bytes = 0, solve_on = 0, solve_off = 0;
  const std::string solve_trace = scratch_ + "/layer.trace";
  for (const Pair& p : corpus_.solve) {
    const Row row = layer_row("solve", p, false);
    const satproof::Formula& f = row.f;
    // Table 1: the same search with and without the trace writer.
    const auto t0 = Clock::now();
    const SolveOutcome on = solve_to_files(f, solve_trace, "");
    const auto t1 = Clock::now();
    const SolveOutcome off = solve_to_files(f, "", "");
    const auto t2 = Clock::now();
    spans_.record("solver.solve", "layer", p.name, file_size(solve_trace), t0,
                  t1);
    spans_.record("solver.solve_untraced", "layer", p.name, 0, t1, t2);
    tally_.check(on.unsat && off.unsat && on.conflicts == off.conflicts,
                 "solve " + p.name);
    solve_on += seconds_between(t0, t1);
    solve_off += seconds_between(t1, t2);
    conflicts += static_cast<double>(on.conflicts);
    trace_bytes += static_cast<double>(file_size(solve_trace));

    if (!p.drup.empty()) {
      const bool ok = span("checker.drup", "solve", p, file_size(p.drup), [&] {
        std::ifstream proof(p.drup);
        return checker::check_drup(f, proof).ok;
      });
      tally_.check(ok, "direct drup " + p.name);
    }
  }

  n["checker.df_built_ratio"] =
      derivations
          ? static_cast<double>(built) / static_cast<double>(derivations)
          : 0;
  n["checker.resolutions"] = static_cast<double>(resolutions);
  n["checker.df_peak_bytes"] = df_peak;
  n["checker.hybrid_peak_bytes"] = hybrid_peak;
  n["checker.window_peak_bytes"] = window_peak;
  n["checker.arena_recycled_ratio"] =
      allocated ? static_cast<double>(recycled) / static_cast<double>(allocated)
                : 0;
  n["core.clauses"] = static_cast<double>(core);
  n["core.ratio"] =
      clauses ? static_cast<double>(core) / static_cast<double>(clauses) : 0;
  n["cert.bytes"] = cert_bytes;
  n["cert.additions"] = additions;
  n["solver.conflicts"] = conflicts;
  n["solver.trace_bytes"] = trace_bytes;
  n["solver.trace_overhead_ratio"] = solve_off > 0 ? solve_on / solve_off : 0;
  return n;
}

}  // namespace perfbench
