// Layout-equivalence regression for the replay microarchitecture: the
// depth-first checker's streaming (first-use-order) replay and the
// arena's binary clause tier are pure layout optimizations, so switching
// either off must leave every observable output byte-identical — verdict,
// error text, unsat core, failed-assumption clause, and every stats
// counter (including the arena traffic counters, which account logical
// block bytes precisely so layout cannot leak into them).
//
// The spelling of the formula's clauses is layout too: every backend reads
// an original clause through canonical_view, in place when its literals
// are already ascending and sorted into scratch otherwise, so a formula
// with each clause reversed and a literal repeated must check exactly like
// the formula as generated, certificates included.
//
// Runs the same 500 seeded instances as test_differential (same seed
// formula: 1000 + shard * 50 + i), split into 10 shards.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/cert/lrat_emitter.hpp"
#include "src/checker/breadth_first.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/drup.hpp"
#include "src/checker/hybrid.hpp"
#include "src/checker/parallel.hpp"
#include "src/checker/window.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/proof/rup.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/drup.hpp"
#include "src/trace/memory.hpp"
#include "src/util/arena.hpp"

namespace satproof {
namespace {

constexpr int kInstancesPerShard = 50;  // x 10 shards = 500 instances

checker::CheckResult run_df(const Formula& f, const trace::MemoryTrace& t,
                            bool streaming, bool binary_tier) {
  trace::MemoryTraceReader reader(t);
  checker::DepthFirstOptions options;
  options.streaming_replay = streaming;
  // The binary tier is an arena property; an external arena with the tier
  // toggled passes through the same recycle_arena seam satproofd uses.
  util::ClauseArena arena;
  arena.set_binary_tier(binary_tier);
  options.recycle_arena = &arena;
  return checker::check_depth_first(f, reader, options);
}

checker::CheckResult run_window(const Formula& f, const trace::MemoryTrace& t,
                                bool binary_tier) {
  trace::MemoryTraceReader reader(t);
  checker::WindowOptions options;
  options.mem_limit_bytes = 1 << 20;
  options.collect_core = true;
  util::ClauseArena arena;
  arena.set_binary_tier(binary_tier);
  options.recycle_arena = &arena;
  return checker::check_window(f, reader, options);
}

void expect_identical(const checker::CheckResult& a,
                      const checker::CheckResult& b, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.core, b.core);
  EXPECT_EQ(a.failed_assumption_clause, b.failed_assumption_clause);
  EXPECT_EQ(a.stats.total_derivations, b.stats.total_derivations);
  EXPECT_EQ(a.stats.clauses_built, b.stats.clauses_built);
  EXPECT_EQ(a.stats.resolutions, b.stats.resolutions);
  EXPECT_EQ(a.stats.peak_mem_bytes, b.stats.peak_mem_bytes);
  EXPECT_EQ(a.stats.core_original_clauses, b.stats.core_original_clauses);
  EXPECT_EQ(a.stats.arena_allocated_bytes, b.stats.arena_allocated_bytes);
  EXPECT_EQ(a.stats.arena_recycled_bytes, b.stats.arena_recycled_bytes);
  EXPECT_EQ(a.stats.arena_peak_bytes, b.stats.arena_peak_bytes);
}

class LayoutEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(LayoutEquivalence, StreamingAndBinaryTierAreByteIdentical) {
  const int shard = GetParam();
  int unsat_seen = 0;
  for (int i = 0; i < kInstancesPerShard; ++i) {
    const std::uint64_t seed =
        1000 + static_cast<std::uint64_t>(shard) * kInstancesPerShard + i;
    const unsigned n = 12 + static_cast<unsigned>(seed % 14);
    const double ratio = 3.8 + 0.15 * static_cast<double>(i % 9);
    const unsigned m = static_cast<unsigned>(n * ratio);
    const Formula f = encode::random_ksat(n, m, 3, seed);

    solver::Solver s;
    s.add_formula(f);
    trace::MemoryTraceWriter trace_writer;
    s.set_trace_writer(&trace_writer);
    const solver::SolveResult solved = s.solve();
    const trace::MemoryTrace t = trace_writer.take();
    SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
                 " m=" + std::to_string(m));
    if (solved == solver::SolveResult::Unsatisfiable) ++unsat_seen;

    // Reference configuration: the pre-optimization layout (lazy build,
    // headered blocks only). SAT-run traces ride along too: the rejection
    // diagnostic must not depend on layout either.
    const checker::CheckResult reference = run_df(f, t, false, false);
    expect_identical(reference, run_df(f, t, true, false),
                     "streaming replay vs lazy build");
    expect_identical(reference, run_df(f, t, false, true),
                     "binary tier vs headered-only");
    expect_identical(reference, run_df(f, t, true, true),
                     "streaming + binary tier vs neither");

    // The window backend is subject to the same discipline: the arena's
    // binary tier is invisible in every observable output, and on valid
    // traces its verdict, core and replay counters match depth-first.
    const checker::CheckResult window = run_window(f, t, false);
    expect_identical(window, run_window(f, t, true),
                     "window: binary tier vs headered-only");
    EXPECT_EQ(window.ok, reference.ok);
    if (reference.ok) {
      EXPECT_EQ(window.core, reference.core);
      EXPECT_EQ(window.stats.resolutions, reference.stats.resolutions);
      EXPECT_EQ(window.stats.clauses_built, reference.stats.clauses_built);
    }
  }
  EXPECT_GE(unsat_seen, kInstancesPerShard / 5);
}

INSTANTIATE_TEST_SUITE_P(Shards, LayoutEquivalence, ::testing::Range(0, 10));

/// `f` with every clause reversed and its new first literal repeated at
/// the end: the same clause set, but no clause of two or more literals is
/// code-ascending, so every original read goes through canonical_view's
/// sorting path.
Formula respelled(const Formula& f) {
  Formula out(f.num_vars());
  std::vector<Lit> lits;
  for (ClauseId id = 0; id < f.num_clauses(); ++id) {
    const std::span<const Lit> raw = f.clause(id);
    lits.assign(raw.rbegin(), raw.rend());
    if (!lits.empty()) lits.push_back(lits.front());
    out.add_clause(lits);
  }
  return out;
}

/// Every backend's outcome on one formula and trace: the resolution
/// backends' CheckResults, the LRAT text of the emitting ones (df, hybrid,
/// window), and the unit-propagation checkers' counts.
struct AllBackends {
  std::vector<checker::CheckResult> results;  ///< df bf hybrid window par
  std::vector<std::string> certificates;      ///< df hybrid window
  std::vector<checker::DrupCheckResult> drup;
  std::vector<proof::RupResult> rup;
};

checker::CheckResult certify(const Formula& f, const trace::MemoryTrace& t,
                             std::size_t window_limit, bool depth_first,
                             std::vector<std::string>& certificates) {
  std::ostringstream sink;
  cert::TextLratWriter writer(sink);
  cert::LratEmitter emitter(writer, f.num_clauses());
  trace::MemoryTraceReader reader(t);
  checker::CheckResult result;
  if (depth_first) {
    checker::DepthFirstOptions options;
    options.observer = &emitter;
    result = checker::check_depth_first(f, reader, options);
  } else {
    checker::WindowOptions options;
    options.mem_limit_bytes = window_limit;
    options.collect_core = true;
    options.observer = &emitter;
    result = checker::check_window(f, reader, options);
  }
  certificates.push_back(std::move(sink).str());
  return result;
}

AllBackends run_all(const Formula& f, const trace::MemoryTrace& t,
                    const std::string& drup_text, unsigned parallel_jobs) {
  AllBackends all;
  all.results.push_back(certify(f, t, 0, true, all.certificates));
  trace::MemoryTraceReader r_bf(t);
  all.results.push_back(checker::check_breadth_first(f, r_bf));
  trace::MemoryTraceReader r_hy(t);
  all.results.push_back(checker::check_hybrid(f, r_hy));
  all.results.push_back(certify(f, t, 0, false, all.certificates));
  all.results.push_back(certify(f, t, 1 << 20, false, all.certificates));
  trace::MemoryTraceReader r_par(t);
  checker::ParallelOptions popts;
  popts.jobs = parallel_jobs;
  all.results.push_back(checker::check_parallel(f, r_par, popts));
  for (const unsigned jobs : {1u, 4u}) {
    std::istringstream drup_in(drup_text);
    all.drup.push_back(checker::check_drup(f, drup_in, jobs));
    trace::MemoryTraceReader r_rup(t);
    all.rup.push_back(proof::check_trace_rup(f, r_rup, jobs));
  }
  return all;
}

class RespelledFormula : public ::testing::TestWithParam<int> {};

TEST_P(RespelledFormula, EveryBackendChecksItLikeTheOriginal) {
  const int shard = GetParam();
  for (int i = 0; i < kInstancesPerShard; ++i) {
    const std::uint64_t seed =
        1000 + static_cast<std::uint64_t>(shard) * kInstancesPerShard + i;
    const unsigned n = 12 + static_cast<unsigned>(seed % 14);
    const double ratio = 3.8 + 0.15 * static_cast<double>(i % 9);
    const unsigned m = static_cast<unsigned>(n * ratio);
    const Formula f = encode::random_ksat(n, m, 3, seed);

    solver::Solver s;
    s.add_formula(f);
    trace::MemoryTraceWriter trace_writer;
    s.set_trace_writer(&trace_writer);
    std::ostringstream drup_text;
    trace::DrupWriter drup_writer(drup_text);
    s.set_drup_writer(&drup_writer);
    (void)s.solve();
    const trace::MemoryTrace t = trace_writer.take();
    SCOPED_TRACE("seed=" + std::to_string(seed));

    // SAT runs' traces ride along: rejections must match too.
    const unsigned jobs = 1 + static_cast<unsigned>(i % 4);
    const AllBackends as_generated = run_all(f, t, drup_text.str(), jobs);
    const AllBackends as_respelled =
        run_all(respelled(f), t, drup_text.str(), jobs);
    const char* const names[] = {"df", "bf", "hybrid", "window 0",
                                 "window 1MiB", "parallel"};
    for (std::size_t k = 0; k < as_generated.results.size(); ++k) {
      expect_identical(as_generated.results[k], as_respelled.results[k],
                       names[k]);
    }
    EXPECT_EQ(as_generated.certificates, as_respelled.certificates);
    for (std::size_t k = 0; k < as_generated.drup.size(); ++k) {
      const checker::DrupCheckResult& a = as_generated.drup[k];
      const checker::DrupCheckResult& b = as_respelled.drup[k];
      EXPECT_EQ(a.ok, b.ok);
      EXPECT_EQ(a.error, b.error);
      EXPECT_EQ(a.clauses_checked, b.clauses_checked);
      EXPECT_EQ(a.deletions, b.deletions);
      EXPECT_EQ(a.propagations, b.propagations);
      const proof::RupResult& c = as_generated.rup[k];
      const proof::RupResult& d = as_respelled.rup[k];
      EXPECT_EQ(c.ok, d.ok);
      EXPECT_EQ(c.error, d.error);
      EXPECT_EQ(c.clauses_checked, d.clauses_checked);
      EXPECT_EQ(c.propagations, d.propagations);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, RespelledFormula, ::testing::Range(0, 10));

}  // namespace
}  // namespace satproof
