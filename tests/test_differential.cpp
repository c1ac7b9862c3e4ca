// Differential fuzzing across every checker backend: the same solver run
// is validated by depth-first, breadth-first, hybrid, parallel, DRUP, RUP
// and window-shifting checking, and all seven must agree — same verdict on
// every instance, and
// (where a backend extracts one) the same unsat core. Instances are random
// 3-SAT at clause/variable ratios straddling the phase transition (~4.27),
// where both SAT and UNSAT outcomes occur and proofs are nontrivial.
//
// 500 seeded instances split into 10 shards so ctest can run them in
// parallel and a failure names its shard/seed. Every round those instances
// plan is too small for the depth-first checker's lanes, so each shard
// also checks a ladder trace (tools/gen_bigtrace's shape), seeded by the
// shard and with its literals shuffled, whose round runs on four lanes.

#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "src/checker/breadth_first.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/drup.hpp"
#include "src/checker/hybrid.hpp"
#include "src/checker/window.hpp"
#include "src/cnf/model.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/proof/rup.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/drup.hpp"
#include "src/obs/trace.hpp"
#include "src/trace/memory.hpp"
#include "tests/test_helpers.hpp"

namespace satproof {
namespace {

constexpr int kInstancesPerShard = 50;  // x 10 shards = 500 instances

/// Job counts the DRUP and RUP checkers run at: sequential, and on workers.
constexpr unsigned kRupJobs[] = {1, 4};

class DifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFuzz, AllBackendsAgreeOnVerdictAndCore) {
  const int shard = GetParam();
  int unsat_seen = 0;
  for (int i = 0; i < kInstancesPerShard; ++i) {
    const std::uint64_t seed =
        1000 + static_cast<std::uint64_t>(shard) * kInstancesPerShard + i;
    // n in [12, 25], ratio in [3.8, 5.0] around the 3-SAT phase transition.
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
    const solver::SolveResult solved = s.solve();
    const trace::MemoryTrace t = trace_writer.take();
    SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
                 " m=" + std::to_string(m));

    if (solved == solver::SolveResult::Satisfiable) {
      // The model must verify, and no backend may claim an unsat proof
      // from a SAT run's trace.
      EXPECT_TRUE(satisfies(f, s.model()));
      trace::MemoryTraceReader r(t);
      EXPECT_FALSE(checker::check_depth_first(f, r).ok);
      trace::MemoryTraceReader r2(t);
      EXPECT_FALSE(checker::check_depth_first(f, r2, {.jobs = 4}).ok);
      for (const unsigned jobs : kRupJobs) {
        std::istringstream drup_in(drup_text.str());
        EXPECT_FALSE(checker::check_drup(f, drup_in, jobs).ok) << jobs;
        trace::MemoryTraceReader r3(t);
        EXPECT_FALSE(proof::check_trace_rup(f, r3, jobs).ok) << jobs;
      }
      continue;
    }
    ASSERT_EQ(solved, solver::SolveResult::Unsatisfiable);
    ++unsat_seen;

    trace::MemoryTraceReader r1(t);
    const checker::CheckResult df = checker::check_depth_first(f, r1);
    trace::MemoryTraceReader r2(t);
    const checker::CheckResult bf = checker::check_breadth_first(f, r2);
    trace::MemoryTraceReader r3(t);
    const checker::CheckResult hy = checker::check_hybrid(f, r3);
    trace::MemoryTraceReader r4(t);
    // Rotate 1..4 lanes.
    const checker::CheckResult par = checker::check_depth_first(
        f, r4, {.jobs = 1 + static_cast<unsigned>(i % 4)});

    EXPECT_TRUE(df.ok) << df.error;
    EXPECT_TRUE(bf.ok) << bf.error;
    EXPECT_TRUE(hy.ok) << hy.error;
    EXPECT_TRUE(par.ok) << par.error;

    // The unit-propagation checkers, sequential and on workers: the same
    // verdict, and the same counts at every job count.
    std::optional<checker::DrupCheckResult> drup_first;
    std::optional<proof::RupResult> rup_first;
    for (const unsigned jobs : kRupJobs) {
      std::istringstream drup_in(drup_text.str());
      const checker::DrupCheckResult dr =
          checker::check_drup(f, drup_in, jobs);
      EXPECT_TRUE(dr.ok) << "jobs " << jobs << ": " << dr.error;
      trace::MemoryTraceReader r5(t);
      const proof::RupResult rup = proof::check_trace_rup(f, r5, jobs);
      EXPECT_TRUE(rup.ok) << "jobs " << jobs << ": " << rup.error;
      if (!drup_first) {
        drup_first = dr;
        rup_first = rup;
        continue;
      }
      EXPECT_EQ(dr.clauses_checked, drup_first->clauses_checked);
      EXPECT_EQ(dr.deletions, drup_first->deletions);
      EXPECT_EQ(rup.clauses_checked, rup_first->clauses_checked);
    }

    // Stats agreement between the trace-replaying backends.
    EXPECT_EQ(df.stats.total_derivations, bf.stats.total_derivations);
    EXPECT_EQ(df.stats.total_derivations, par.stats.total_derivations);

    // Core agreement for the backends that extract one.
    ASSERT_FALSE(df.core.empty());
    EXPECT_EQ(par.core, df.core);
    EXPECT_EQ(par.stats.resolutions, df.stats.resolutions);
    EXPECT_EQ(par.stats.clauses_built, df.stats.clauses_built);

    // The breadth-first checker's whole point is bounded memory: its
    // streaming clause window must never exceed the depth-first checker's
    // whole-trace-plus-memoized-clauses footprint.
    EXPECT_LE(bf.stats.peak_mem_bytes, df.stats.peak_mem_bytes);

    // Window backend across budgets. A roomy budget must reproduce the
    // depth-first verdict, core and replay stats byte for byte. Tighter
    // budgets may legitimately refuse (the resident index alone can
    // exceed them) — but then the failure must be the graceful budget
    // diagnostic, never a crash or a wrong verdict.
    bool strict = true;  // 1 MiB always fits these instances
    for (const std::size_t limit :
         {std::size_t{1} << 20, std::size_t{16} << 10, std::size_t{2} << 10}) {
      trace::MemoryTraceReader rw(t);
      checker::WindowOptions wopts;
      wopts.mem_limit_bytes = limit;
      wopts.collect_core = true;
      const checker::CheckResult wn = checker::check_window(f, rw, wopts);
      SCOPED_TRACE("window mem_limit=" + std::to_string(limit));
      if (strict) EXPECT_TRUE(wn.ok) << wn.error;
      if (wn.ok) {
        EXPECT_EQ(wn.core, df.core);
        EXPECT_EQ(wn.stats.resolutions, df.stats.resolutions);
        EXPECT_EQ(wn.stats.clauses_built, df.stats.clauses_built);
        EXPECT_EQ(wn.stats.core_original_clauses,
                  df.stats.core_original_clauses);
        EXPECT_EQ(wn.stats.total_derivations, df.stats.total_derivations);
      } else {
        EXPECT_NE(wn.error.find("mem limit"), std::string::npos) << wn.error;
      }
      strict = false;
    }
  }
  // The ratio sweep straddles the phase transition, so a healthy fraction
  // of every shard must actually exercise the proof path.
  EXPECT_GE(unsat_seen, kInstancesPerShard / 5);
}

TEST_P(DifferentialFuzz, ShuffledLadderAgreesAcrossBackendsAndRunsOnLanes) {
  const int shard = GetParam();
  test::LadderOptions options;
  options.seed = 1 + static_cast<std::uint64_t>(shard);
  const test::LadderTrace lt = test::ladder_trace(options);
  const Formula f = test::shuffled(lt.formula, shard);
  const trace::MemoryTrace& t = lt.trace;

  trace::MemoryTraceReader r1(t);
  const checker::CheckResult df = checker::check_depth_first(f, r1);
  ASSERT_TRUE(df.ok) << df.error;
  ASSERT_FALSE(df.core.empty());
  for (const unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    obs::TraceSession session;
    trace::MemoryTraceReader r(t);
    const checker::CheckResult par =
        checker::check_depth_first(f, r, {.jobs = jobs});
    // The pool's threads flushed their spans when the checker joined them.
    obs::flush_this_thread();
    const std::size_t tasks =
        test::count_spans(session.sink().to_chrome_json(), "task");
    ASSERT_TRUE(par.ok) << par.error;
    EXPECT_EQ(par.core, df.core);
    EXPECT_EQ(par.stats.total_derivations, df.stats.total_derivations);
    EXPECT_EQ(par.stats.clauses_built, df.stats.clauses_built);
    EXPECT_EQ(par.stats.resolutions, df.stats.resolutions);
    EXPECT_EQ(par.stats.peak_mem_bytes, df.stats.peak_mem_bytes);
    EXPECT_EQ(par.stats.core_original_clauses,
              df.stats.core_original_clauses);
    // At least one round reached the lanes.
    if (jobs > 1) {
      EXPECT_GE(tasks, 2u);
    }
  }

  trace::MemoryTraceReader r2(t);
  const checker::CheckResult bf = checker::check_breadth_first(f, r2);
  EXPECT_TRUE(bf.ok) << bf.error;
  EXPECT_EQ(bf.stats.total_derivations, df.stats.total_derivations);
  EXPECT_EQ(bf.stats.resolutions, df.stats.resolutions);
  trace::MemoryTraceReader r3(t);
  const checker::CheckResult hy = checker::check_hybrid(f, r3);
  EXPECT_TRUE(hy.ok) << hy.error;
  EXPECT_EQ(hy.stats.resolutions, df.stats.resolutions);
  trace::MemoryTraceReader r4(t);
  checker::WindowOptions wopts;
  wopts.mem_limit_bytes = 16 << 10;  // several windows
  wopts.collect_core = true;
  const checker::CheckResult wn = checker::check_window(f, r4, wopts);
  EXPECT_TRUE(wn.ok) << wn.error;
  EXPECT_EQ(wn.core, df.core);
  EXPECT_EQ(wn.stats.resolutions, df.stats.resolutions);
  EXPECT_EQ(wn.stats.clauses_built, df.stats.clauses_built);
  for (const unsigned jobs : kRupJobs) {
    trace::MemoryTraceReader r5(t);
    const proof::RupResult rup = proof::check_trace_rup(f, r5, jobs);
    EXPECT_TRUE(rup.ok) << "jobs " << jobs << ": " << rup.error;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, DifferentialFuzz,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace satproof
