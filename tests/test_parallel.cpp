// Tests for the depth-first checker on several lanes: agreement with one
// lane on verdict, unsat core and stats; byte-identical determinism across
// lane counts and repeated runs; rejection of corrupted traces with the
// same diagnostics and counters at every lane count; assumption-trace
// support; and, on a trace of independent ladders and on suite rows, that
// a round of antecedent cones really runs on the lanes.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/checker/depth_first.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/parity.hpp"
#include "src/encode/suite.hpp"
#include "src/obs/trace.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/fault_injector.hpp"
#include "src/trace/memory.hpp"
#include "tests/test_helpers.hpp"

namespace satproof::checker {
namespace {

using test::count_spans;
using test::ladder_trace;
using test::LadderTrace;

struct SolvedUnsat {
  Formula formula;
  trace::MemoryTrace trace;
};

SolvedUnsat solve_unsat(Formula f) {
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  EXPECT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
  return {std::move(f), w.take()};
}

CheckResult run_parallel(const SolvedUnsat& su, unsigned jobs) {
  trace::MemoryTraceReader r(su.trace);
  return check_depth_first(su.formula, r, {.jobs = jobs});
}

/// Serializes a core exactly as a file dump would, to compare byte-for-byte.
std::string core_bytes(const CheckResult& res) {
  std::ostringstream out;
  for (const ClauseId id : res.core) out << id << '\n';
  return out.str();
}

TEST(ParallelChecker, MatchesDepthFirstOnVerdictCoreAndStats) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(6));
  trace::MemoryTraceReader r(su.trace);
  const CheckResult df = check_depth_first(su.formula, r);
  ASSERT_TRUE(df.ok) << df.error;
  const CheckResult par = run_parallel(su, 4);
  ASSERT_TRUE(par.ok) << par.error;

  EXPECT_EQ(par.core, df.core);
  EXPECT_EQ(par.stats.total_derivations, df.stats.total_derivations);
  EXPECT_EQ(par.stats.clauses_built, df.stats.clauses_built);
  EXPECT_EQ(par.stats.resolutions, df.stats.resolutions);
  EXPECT_EQ(par.stats.core_original_clauses, df.stats.core_original_clauses);
  // Identical built set and identical accounting rules => identical peak.
  EXPECT_EQ(par.stats.peak_mem_bytes, df.stats.peak_mem_bytes);
}

TEST(ParallelChecker, MatchesDepthFirstAcrossTheSmallSuite) {
  for (const auto& inst : encode::unsat_suite(encode::SuiteScale::Small)) {
    const SolvedUnsat su = solve_unsat(inst.formula);
    trace::MemoryTraceReader r(su.trace);
    const CheckResult df = check_depth_first(su.formula, r);
    ASSERT_TRUE(df.ok) << inst.name << ": " << df.error;
    const CheckResult par = run_parallel(su, 3);
    ASSERT_TRUE(par.ok) << inst.name << ": " << par.error;
    EXPECT_EQ(par.core, df.core) << inst.name;
    EXPECT_EQ(par.stats.resolutions, df.stats.resolutions) << inst.name;
  }
}

TEST(ParallelChecker, DeterministicCoreAcrossJobsAndRepeats) {
  // The determinism regression of the issue: 20 runs spread over
  // --jobs ∈ {1, 2, 4, 8} must produce byte-identical unsat-core output.
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(6));
  const CheckResult first = run_parallel(su, 1);
  ASSERT_TRUE(first.ok) << first.error;
  const std::string reference = core_bytes(first);
  ASSERT_FALSE(reference.empty());
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    for (int repeat = 0; repeat < 5; ++repeat) {
      const CheckResult res = run_parallel(su, jobs);
      ASSERT_TRUE(res.ok) << "jobs=" << jobs << ": " << res.error;
      EXPECT_EQ(core_bytes(res), reference)
          << "jobs=" << jobs << " repeat=" << repeat;
    }
  }
}

TEST(ParallelChecker, JobsZeroMeansHardwareConcurrency) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(4));
  const CheckResult res = run_parallel(su, 0);
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(ParallelChecker, CoreCollectionCanBeDisabled) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(4));
  trace::MemoryTraceReader r(su.trace);
  const CheckResult res =
      check_depth_first(su.formula, r, {.jobs = 2, .collect_core = false});
  ASSERT_TRUE(res.ok);
  EXPECT_TRUE(res.core.empty());
  EXPECT_GT(res.stats.core_original_clauses, 0u);
}

TEST(ParallelChecker, TrivialPreprocessingConflictAccepted) {
  Formula f;
  f.add_clause({Lit::pos(0)});
  f.add_clause({Lit::neg(0)});
  const SolvedUnsat su = solve_unsat(std::move(f));
  EXPECT_TRUE(su.trace.derivations.empty());
  EXPECT_TRUE(run_parallel(su, 4).ok);
}

TEST(ParallelChecker, EmptyInputClauseAccepted) {
  Formula f;
  f.add_clause(std::initializer_list<Lit>{});
  const SolvedUnsat su = solve_unsat(std::move(f));
  EXPECT_TRUE(run_parallel(su, 4).ok);
}

TEST(ParallelChecker, RejectSatRunTrace) {
  Formula f(2);
  f.add_clause({Lit::pos(0), Lit::pos(1)});
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  ASSERT_EQ(s.solve(), solver::SolveResult::Satisfiable);
  const trace::MemoryTrace t = w.take();
  trace::MemoryTraceReader r(t);
  const CheckResult res = check_depth_first(f, r, {.jobs = 4});
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("final"), std::string::npos);
}

TEST(ParallelChecker, RejectTraceForDifferentFormula) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(5));
  const Formula other = encode::pigeonhole(6);
  trace::MemoryTraceReader r(su.trace);
  const CheckResult res = check_depth_first(other, r, {.jobs = 4});
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("original clauses"), std::string::npos);
}

TEST(ParallelChecker, RejectionDiagnosticIsDeterministicAcrossJobs) {
  // Corrupt one derivation source; every worker count must reject with the
  // same diagnostic (the lowest failing clause ID wins, not a thread race).
  const Formula f = encode::pigeonhole(5);
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter inner;
  trace::FaultInjector injector(inner, trace::FaultKind::DropSource,
                                /*seed=*/7, /*target_index=*/5);
  s.set_trace_writer(&injector);
  ASSERT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
  ASSERT_TRUE(injector.fired());
  const trace::MemoryTrace t = inner.take();

  std::string reference;
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    trace::MemoryTraceReader r(t);
    const CheckResult res = check_depth_first(f, r, {.jobs = jobs});
    ASSERT_FALSE(res.ok) << "jobs=" << jobs;
    ASSERT_FALSE(res.error.empty());
    if (reference.empty()) {
      reference = res.error;
    } else {
      EXPECT_EQ(res.error, reference) << "jobs=" << jobs;
    }
  }
}

TEST(ParallelChecker, ValidatesAssumptionRefutationTrace) {
  // x0 -> x1 -> x2; assuming x0 and ~x2 is refutable.
  Formula f(3);
  f.add_clause({Lit::neg(0), Lit::pos(1)});
  f.add_clause({Lit::neg(1), Lit::pos(2)});
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  const Lit assume[] = {Lit::pos(0), Lit::neg(2)};
  ASSERT_EQ(s.solve(assume), solver::SolveResult::Unsatisfiable);
  const trace::MemoryTrace t = w.take();

  trace::MemoryTraceReader r1(t);
  const CheckResult df = check_depth_first(f, r1);
  ASSERT_TRUE(df.ok) << df.error;
  trace::MemoryTraceReader r2(t);
  const CheckResult par = check_depth_first(f, r2, {.jobs = 4});
  ASSERT_TRUE(par.ok) << par.error;
  EXPECT_FALSE(par.failed_assumption_clause.empty());
  EXPECT_EQ(par.failed_assumption_clause, df.failed_assumption_clause);
}

TEST(ParallelChecker, BigTseitinTraceMatchesDepthFirst) {
  // A heavier instance with deep derivation chains, exercising large cones
  // and the trail-antecedent cones built during the final derivation.
  const SolvedUnsat su = solve_unsat(encode::tseitin_torus(3, 3, 11));
  trace::MemoryTraceReader r(su.trace);
  const CheckResult df = check_depth_first(su.formula, r);
  ASSERT_TRUE(df.ok) << df.error;
  const CheckResult par = run_parallel(su, 4);
  ASSERT_TRUE(par.ok) << par.error;
  EXPECT_EQ(par.core, df.core);
  EXPECT_EQ(par.stats.resolutions, df.stats.resolutions);
}

CheckResult run_parallel(const Formula& f, const trace::MemoryTrace& t,
                         unsigned jobs) {
  trace::MemoryTraceReader r(t);
  return check_depth_first(f, r, {.jobs = jobs});
}

TEST(ParallelChecker, LadderPartitionMatchesDepthFirstAtEveryJobCount) {
  const LadderTrace lt = ladder_trace();
  trace::MemoryTraceReader r(lt.trace);
  const CheckResult df = check_depth_first(lt.formula, r);
  ASSERT_TRUE(df.ok) << df.error;
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    const CheckResult par = run_parallel(lt.formula, lt.trace, jobs);
    ASSERT_TRUE(par.ok) << "jobs=" << jobs << ": " << par.error;
    EXPECT_EQ(par.core, df.core) << "jobs=" << jobs;
    EXPECT_EQ(par.stats.resolutions, df.stats.resolutions) << "jobs=" << jobs;
    EXPECT_EQ(par.stats.clauses_built, df.stats.clauses_built)
        << "jobs=" << jobs;
    EXPECT_EQ(par.stats.core_original_clauses,
              df.stats.core_original_clauses)
        << "jobs=" << jobs;
    EXPECT_EQ(par.stats.peak_mem_bytes, df.stats.peak_mem_bytes)
        << "jobs=" << jobs;
  }
}

TEST(ParallelChecker, LadderRoundRunsOneTaskPerLane) {
  const LadderTrace lt = ladder_trace();
  obs::TraceSession session;
  const CheckResult par = run_parallel(lt.formula, lt.trace, 4);
  ASSERT_TRUE(par.ok) << par.error;
  // The pool's threads flushed their spans when the checker joined them.
  obs::flush_this_thread();
  const std::string json = session.sink().to_chrome_json();
  // One round for the final conflict (~z), one for the join's cone, which
  // holds every ladder and is dealt to all four lanes.
  EXPECT_EQ(count_spans(json, "schedule"), 2u);
  EXPECT_EQ(count_spans(json, "task"), 4u);
}

/// Every CheckStats field of `par` equals DF's.
void expect_stats_equal(const CheckStats& par, const CheckStats& df,
                        const std::string& what) {
  EXPECT_EQ(par.total_derivations, df.total_derivations) << what;
  EXPECT_EQ(par.clauses_built, df.clauses_built) << what;
  EXPECT_EQ(par.resolutions, df.resolutions) << what;
  EXPECT_EQ(par.peak_mem_bytes, df.peak_mem_bytes) << what;
  EXPECT_EQ(par.core_original_clauses, df.core_original_clauses) << what;
  EXPECT_EQ(par.arena_allocated_bytes, df.arena_allocated_bytes) << what;
  EXPECT_EQ(par.arena_recycled_bytes, df.arena_recycled_bytes) << what;
  EXPECT_EQ(par.arena_peak_bytes, df.arena_peak_bytes) << what;
}

TEST(ParallelChecker, AntecedentConesOfASuiteRowRunOnTheLanes) {
  // miter_mult3's final conflicting clause is an original: all the work
  // lies in the trail antecedents' cones, which one round builds.
  for (const auto& inst : encode::unsat_suite(encode::SuiteScale::Small)) {
    if (inst.name != "miter_mult3") continue;
    const SolvedUnsat su = solve_unsat(inst.formula);
    ASSERT_LT(su.trace.final_conflict, su.trace.num_original);
    trace::MemoryTraceReader r(su.trace);
    const CheckResult df = check_depth_first(su.formula, r);
    ASSERT_TRUE(df.ok) << df.error;
    for (const unsigned jobs : {2u, 4u, 8u}) {
      const std::string what = "jobs=" + std::to_string(jobs);
      obs::TraceSession session;
      const CheckResult par = run_parallel(su, jobs);
      obs::flush_this_thread();
      ASSERT_TRUE(par.ok) << what << ": " << par.error;
      EXPECT_GE(count_spans(session.sink().to_chrome_json(), "task"), 2u)
          << what;
      EXPECT_EQ(par.core, df.core) << what;
      EXPECT_EQ(par.failed_assumption_clause, df.failed_assumption_clause)
          << what;
      expect_stats_equal(par.stats, df.stats, what);
    }
    return;
  }
  FAIL() << "miter_mult3 is no longer in the small suite";
}

TEST(ParallelChecker, RejectionAcrossGroupsNamesTheLowestFailingClause) {
  // Corrupt the last step of ladder 0 and the first step of ladder 9. A
  // depth-first walk from the join reaches ladder 0 first, but every job
  // count must name the lower clause ID, whatever the groups' schedule.
  const LadderTrace clean = ladder_trace();
  const ClauseId late = clean.steps[0].back();
  const ClauseId early = clean.steps[9].front();
  ASSERT_LT(early, late);
  const LadderTrace lt = ladder_trace({.corrupt = {late, early}});
  const std::string expected =
      "derivation of clause " + std::to_string(early) + ":";
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      const CheckResult par = run_parallel(lt.formula, lt.trace, jobs);
      ASSERT_FALSE(par.ok) << "jobs=" << jobs;
      EXPECT_EQ(par.error.rfind(expected, 0), 0u)
          << "jobs=" << jobs << ": " << par.error;
    }
  }
}

TEST(ParallelChecker, RejectionNamesTheFirstFetchedConeThatFails) {
  // The final derivation fetches ladder 15's cone, then ladder 14's. One
  // round builds every ladder, but the diagnostic must be the one of the
  // first fetched cone that fails (ladder 14), not the lowest failing ID
  // overall (ladder 3's), at every job count, and DF's.
  const LadderTrace clean = ladder_trace({.corrupt = {}, .trail_end = true});
  const ClauseId second = clean.steps[14][clean.steps[14].size() / 2];
  const ClauseId later = clean.steps[3].front();
  ASSERT_LT(later, second);
  const LadderTrace lt =
      ladder_trace({.corrupt = {second, later}, .trail_end = true});
  trace::MemoryTraceReader r(lt.trace);
  const CheckResult df = check_depth_first(lt.formula, r);
  ASSERT_FALSE(df.ok);
  EXPECT_EQ(df.error.rfind("derivation of clause " + std::to_string(second) +
                               ":",
                           0),
            0u)
      << df.error;
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      const CheckResult par = run_parallel(lt.formula, lt.trace, jobs);
      ASSERT_FALSE(par.ok) << "jobs=" << jobs;
      EXPECT_EQ(par.error, df.error) << "jobs=" << jobs;
    }
  }

  // A failed antecedent check on the first fetch comes before any cone
  // fetched later: ladder 15's top rung is given ladder 13's unit.
  LadderTrace wrong = ladder_trace({.corrupt = {second}, .trail_end = true});
  wrong.trace.level0.back().antecedent = wrong.steps[13].back();
  trace::MemoryTraceReader r2(wrong.trace);
  const CheckResult df2 = check_depth_first(wrong.formula, r2);
  ASSERT_FALSE(df2.ok);
  EXPECT_EQ(df2.error.rfind("antecedent clause " +
                                std::to_string(wrong.steps[13].back()) + " ",
                            0),
            0u)
      << df2.error;
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    const CheckResult par = run_parallel(wrong.formula, wrong.trace, jobs);
    ASSERT_FALSE(par.ok) << "jobs=" << jobs;
    EXPECT_EQ(par.error, df2.error) << "jobs=" << jobs;
  }
}

TEST(ParallelChecker, UnreachedCorruptDerivationDoesNotSurface) {
  for (const bool trail_end : {false, true}) {
    const LadderTrace lt = ladder_trace(
        {.corrupt = {}, .trail_end = trail_end, .unreached_corruption = true});
    trace::MemoryTraceReader r(lt.trace);
    const CheckResult df = check_depth_first(lt.formula, r);
    ASSERT_TRUE(df.ok) << df.error;
    for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
      const std::string what = "jobs=" + std::to_string(jobs) +
                               (trail_end ? " trail end" : " join end");
      const CheckResult par = run_parallel(lt.formula, lt.trace, jobs);
      ASSERT_TRUE(par.ok) << what << ": " << par.error;
      EXPECT_EQ(par.core, df.core) << what;
      expect_stats_equal(par.stats, df.stats, what);
    }
  }
}

/// `t` rewritten through a FaultInjector of `kind`; nullopt when the fault
/// never fired.
std::optional<trace::MemoryTrace> inject(const trace::MemoryTrace& t,
                                         trace::FaultKind kind,
                                         std::uint64_t target) {
  trace::MemoryTraceWriter out;
  trace::FaultInjector injector(out, kind, /*seed=*/7, target);
  injector.begin(t.num_vars, t.num_original);
  for (const auto& d : t.derivations) injector.derivation(d.id, d.sources);
  if (t.has_final) injector.final_conflict(t.final_conflict);
  for (const auto& l : t.level0) {
    if (l.antecedent == kInvalidClauseId) {
      injector.assumption(l.var, l.value);
    } else {
      injector.level0(l.var, l.value, l.antecedent);
    }
  }
  if (t.finished) injector.end();
  if (!injector.fired()) return std::nullopt;
  return out.take();
}

TEST(ParallelChecker, FaultInjectedTracesCheckAlikeAtEveryJobCount) {
  // Every fault kind, at three targets, on the ladder traces (whose join
  // cone is one round dealt to the lanes) and on three small-suite rows:
  // the verdict, diagnostic, core and every counter are the same at every
  // job count, and rounds of 256 or more clauses run on the lanes.
  std::vector<std::pair<std::string, SolvedUnsat>> cases;
  for (const bool trail_end : {false, true}) {
    LadderTrace lt = ladder_trace({.corrupt = {}, .trail_end = trail_end});
    cases.push_back({trail_end ? "ladder trail end" : "ladder",
                     {std::move(lt.formula), std::move(lt.trace)}});
  }
  for (const auto& inst : encode::unsat_suite(encode::SuiteScale::Small)) {
    if (inst.name == "miter_mult3" || inst.name == "tseitin3x3" ||
        inst.name == "bmc_rotator4_k6") {
      cases.push_back({inst.name, solve_unsat(inst.formula)});
    }
  }

  ASSERT_EQ(cases.size(), 5u);
  for (const auto& [name, su] : cases) {
    std::size_t tasks = 0;
    std::size_t rejected = 0;
    for (int k = 1; k <= static_cast<int>(trace::FaultKind::TruncateTrace);
         ++k) {
      const auto kind = static_cast<trace::FaultKind>(k);
      for (const std::uint64_t target : {0u, 5u, 50u}) {
        const std::optional<trace::MemoryTrace> t =
            inject(su.trace, kind, target);
        if (!t.has_value()) continue;
        const std::string what = name + " " + trace::to_string(kind) +
                                 " target " + std::to_string(target);
        const CheckResult one = run_parallel(su.formula, *t, 1);
        if (!one.ok) ++rejected;
        for (const unsigned jobs : {2u, 3u, 4u, 8u}) {
          const std::string at = what + " jobs=" + std::to_string(jobs);
          obs::TraceSession session;
          const CheckResult res = run_parallel(su.formula, *t, jobs);
          obs::flush_this_thread();
          tasks += count_spans(session.sink().to_chrome_json(), "task");
          EXPECT_EQ(res.ok, one.ok) << at;
          EXPECT_EQ(res.error, one.error) << at;
          EXPECT_EQ(res.core, one.core) << at;
          EXPECT_EQ(res.failed_assumption_clause, one.failed_assumption_clause)
              << at;
          expect_stats_equal(res.stats, one.stats, at);
        }
      }
    }
    EXPECT_GT(rejected, 0u) << name;
    EXPECT_GE(tasks, 1u) << name << ": no round ran on the lanes";
  }
}

}  // namespace
}  // namespace satproof::checker
