// Tests for the depth-first and breadth-first checkers: acceptance of
// genuine solver traces, rejection of corrupted ones (every FaultKind),
// option coverage, and the Section 3.3 memory guarantee. Tautological
// originals are checked under every backend.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/checker/breadth_first.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/hybrid.hpp"
#include "src/checker/window.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/suite.hpp"
#include "src/proof/rup.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/fault_injector.hpp"
#include "src/trace/memory.hpp"

namespace satproof::checker {
namespace {

struct SolvedUnsat {
  Formula formula;
  trace::MemoryTrace trace;
  solver::SolverStats stats;
};

SolvedUnsat solve_unsat(Formula f) {
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  EXPECT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
  return {std::move(f), w.take(), s.stats()};
}

TEST(Checkers, AcceptGenuineTraceAndAgree) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(6));
  trace::MemoryTraceReader r1(su.trace);
  const CheckResult df = check_depth_first(su.formula, r1);
  ASSERT_TRUE(df.ok) << df.error;
  trace::MemoryTraceReader r2(su.trace);
  const CheckResult bf = check_breadth_first(su.formula, r2);
  ASSERT_TRUE(bf.ok) << bf.error;

  EXPECT_EQ(df.stats.total_derivations, bf.stats.total_derivations);
  // BF builds everything, DF only the reachable subgraph.
  EXPECT_EQ(bf.stats.clauses_built, bf.stats.total_derivations);
  EXPECT_LE(df.stats.clauses_built, bf.stats.clauses_built);
  EXPECT_GT(df.stats.clauses_built, 0u);
}

TEST(Checkers, DepthFirstCoreIsSortedSubsetOfOriginals) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(5));
  trace::MemoryTraceReader r(su.trace);
  const CheckResult df = check_depth_first(su.formula, r);
  ASSERT_TRUE(df.ok);
  ASSERT_FALSE(df.core.empty());
  EXPECT_EQ(df.core.size(), df.stats.core_original_clauses);
  EXPECT_TRUE(std::is_sorted(df.core.begin(), df.core.end()));
  EXPECT_LT(df.core.back(), su.formula.num_clauses());
}

TEST(Checkers, CoreCollectionCanBeDisabled) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(4));
  trace::MemoryTraceReader r(su.trace);
  DepthFirstOptions opts;
  opts.collect_core = false;
  const CheckResult df = check_depth_first(su.formula, r, opts);
  ASSERT_TRUE(df.ok);
  EXPECT_TRUE(df.core.empty());
  EXPECT_GT(df.stats.core_original_clauses, 0u);
}

TEST(Checkers, TrivialPreprocessingConflictAccepted) {
  // Contradictory unit clauses: the trace has no derivations at all.
  Formula f;
  f.add_clause({Lit::pos(0)});
  f.add_clause({Lit::neg(0)});
  const SolvedUnsat su = solve_unsat(std::move(f));
  EXPECT_TRUE(su.trace.derivations.empty());
  trace::MemoryTraceReader r1(su.trace);
  EXPECT_TRUE(check_depth_first(su.formula, r1).ok);
  trace::MemoryTraceReader r2(su.trace);
  EXPECT_TRUE(check_breadth_first(su.formula, r2).ok);
}

TEST(Checkers, EmptyInputClauseAccepted) {
  Formula f;
  f.add_clause(std::initializer_list<Lit>{});
  const SolvedUnsat su = solve_unsat(std::move(f));
  trace::MemoryTraceReader r1(su.trace);
  EXPECT_TRUE(check_depth_first(su.formula, r1).ok);
  trace::MemoryTraceReader r2(su.trace);
  EXPECT_TRUE(check_breadth_first(su.formula, r2).ok);
}

TEST(Checkers, RejectSatRunTrace) {
  Formula f(2);
  f.add_clause({Lit::pos(0), Lit::pos(1)});
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  ASSERT_EQ(s.solve(), solver::SolveResult::Satisfiable);
  const trace::MemoryTrace t = w.take();
  trace::MemoryTraceReader r1(t);
  const CheckResult df = check_depth_first(f, r1);
  EXPECT_FALSE(df.ok);
  EXPECT_NE(df.error.find("final"), std::string::npos);
  trace::MemoryTraceReader r2(t);
  EXPECT_FALSE(check_breadth_first(f, r2).ok);
}

TEST(Checkers, RejectTraceForDifferentFormula) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(5));
  const Formula other = encode::pigeonhole(6);  // different clause count
  trace::MemoryTraceReader r1(su.trace);
  const CheckResult df = check_depth_first(other, r1);
  EXPECT_FALSE(df.ok);
  EXPECT_NE(df.error.find("original clauses"), std::string::npos);
  trace::MemoryTraceReader r2(su.trace);
  EXPECT_FALSE(check_breadth_first(other, r2).ok);
}

TEST(Checkers, BreadthFirstMemoryNeverExceedsSolver) {
  // Section 3.3: "the checker will never keep more clauses in the memory
  // than the SAT solver did when producing the trace".
  for (const auto& inst : encode::unsat_suite(encode::SuiteScale::Small)) {
    const SolvedUnsat su = solve_unsat(inst.formula);
    trace::MemoryTraceReader r(su.trace);
    const CheckResult bf = check_breadth_first(su.formula, r);
    ASSERT_TRUE(bf.ok) << inst.name << ": " << bf.error;
    EXPECT_LE(bf.stats.peak_mem_bytes, su.stats.peak_clause_bytes)
        << inst.name;
  }
}

TEST(Checkers, DepthFirstUsesMoreMemoryThanBreadthFirstOnBigTraces) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(7));
  trace::MemoryTraceReader r1(su.trace);
  const CheckResult df = check_depth_first(su.formula, r1);
  trace::MemoryTraceReader r2(su.trace);
  const CheckResult bf = check_breadth_first(su.formula, r2);
  ASSERT_TRUE(df.ok);
  ASSERT_TRUE(bf.ok);
  EXPECT_GT(df.stats.peak_mem_bytes, bf.stats.peak_mem_bytes);
}

TEST(Checkers, BreadthFirstUseCountStoreVariantsAgree) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(5));
  CheckResult results[3];
  BreadthFirstOptions opts[3];
  opts[0].use_counts = UseCountMode::InMemory;
  opts[1].use_counts = UseCountMode::FileBacked;
  opts[2].use_counts = UseCountMode::FileBacked;
  opts[2].count_range = 64;  // multi-pass ranged counting
  for (int i = 0; i < 3; ++i) {
    trace::MemoryTraceReader r(su.trace);
    results[i] = check_breadth_first(su.formula, r, opts[i]);
    ASSERT_TRUE(results[i].ok) << i << ": " << results[i].error;
  }
  EXPECT_EQ(results[0].stats.clauses_built, results[1].stats.clauses_built);
  EXPECT_EQ(results[0].stats.resolutions, results[1].stats.resolutions);
  EXPECT_EQ(results[0].stats.resolutions, results[2].stats.resolutions);
}

TEST(Checkers, RangedCountingWithTinyRange) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(4));
  BreadthFirstOptions opts;
  opts.count_range = 1;  // one pass per learned clause: worst case
  trace::MemoryTraceReader r(su.trace);
  const CheckResult bf = check_breadth_first(su.formula, r, opts);
  EXPECT_TRUE(bf.ok) << bf.error;
}

/// Every backend's verdict and diagnostic on `t` over `f`: depth-first,
/// breadth-first, hybrid, window under a budget, depth-first on 4 lanes,
/// and RUP (which rejects through the depth-first checker's replay).
std::vector<std::pair<std::string, CheckResult>> check_everywhere(
    const Formula& f, const trace::MemoryTrace& t) {
  std::vector<std::pair<std::string, CheckResult>> out;
  const auto run = [&](const std::string& name, auto&& check) {
    trace::MemoryTraceReader reader(t);
    out.emplace_back(name, check(reader));
  };
  run("df", [&](auto& r) { return check_depth_first(f, r); });
  run("bf", [&](auto& r) { return check_breadth_first(f, r); });
  run("hybrid", [&](auto& r) { return check_hybrid(f, r); });
  run("window", [&](auto& r) {
    WindowOptions options;
    options.mem_limit_bytes = 1 << 20;
    return check_window(f, r, options);
  });
  run("df jobs 4", [&](auto& r) {
    return check_depth_first(f, r, {.jobs = 4});
  });
  run("rup", [&](auto& r) {
    const proof::RupResult rup = proof::check_trace_rup(f, r, 1);
    CheckResult result;
    result.ok = rup.ok;
    result.error = rup.error;
    return result;
  });
  return out;
}

/// The three spellings of a tautological clause over x0: code-ascending
/// (read in place), descending, and with a duplicate (both canonicalised
/// into scratch first).
const std::vector<std::vector<Lit>> kTautologies = {
    {Lit::pos(0), Lit::neg(0)},
    {Lit::neg(0), Lit::pos(0)},
    {Lit::pos(0), Lit::pos(0), Lit::neg(0)},
};

TEST(Checkers, RejectTautologicalOriginalAsSource) {
  // Hand-build a trace whose proof path runs through a tautological
  // original clause (the final conflict IS the bogus derivation, so every
  // checker must visit it).
  for (const std::vector<Lit>& tautology : kTautologies) {
    Formula f;
    f.add_clause(tautology);      // clause 0
    f.add_clause({Lit::pos(0)});  // clause 1
    f.add_clause({Lit::neg(0)});  // clause 2
    trace::MemoryTraceWriter w;
    w.begin(1, 3);
    const ClauseId src[] = {0, 2};
    w.derivation(3, src);
    w.final_conflict(3);
    w.level0(0, true, 1);
    w.end();
    const trace::MemoryTrace t = w.take();
    for (const auto& [name, result] : check_everywhere(f, t)) {
      SCOPED_TRACE(name + ", clause 0 of size " +
                   std::to_string(tautology.size()));
      EXPECT_FALSE(result.ok);
      EXPECT_EQ(result.error,
                "original clause 0 is tautological and cannot be a "
                "resolution source");
    }
  }
}

TEST(Checkers, AcceptUnreachedTautologicalOriginal) {
  // A tautological original is an error only where a replay reaches it:
  // here the proof never uses clause 0, so every backend verifies.
  for (const std::vector<Lit>& tautology : kTautologies) {
    Formula f;
    f.add_clause(tautology);                    // clause 0
    f.add_clause({Lit::pos(0), Lit::pos(1)});   // clause 1
    f.add_clause({Lit::pos(0), Lit::neg(1)});   // clause 2
    f.add_clause({Lit::neg(0)});                // clause 3
    trace::MemoryTraceWriter w;
    w.begin(2, 4);
    const ClauseId src[] = {1, 2};
    w.derivation(4, src);  // (x0)
    w.final_conflict(3);
    w.level0(0, true, 4);
    w.end();
    const trace::MemoryTrace t = w.take();
    for (const auto& [name, result] : check_everywhere(f, t)) {
      SCOPED_TRACE(name + ", clause 0 of size " +
                   std::to_string(tautology.size()));
      EXPECT_TRUE(result.ok) << result.error;
    }
  }
}

TEST(Checkers, RejectForwardReferenceInDerivation) {
  Formula f;
  f.add_clause({Lit::pos(0)});
  f.add_clause({Lit::neg(0)});
  trace::MemoryTraceWriter w;
  w.begin(1, 2);
  const ClauseId src[] = {0, 3};  // 3 does not precede 2
  w.derivation(2, src);
  w.final_conflict(1);
  w.level0(0, true, 0);
  w.end();
  const trace::MemoryTrace t = w.take();
  trace::MemoryTraceReader r1(t);
  EXPECT_FALSE(check_depth_first(f, r1).ok);
  trace::MemoryTraceReader r2(t);
  EXPECT_FALSE(check_breadth_first(f, r2).ok);
}

TEST(Checkers, RejectDerivationReusingOriginalId) {
  Formula f;
  f.add_clause({Lit::pos(0)});
  f.add_clause({Lit::neg(0)});
  trace::MemoryTraceWriter w;
  w.begin(1, 2);
  const ClauseId src[] = {0, 1};
  w.derivation(1, src);  // ID 1 is an original clause
  w.final_conflict(1);
  w.level0(0, true, 0);
  w.end();
  const trace::MemoryTrace t = w.take();
  trace::MemoryTraceReader r1(t);
  EXPECT_FALSE(check_depth_first(f, r1).ok);
  trace::MemoryTraceReader r2(t);
  EXPECT_FALSE(check_breadth_first(f, r2).ok);
}

TEST(Checkers, RejectNonConflictingFinalClause) {
  Formula f;
  f.add_clause({Lit::pos(0)});
  f.add_clause({Lit::neg(0)});
  trace::MemoryTraceWriter w;
  w.begin(1, 2);
  w.final_conflict(0);  // clause 0 is satisfied by the level-0 assignment
  w.level0(0, true, 0);
  w.end();
  const trace::MemoryTrace t = w.take();
  trace::MemoryTraceReader r1(t);
  const CheckResult df = check_depth_first(f, r1);
  EXPECT_FALSE(df.ok);
  EXPECT_NE(df.error.find("not conflicting"), std::string::npos);
}

/// Fault-injection sweep: every fault kind must be rejected by both
/// checkers on this fixed instance/seed. (A few kinds can in principle
/// corrupt a trace into a different-but-valid proof; the instance and
/// target indices here are chosen so each fault genuinely breaks it —
/// verified by the assertions below, which would fail loudly otherwise.)
class FaultSweep : public ::testing::TestWithParam<trace::FaultKind> {};

TEST_P(FaultSweep, BothCheckersRejectCorruptedTrace) {
  const trace::FaultKind kind = GetParam();
  const Formula f = encode::pigeonhole(5);

  // Inject at a mid-trace opportunity so the corruption lands on a record
  // that matters for the proof.
  for (const std::uint64_t target : {5ull, 0ull, 50ull}) {
    solver::Solver s;
    s.add_formula(f);
    trace::MemoryTraceWriter inner;
    trace::FaultInjector injector(inner, kind, /*seed=*/7, target);
    s.set_trace_writer(&injector);
    ASSERT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
    if (!injector.fired()) continue;  // no eligible record at this index

    const trace::MemoryTrace t = inner.take();
    trace::MemoryTraceReader r1(t);
    const CheckResult df = check_depth_first(f, r1);
    trace::MemoryTraceReader r2(t);
    const CheckResult bf = check_breadth_first(f, r2);
    EXPECT_FALSE(df.ok) << "depth-first accepted fault "
                        << trace::to_string(kind) << " at target " << target;
    EXPECT_FALSE(bf.ok) << "breadth-first accepted fault "
                        << trace::to_string(kind) << " at target " << target;
    if (!df.ok) {
      EXPECT_FALSE(df.error.empty());
    }
    if (!bf.ok) {
      EXPECT_FALSE(bf.error.empty());
    }
    return;  // one fired fault checked is enough per kind
  }
  FAIL() << "fault " << trace::to_string(kind)
         << " never fired on any target index";
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, FaultSweep,
    ::testing::Values(trace::FaultKind::DropSource,
                      trace::FaultKind::DuplicateSource,
                      trace::FaultKind::ShuffleSources,
                      trace::FaultKind::WrongSource,
                      trace::FaultKind::DropDerivation,
                      trace::FaultKind::WrongFinal,
                      trace::FaultKind::FlipLevel0Value,
                      trace::FaultKind::WrongAntecedent,
                      trace::FaultKind::DropLevel0,
                      trace::FaultKind::TruncateTrace),
    [](const auto& info) {
      std::string name = trace::to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(FaultInjector, NoneModePassesThrough) {
  const Formula f = encode::pigeonhole(4);
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter inner;
  trace::FaultInjector injector(inner, trace::FaultKind::None);
  s.set_trace_writer(&injector);
  ASSERT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
  EXPECT_FALSE(injector.fired());
  const trace::MemoryTrace t = inner.take();
  trace::MemoryTraceReader r(t);
  EXPECT_TRUE(check_depth_first(f, r).ok);
}

}  // namespace
}  // namespace satproof::checker
