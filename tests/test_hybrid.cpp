// Tests for the hybrid checker (the paper's future-work design, run as the
// window checker with no budget): it must agree with depth-first on what
// gets built, with breadth-first on what is accepted, sit at or below
// depth-first memory, and decode the trace once.

#include <gtest/gtest.h>

#include "src/checker/breadth_first.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/hybrid.hpp"
#include "src/checker/window.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/encode/suite.hpp"
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

TEST(Hybrid, AcceptsGenuineTraces) {
  for (const auto& inst : encode::unsat_suite(encode::SuiteScale::Small)) {
    const SolvedUnsat su = solve_unsat(inst.formula);
    trace::MemoryTraceReader r(su.trace);
    const CheckResult hy = check_hybrid(su.formula, r);
    EXPECT_TRUE(hy.ok) << inst.name << ": " << hy.error;
  }
}

TEST(Hybrid, BuildsExactlyTheDepthFirstSubgraph) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(6));
  trace::MemoryTraceReader r1(su.trace);
  const CheckResult df = check_depth_first(su.formula, r1);
  trace::MemoryTraceReader r2(su.trace);
  const CheckResult hy = check_hybrid(su.formula, r2);
  ASSERT_TRUE(df.ok);
  ASSERT_TRUE(hy.ok);
  EXPECT_EQ(hy.stats.total_derivations, df.stats.total_derivations);
  EXPECT_EQ(hy.stats.clauses_built, df.stats.clauses_built);
  EXPECT_EQ(hy.stats.resolutions, df.stats.resolutions);
  EXPECT_EQ(hy.stats.core_original_clauses, df.stats.core_original_clauses);
  EXPECT_LT(hy.stats.clauses_built, hy.stats.total_derivations);

  // The same engine with core collection reproduces depth-first's core.
  trace::MemoryTraceReader r3(su.trace);
  WindowOptions opts;
  opts.mem_limit_bytes = 0;
  opts.collect_core = true;
  const CheckResult core_run = check_window(su.formula, r3, opts);
  ASSERT_TRUE(core_run.ok) << core_run.error;
  ASSERT_FALSE(df.core.empty());
  EXPECT_EQ(core_run.core, df.core);
}

TEST(Hybrid, MemoryAtOrBelowDepthFirst) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(7));
  trace::MemoryTraceReader r1(su.trace);
  const CheckResult df = check_depth_first(su.formula, r1);
  trace::MemoryTraceReader r2(su.trace);
  const CheckResult hy = check_hybrid(su.formula, r2);
  ASSERT_TRUE(df.ok);
  ASSERT_TRUE(hy.ok);
  // The hybrid holds the DAG structure but no clause memo; on large traces
  // it must undercut the depth-first peak.
  EXPECT_LT(hy.stats.peak_mem_bytes, df.stats.peak_mem_bytes);
}

TEST(Hybrid, AgreesWithBreadthFirstOnResults) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(5));
  trace::MemoryTraceReader r1(su.trace);
  const CheckResult bf = check_breadth_first(su.formula, r1);
  trace::MemoryTraceReader r2(su.trace);
  const CheckResult hy = check_hybrid(su.formula, r2);
  ASSERT_TRUE(bf.ok);
  ASSERT_TRUE(hy.ok);
  // Hybrid performs a subset of breadth-first's work.
  EXPECT_LE(hy.stats.resolutions, bf.stats.resolutions);
  EXPECT_LE(hy.stats.clauses_built, bf.stats.clauses_built);
}

TEST(Hybrid, FileBackedCountsWork) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(5));
  WindowOptions opts;
  opts.mem_limit_bytes = 0;  // the hybrid configuration
  opts.use_counts = UseCountMode::FileBacked;
  trace::MemoryTraceReader r(su.trace);
  const CheckResult hy = check_window(su.formula, r, opts);
  EXPECT_TRUE(hy.ok) << hy.error;
}

TEST(Hybrid, RejectsSatRunTrace) {
  Formula f(2);
  f.add_clause({Lit::pos(0), Lit::pos(1)});
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  ASSERT_EQ(s.solve(), solver::SolveResult::Satisfiable);
  const trace::MemoryTrace t = w.take();
  trace::MemoryTraceReader r(t);
  EXPECT_FALSE(check_hybrid(f, r).ok);
}

TEST(Hybrid, RejectsCorruptedTraces) {
  const Formula f = encode::pigeonhole(5);
  for (const auto kind :
       {trace::FaultKind::DropSource, trace::FaultKind::WrongSource,
        trace::FaultKind::FlipLevel0Value, trace::FaultKind::DropDerivation,
        trace::FaultKind::TruncateTrace}) {
    bool fired_any = false;
    for (const std::uint64_t target : {5ull, 0ull}) {
      solver::Solver s;
      s.add_formula(f);
      trace::MemoryTraceWriter inner;
      trace::FaultInjector injector(inner, kind, 7, target);
      s.set_trace_writer(&injector);
      ASSERT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
      if (!injector.fired()) continue;
      fired_any = true;
      const trace::MemoryTrace t = inner.take();
      trace::MemoryTraceReader r(t);
      const CheckResult hy = check_hybrid(f, r);
      EXPECT_FALSE(hy.ok) << trace::to_string(kind);
      break;
    }
    EXPECT_TRUE(fired_any) << trace::to_string(kind);
  }
}

TEST(Hybrid, TrivialPreprocessingConflictAccepted) {
  Formula f;
  f.add_clause({Lit::pos(0)});
  f.add_clause({Lit::neg(0)});
  const SolvedUnsat su = solve_unsat(std::move(f));
  trace::MemoryTraceReader r(su.trace);
  EXPECT_TRUE(check_hybrid(su.formula, r).ok);
}

/// Property: hybrid agrees with both classic checkers across random
/// instances.
class HybridSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HybridSweep, ThreeCheckersAgree) {
  const Formula f = encode::random_ksat(28, 150, 3, GetParam());
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  if (s.solve() != solver::SolveResult::Unsatisfiable) {
    GTEST_SKIP() << "satisfiable draw";
  }
  const trace::MemoryTrace t = w.take();
  trace::MemoryTraceReader r1(t), r2(t), r3(t);
  const CheckResult df = check_depth_first(f, r1);
  const CheckResult bf = check_breadth_first(f, r2);
  const CheckResult hy = check_hybrid(f, r3);
  EXPECT_TRUE(df.ok) << df.error;
  EXPECT_TRUE(bf.ok) << bf.error;
  EXPECT_TRUE(hy.ok) << hy.error;
  EXPECT_LE(hy.stats.clauses_built, bf.stats.clauses_built);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridSweep,
                         ::testing::Values(5, 23, 71, 400, 1234));

// --------------------------------------------------- trace reads per check

/// Forwards to a reader while counting the calls a checker makes; with
/// `seekable` false it hides the inner reader's seek support, standing in
/// for a forward-only input such as a pipe.
class CountingReader final : public trace::TraceReader {
 public:
  CountingReader(trace::TraceReader& inner, bool seekable)
      : inner_(&inner), seekable_(seekable) {}

  [[nodiscard]] Var num_vars() const override { return inner_->num_vars(); }
  [[nodiscard]] ClauseId num_original() const override {
    return inner_->num_original();
  }
  bool next(trace::Record& out) override {
    ++nexts;
    return inner_->next(out);
  }
  void rewind() override {
    ++rewinds;
    inner_->rewind();
  }
  [[nodiscard]] bool seekable() const override { return seekable_; }
  [[nodiscard]] std::uint64_t tell() const override { return inner_->tell(); }
  void seek(std::uint64_t pos) override {
    ++seeks;
    inner_->seek(pos);
  }

  std::uint64_t nexts = 0;
  std::uint64_t rewinds = 0;
  std::uint64_t seeks = 0;

 private:
  trace::TraceReader* inner_;
  bool seekable_;
};

std::uint64_t count_records(const trace::MemoryTrace& t) {
  trace::MemoryTraceReader r(t);
  trace::Record rec;
  std::uint64_t n = 0;
  while (r.next(rec)) ++n;
  return n;
}

TEST(Hybrid, DecodesTheTraceOnce) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(6));
  const std::uint64_t records = count_records(su.trace);
  for (const bool seekable : {true, false}) {
    SCOPED_TRACE(seekable ? "seekable" : "forward-only");
    trace::MemoryTraceReader inner(su.trace);
    CountingReader r(inner, seekable);
    const CheckResult hy = check_hybrid(su.formula, r);
    ASSERT_TRUE(hy.ok) << hy.error;
    EXPECT_EQ(r.nexts, records);  // one next() per record, End included
    EXPECT_EQ(r.rewinds, 1u);
    EXPECT_EQ(r.seeks, 0u);
  }
}

/// A proof of many identical k+1-source derivations: the originals are the
/// unit (x0), the implication cycle x0 -> x1 -> ... -> x(k-1) -> x0, and
/// (~x0). Derivation i folds the previous (x0) around the cycle back to
/// (x0); the last one is x0's level-0 antecedent. Every derivation is
/// reachable and the final derivation uses the one pinned antecedent, so
/// the checker makes no exact-cone sweep.
struct CycleProof {
  Formula formula;
  trace::MemoryTrace trace;
};

CycleProof cycle_proof(Var k, ClauseId n) {
  CycleProof p{Formula(k), {}};
  p.formula.add_clause({Lit::pos(0)});
  for (Var j = 1; j <= k; ++j) {
    p.formula.add_clause({Lit::neg(j - 1), Lit::pos(j % k)});
  }
  p.formula.add_clause({Lit::neg(0)});
  const ClauseId originals = k + 2;
  trace::MemoryTraceWriter w;
  w.begin(k, originals);
  std::vector<ClauseId> sources(k + 1);
  for (ClauseId i = 0; i < n; ++i) {
    sources[0] = i == 0 ? 0 : originals + i - 1;
    for (Var j = 1; j <= k; ++j) sources[j] = j;
    w.derivation(originals + i, sources);
  }
  w.final_conflict(originals - 1);
  w.level0(0, true, originals + n - 1);
  w.end();
  p.trace = w.take();
  return p;
}

TEST(Window, ForwardOnlyReplayReadsOnInsteadOfRewinding) {
  const CycleProof p = cycle_proof(15, 2000);
  WindowOptions opts;
  opts.mem_limit_bytes = 32 << 10;

  trace::MemoryTraceReader inner_seek(p.trace);
  CountingReader seek(inner_seek, /*seekable=*/true);
  const CheckResult a = check_window(p.formula, seek, opts);
  ASSERT_TRUE(a.ok) << a.error;
  // Pass B reloads every window but the last (left loaded by pass A),
  // backward; pass C every window but the first (left loaded by pass B),
  // forward. A seekable reader seeks for each reload.
  ASSERT_EQ(seek.seeks % 2, 0u);
  const std::uint64_t reloads_per_pass = seek.seeks / 2;
  ASSERT_GE(reloads_per_pass, 8u) << "the budget must force many windows";

  trace::MemoryTraceReader inner_fwd(p.trace);
  CountingReader fwd(inner_fwd, /*seekable=*/false);
  const CheckResult b = check_window(p.formula, fwd, opts);
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(b.stats.resolutions, a.stats.resolutions);
  // Forward-only: pass A's rewind plus one per backward reload; the
  // forward replay reads on from where the reader stands.
  EXPECT_EQ(fwd.rewinds, 1 + reloads_per_pass);
  EXPECT_EQ(fwd.seeks, 0u);
}

}  // namespace
}  // namespace satproof::checker
