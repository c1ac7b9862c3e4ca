// Tests for the partitioned parallel checker: agreement with the
// sequential depth-first checker on verdict, unsat core and stats;
// byte-identical determinism across worker counts and repeated runs;
// rejection of corrupted traces; assumption-trace support; and, on a trace
// of independent ladders, that the partition really runs its groups
// concurrently with DF-identical results and diagnostics.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/checker/depth_first.hpp"
#include "src/checker/parallel.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/parity.hpp"
#include "src/encode/suite.hpp"
#include "src/obs/trace.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/fault_injector.hpp"
#include "src/trace/memory.hpp"

namespace satproof::checker {
namespace {

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
  ParallelOptions opts;
  opts.jobs = jobs;
  return check_parallel(su.formula, r, opts);
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
  ParallelOptions opts;
  opts.jobs = 2;
  opts.collect_core = false;
  const CheckResult res = check_parallel(su.formula, r, opts);
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
  const CheckResult res = check_parallel(f, r);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("final"), std::string::npos);
}

TEST(ParallelChecker, RejectTraceForDifferentFormula) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(5));
  const Formula other = encode::pigeonhole(6);
  trace::MemoryTraceReader r(su.trace);
  const CheckResult res = check_parallel(other, r);
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
    ParallelOptions opts;
    opts.jobs = jobs;
    const CheckResult res = check_parallel(f, r, opts);
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
  ParallelOptions opts;
  opts.jobs = 4;
  const CheckResult par = check_parallel(f, r2, opts);
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

/// A trace of independent ladders joined at the end, built the way
/// tools/gen_bigtrace builds its traces.
struct LadderTrace {
  Formula formula;
  trace::MemoryTrace trace;
  std::vector<std::vector<ClauseId>> steps;  ///< derivation IDs per ladder
};

/// 16 ladders of 64 rungs. Ladder w has the unit (v_0) and the implications
/// up (~v_i | v_i+1) and down (~v_i+1 | v_i). A seeded walker per ladder
/// steps up or down 4 rungs at a time, each step deriving the unit of the
/// rung it lands on from its current unit and the 4 implications it
/// crossed. At the end every walker climbs to the top rung, the join
/// (~top_0 | ... | ~top_15 | z) resolves with each top unit into (z), and
/// (~z) is the final conflict. Every derivation is reachable and no two
/// ladders share a clause below the join. A derivation whose ID is in
/// `corrupt` crosses a far-away implication first, which does not clash.
LadderTrace ladder_trace(const std::set<ClauseId>& corrupt = {}) {
  constexpr std::uint64_t kLadders = 16, kRungs = 64, kChain = 4;
  constexpr std::uint64_t kSteps = 48 * kLadders;
  constexpr std::uint64_t kPerLadder = 1 + 2 * (kRungs - 1);
  const auto var = [](std::uint64_t w, std::uint64_t i) {
    return static_cast<Var>(w * kRungs + i);
  };
  const auto up = [](std::uint64_t w, std::uint64_t i) -> ClauseId {
    return w * kPerLadder + 1 + i;
  };
  const auto down = [](std::uint64_t w, std::uint64_t i) -> ClauseId {
    return w * kPerLadder + 1 + (kRungs - 1) + i;
  };
  const Var z = var(kLadders, 0);
  LadderTrace out;
  out.formula = Formula(z + 1);
  std::vector<Lit> join;
  for (std::uint64_t w = 0; w < kLadders; ++w) {
    out.formula.add_clause({Lit::pos(var(w, 0))});
    for (std::uint64_t i = 0; i + 1 < kRungs; ++i) {
      out.formula.add_clause({Lit::neg(var(w, i)), Lit::pos(var(w, i + 1))});
    }
    for (std::uint64_t i = 0; i + 1 < kRungs; ++i) {
      out.formula.add_clause({Lit::neg(var(w, i + 1)), Lit::pos(var(w, i))});
    }
    join.push_back(Lit::neg(var(w, kRungs - 1)));
  }
  join.push_back(Lit::pos(z));
  const ClauseId id_join = out.formula.add_clause(join);
  const ClauseId id_not_z = out.formula.add_clause({Lit::neg(z)});

  trace::MemoryTraceWriter w;
  w.begin(out.formula.num_vars(), out.formula.num_clauses());
  std::vector<std::uint64_t> pos(kLadders, 0);
  std::vector<ClauseId> unit(kLadders);
  for (std::uint64_t l = 0; l < kLadders; ++l) unit[l] = l * kPerLadder;
  out.steps.resize(kLadders);
  ClauseId next_id = out.formula.num_clauses();
  const auto step = [&](std::uint64_t l, bool climb, std::uint64_t rungs) {
    std::vector<ClauseId> sources{unit[l]};
    for (std::uint64_t s = 0; s < rungs; ++s) {
      sources.push_back(climb ? up(l, pos[l]) : down(l, pos[l] - 1));
      pos[l] = climb ? pos[l] + 1 : pos[l] - 1;
    }
    if (corrupt.count(next_id) != 0) {
      sources[1] = up(l, (pos[l] + kRungs / 2) % (kRungs - 1));
    }
    w.derivation(next_id, sources);
    out.steps[l].push_back(next_id);
    unit[l] = next_id++;
  };
  std::uint64_t rng = 1;
  const auto next_random = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (std::uint64_t n = 0; n < kSteps; ++n) {
    const std::uint64_t l = next_random() % kLadders;
    bool climb = (next_random() & 1) != 0;
    if (pos[l] + kChain > kRungs - 1) climb = false;
    if (pos[l] < kChain) climb = true;
    step(l, climb, kChain);
  }
  for (std::uint64_t l = 0; l < kLadders; ++l) {
    while (pos[l] < kRungs - 1) {
      step(l, true, std::min(kChain, kRungs - 1 - pos[l]));
    }
  }
  std::vector<ClauseId> sources{id_join};
  sources.insert(sources.end(), unit.begin(), unit.end());
  w.derivation(next_id, sources);
  w.final_conflict(id_not_z);
  w.level0(z, true, next_id);
  w.end();
  out.trace = w.take();
  return out;
}

CheckResult run_parallel(const Formula& f, const trace::MemoryTrace& t,
                         unsigned jobs) {
  trace::MemoryTraceReader r(t);
  ParallelOptions opts;
  opts.jobs = jobs;
  return check_parallel(f, r, opts);
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

/// Occurrences of spans called `name` in a Chrome trace.
std::size_t count_spans(const std::string& json, const std::string& name) {
  const std::string needle = "\"name\":\"" + name + "\"";
  std::size_t n = 0;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(ParallelChecker, LadderPartitionRunsItsGroupsAsTasks) {
  const LadderTrace lt = ladder_trace();
  obs::TraceSession session;
  const CheckResult par = run_parallel(lt.formula, lt.trace, 4);
  ASSERT_TRUE(par.ok) << par.error;
  // The pool's threads flushed their spans when the checker joined them.
  obs::flush_this_thread();
  const std::string json = session.sink().to_chrome_json();
  EXPECT_EQ(count_spans(json, "partition"), 1u);
  EXPECT_GE(count_spans(json, "task"), 4u);
}

TEST(ParallelChecker, RejectionAcrossGroupsNamesTheLowestFailingClause) {
  // Corrupt the last step of ladder 0 and the first step of ladder 9. The
  // depth-first plan reaches ladder 0 first, but every job count must name
  // the lower clause ID, whatever the groups' schedule.
  const LadderTrace clean = ladder_trace();
  const ClauseId late = clean.steps[0].back();
  const ClauseId early = clean.steps[9].front();
  ASSERT_LT(early, late);
  const LadderTrace lt = ladder_trace({late, early});
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
  // Depth-first stops at the first failure of its plan: the other one.
  trace::MemoryTraceReader r(lt.trace);
  const CheckResult df = check_depth_first(lt.formula, r);
  ASSERT_FALSE(df.ok);
  EXPECT_EQ(df.error.rfind("derivation of clause " + std::to_string(late), 0),
            0u)
      << df.error;
}

}  // namespace
}  // namespace satproof::checker
