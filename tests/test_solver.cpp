// Unit tests for the CDCL solver: small instances with known answers,
// trace invariants, options, and the clause database / VSIDS heap.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "src/cnf/model.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/encode/suite.hpp"
#include "src/simplify/pipeline.hpp"
#include "src/solver/clause_db.hpp"
#include "src/solver/solver.hpp"
#include "src/solver/var_order.hpp"
#include "src/trace/binary.hpp"
#include "src/trace/drup.hpp"
#include "src/trace/memory.hpp"

namespace satproof::solver {
namespace {

SolveResult solve(const Formula& f, Solver& s) {
  s.add_formula(f);
  return s.solve();
}

TEST(Solver, EmptyFormulaIsSatisfiable) {
  Solver s;
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
}

TEST(Solver, EmptyClauseIsUnsatisfiable) {
  Formula f;
  f.add_clause(std::initializer_list<Lit>{});
  Solver s;
  EXPECT_EQ(solve(f, s), SolveResult::Unsatisfiable);
}

TEST(Solver, SingleUnitClause) {
  Formula f;
  f.add_clause({Lit::pos(0)});
  Solver s;
  ASSERT_EQ(solve(f, s), SolveResult::Satisfiable);
  EXPECT_EQ(s.model()[0], LBool::True);
}

TEST(Solver, ContradictoryUnitsUnsat) {
  Formula f;
  f.add_clause({Lit::pos(0)});
  f.add_clause({Lit::neg(0)});
  Solver s;
  EXPECT_EQ(solve(f, s), SolveResult::Unsatisfiable);
}

TEST(Solver, ChainPropagationUnsat) {
  // x0, x0->x1, x1->x2, ~x2: UNSAT purely by BCP at level 0.
  Formula f;
  f.add_clause({Lit::pos(0)});
  f.add_clause({Lit::neg(0), Lit::pos(1)});
  f.add_clause({Lit::neg(1), Lit::pos(2)});
  f.add_clause({Lit::neg(2)});
  Solver s;
  EXPECT_EQ(solve(f, s), SolveResult::Unsatisfiable);
  EXPECT_EQ(s.stats().conflicts, 0u);
}

TEST(Solver, AllModelsVariablesAssigned) {
  Formula f(5);
  f.add_clause({Lit::pos(0), Lit::pos(1)});
  Solver s;
  ASSERT_EQ(solve(f, s), SolveResult::Satisfiable);
  ASSERT_EQ(s.model().size(), 5u);
  for (const LBool v : s.model()) EXPECT_NE(v, LBool::Undef);
  EXPECT_TRUE(satisfies(f, s.model()));
}

TEST(Solver, DuplicateLiteralClauseBehavesAsUnit) {
  Formula f;
  f.add_clause({Lit::pos(1), Lit::pos(1)});
  f.add_clause({Lit::neg(1)});
  Solver s;
  EXPECT_EQ(solve(f, s), SolveResult::Unsatisfiable);
}

TEST(Solver, TautologicalClauseIgnored) {
  Formula f;
  f.add_clause({Lit::pos(0), Lit::neg(0)});  // permanently satisfied
  f.add_clause({Lit::pos(1)});
  Solver s;
  ASSERT_EQ(solve(f, s), SolveResult::Satisfiable);
  EXPECT_TRUE(satisfies(f, s.model()));
}

TEST(Solver, PigeonholeNeedsSearch) {
  Solver s;
  ASSERT_EQ(solve(encode::pigeonhole(4), s), SolveResult::Unsatisfiable);
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().learned_clauses, 0u);
  EXPECT_GT(s.stats().decisions, 0u);
}

TEST(Solver, SatisfiablePigeonholeVariant) {
  // n pigeons in n holes is satisfiable.
  Formula f;
  const unsigned n = 4;
  for (unsigned i = 0; i < n; ++i) {
    std::vector<Lit> c;
    for (unsigned j = 0; j < n; ++j) {
      c.push_back(Lit::pos(static_cast<Var>(i * n + j)));
    }
    f.add_clause(c);
  }
  for (unsigned j = 0; j < n; ++j) {
    for (unsigned i1 = 0; i1 < n; ++i1) {
      for (unsigned i2 = i1 + 1; i2 < n; ++i2) {
        f.add_clause({Lit::neg(static_cast<Var>(i1 * n + j)),
                      Lit::neg(static_cast<Var>(i2 * n + j))});
      }
    }
  }
  Solver s;
  ASSERT_EQ(solve(f, s), SolveResult::Satisfiable);
  EXPECT_TRUE(satisfies(f, s.model()));
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
  SolverOptions opts;
  opts.conflict_budget = 1;
  Solver s(opts);
  EXPECT_EQ(solve(encode::pigeonhole(5), s), SolveResult::Unknown);
}

TEST(Solver, SolveIsSingleShot) {
  Solver s;
  ASSERT_EQ(s.solve(), SolveResult::Satisfiable);
  EXPECT_THROW((void)s.solve(), std::logic_error);
}

TEST(Solver, AddClauseAfterSolveThrows) {
  Solver s;
  (void)s.solve();
  const Lit lits[] = {Lit::pos(0)};
  EXPECT_THROW(s.add_clause(lits), std::logic_error);
}

TEST(Solver, WorksWithoutRestartsAndDeletion) {
  SolverOptions opts;
  opts.enable_restarts = false;
  opts.enable_clause_deletion = false;
  Solver s(opts);
  EXPECT_EQ(solve(encode::pigeonhole(5), s), SolveResult::Unsatisfiable);
  EXPECT_EQ(s.stats().restarts, 0u);
  EXPECT_EQ(s.stats().deleted_clauses, 0u);
}

TEST(Solver, RestartsHappenOnHardInstances) {
  SolverOptions opts;
  opts.restart_first = 10;
  Solver s(opts);
  EXPECT_EQ(solve(encode::pigeonhole(6), s), SolveResult::Unsatisfiable);
  EXPECT_GT(s.stats().restarts, 0u);
}

TEST(Solver, ClauseDeletionKicksIn) {
  SolverOptions opts;
  opts.learned_size_factor = 0.001;  // force an early, tiny learned limit
  Solver s(opts);
  // The limit floors at 4000 learned clauses, so use an instance that
  // learns more than that.
  EXPECT_EQ(solve(encode::pigeonhole(7), s), SolveResult::Unsatisfiable);
  EXPECT_GT(s.stats().deleted_clauses, 0u);
}

TEST(Solver, KeepLevel0LiteralsOptionStillCorrect) {
  SolverOptions opts;
  opts.eliminate_level0_lits = false;
  Solver s(opts);
  EXPECT_EQ(solve(encode::pigeonhole(5), s), SolveResult::Unsatisfiable);
}

TEST(Solver, MinimizationShortensLearnedClauses) {
  solver::SolverOptions plain;
  Solver s_plain(plain);
  ASSERT_EQ(solve(encode::pigeonhole(6), s_plain),
            SolveResult::Unsatisfiable);

  solver::SolverOptions min;
  min.minimize_learned = true;
  Solver s_min(min);
  ASSERT_EQ(solve(encode::pigeonhole(6), s_min), SolveResult::Unsatisfiable);

  EXPECT_GT(s_min.stats().minimized_literals, 0u);
  // Average learned-clause length must not grow with minimization on.
  const double avg_plain =
      static_cast<double>(s_plain.stats().learned_literals) /
      static_cast<double>(s_plain.stats().learned_clauses);
  const double avg_min =
      static_cast<double>(s_min.stats().learned_literals) /
      static_cast<double>(s_min.stats().learned_clauses);
  EXPECT_LE(avg_min, avg_plain);
}

TEST(Solver, LubyRestartsStillComplete) {
  SolverOptions opts;
  opts.restart_schedule = SolverOptions::RestartSchedule::Luby;
  opts.restart_first = 8;
  Solver s(opts);
  EXPECT_EQ(solve(encode::pigeonhole(6), s), SolveResult::Unsatisfiable);
  EXPECT_GT(s.stats().restarts, 0u);
}

TEST(Solver, RandomDecisionsStillComplete) {
  SolverOptions opts;
  opts.random_decision_freq = 0.3;
  Solver s(opts);
  EXPECT_EQ(solve(encode::pigeonhole(5), s), SolveResult::Unsatisfiable);
}

TEST(Solver, StatsPopulatedAfterSearch) {
  Solver s;
  ASSERT_EQ(solve(encode::pigeonhole(5), s), SolveResult::Unsatisfiable);
  const SolverStats& st = s.stats();
  EXPECT_GT(st.propagations, 0u);
  EXPECT_GT(st.max_decision_level, 0u);
  EXPECT_GT(st.peak_clause_bytes, 0u);
  EXPECT_GT(st.learned_literals, st.learned_clauses);
}

TEST(Solver, TraceEmittedOnlyOnUnsat) {
  // SAT run: trace has derivations maybe, but no final conflict.
  Formula sat(2);
  sat.add_clause({Lit::pos(0), Lit::pos(1)});
  Solver s1;
  trace::MemoryTraceWriter w1;
  s1.set_trace_writer(&w1);
  s1.add_formula(sat);
  ASSERT_EQ(s1.solve(), SolveResult::Satisfiable);
  EXPECT_FALSE(w1.trace().has_final);
  EXPECT_TRUE(w1.trace().finished);

  Solver s2;
  trace::MemoryTraceWriter w2;
  s2.set_trace_writer(&w2);
  s2.add_formula(encode::pigeonhole(4));
  ASSERT_EQ(s2.solve(), SolveResult::Unsatisfiable);
  EXPECT_TRUE(w2.trace().has_final);
}

TEST(Solver, TraceDerivationIdsAreFreshAndOrdered) {
  Solver s;
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  s.add_formula(encode::pigeonhole(5));
  ASSERT_EQ(s.solve(), SolveResult::Unsatisfiable);
  const trace::MemoryTrace t = w.take();
  ClauseId prev = t.num_original - 1;
  for (const auto& d : t.derivations) {
    EXPECT_GT(d.id, prev);
    prev = d.id;
    EXPECT_GE(d.sources.size(), 2u);
    for (const ClauseId src : d.sources) EXPECT_LT(src, d.id);
  }
}

TEST(Solver, TraceLevel0AssignmentsAreUniqueWithAntecedents) {
  Solver s;
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  s.add_formula(encode::pigeonhole(5));
  ASSERT_EQ(s.solve(), SolveResult::Unsatisfiable);
  const trace::MemoryTrace t = w.take();
  std::vector<bool> seen(t.num_vars, false);
  for (const auto& a : t.level0) {
    ASSERT_LT(a.var, t.num_vars);
    EXPECT_FALSE(seen[a.var]);
    seen[a.var] = true;
    EXPECT_NE(a.antecedent, kInvalidClauseId);
  }
}

TEST(Solver, ExternalIdModeBasics) {
  Solver s;
  s.begin_external_ids(3);
  const Lit c0[] = {Lit::pos(0), Lit::pos(1)};
  const Lit c1[] = {Lit::neg(0)};
  const Lit c2[] = {Lit::neg(1)};
  s.add_clause_with_id(c0, 0);
  s.add_clause_with_id(c1, 1);
  // Skip ID 2 (a "derived then discarded" clause) and add one beyond.
  s.add_clause_with_id(c2, 5);
  s.reserve_clause_ids(10);

  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  EXPECT_EQ(s.solve(), SolveResult::Unsatisfiable);
  const trace::MemoryTrace t = w.take();
  // In external mode the caller owns the header: the solver must not have
  // written begin() (num_vars stays 0 in the memory trace).
  EXPECT_EQ(t.num_vars, 0u);
  // Learned IDs start after the reservation.
  for (const auto& d : t.derivations) EXPECT_GE(d.id, 10u);
}

TEST(Solver, ExternalIdModeRejectsMisuse) {
  Solver s;
  const Lit c[] = {Lit::pos(0)};
  EXPECT_THROW(s.add_clause_with_id(c, 0), std::logic_error);
  EXPECT_THROW(s.reserve_clause_ids(5), std::logic_error);
  (void)s.add_clause(c);
  EXPECT_THROW(s.begin_external_ids(1), std::logic_error);

  Solver s2;
  s2.begin_external_ids(2);
  EXPECT_THROW((void)s2.add_clause(c), std::logic_error);
  s2.add_clause_with_id(c, 1);
  EXPECT_THROW(s2.add_clause_with_id(c, 0), std::logic_error);  // not increasing
}

// ---------------------------------------------------------------------------
// Output pins. The solver's search is deterministic, so its binary trace,
// its DRUP proof and its counters are fixed functions of the input and the
// options. These pins make "the same search" a checked property: a change
// to the clause store, the propagation loop or the analysis that alters a
// single decision, a watch-list order or a tie-break shows up here. A
// deliberate change to the search must update the pins (the failure
// message prints each mismatching row in source form).

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct PinnedRun {
  std::string name;
  char result;  ///< 'S', 'U' or '?'
  std::uint64_t trace_fnv;
  std::uint64_t drup_fnv;
  std::uint64_t decisions, conflicts, propagations, learned, deleted,
      restarts, minimized;
  std::size_t peak_clause_bytes;
};

char result_char(SolveResult r) {
  return r == SolveResult::Satisfiable     ? 'S'
         : r == SolveResult::Unsatisfiable ? 'U'
                                           : '?';
}

PinnedRun pinned_run(std::string name, SolveResult r, const std::string& trace,
                     const std::string& drup, const SolverStats& st) {
  return {std::move(name),    result_char(r),
          fnv1a(trace),       fnv1a(drup),
          st.decisions,       st.conflicts,
          st.propagations,    st.learned_clauses,
          st.deleted_clauses, st.restarts,
          st.minimized_literals, st.peak_clause_bytes};
}

PinnedRun run_solver(std::string name, const Formula& f,
                     const SolverOptions& opts,
                     std::span<const Lit> assumptions = {}) {
  Solver s(opts);
  s.add_formula(f);
  std::ostringstream trace_bytes;
  trace::BinaryTraceWriter tw(trace_bytes);
  s.set_trace_writer(&tw);
  std::ostringstream drup_bytes;
  trace::DrupWriter dw(drup_bytes);
  s.set_drup_writer(&dw);
  const SolveResult r = s.solve(assumptions);
  return pinned_run(std::move(name), r, trace_bytes.str(), drup_bytes.str(),
                    s.stats());
}

std::string to_source(const PinnedRun& p) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", '%c', 0x%016llxull, 0x%016llxull, %llu, %llu, "
                "%llu, %llu, %llu, %llu, %llu, %zu},",
                p.name.c_str(), p.result,
                static_cast<unsigned long long>(p.trace_fnv),
                static_cast<unsigned long long>(p.drup_fnv),
                static_cast<unsigned long long>(p.decisions),
                static_cast<unsigned long long>(p.conflicts),
                static_cast<unsigned long long>(p.propagations),
                static_cast<unsigned long long>(p.learned),
                static_cast<unsigned long long>(p.deleted),
                static_cast<unsigned long long>(p.restarts),
                static_cast<unsigned long long>(p.minimized),
                p.peak_clause_bytes);
  return buf;
}

bool same_run(const PinnedRun& a, const PinnedRun& b) {
  return to_source(a) == to_source(b);
}

std::vector<PinnedRun> pinned_runs() {
  std::vector<PinnedRun> runs;
  const SolverOptions defaults;
  for (const encode::NamedInstance& inst :
       encode::unsat_suite(encode::SuiteScale::Small)) {
    runs.push_back(run_solver("small/" + inst.name, inst.formula, defaults));
  }
  // Random 3-SAT at the phase transition, 40-60 variables: SAT and UNSAT
  // outcomes from one generator.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const unsigned n = 40 + static_cast<unsigned>(seed % 5) * 5;
    const unsigned m = n * 426 / 100;
    runs.push_back(run_solver("ksat3/" + std::to_string(seed),
                              encode::random_ksat(n, m, 3, 7000 + seed),
                              defaults));
  }
  // php7 learns more than the 4000-clause floor, so clause deletion runs.
  runs.push_back(run_solver("php7", encode::pigeonhole(7), defaults));

  SolverOptions minimize;
  minimize.minimize_learned = true;
  runs.push_back(run_solver("php7/minimize", encode::pigeonhole(7), minimize));
  SolverOptions luby;
  luby.restart_schedule = SolverOptions::RestartSchedule::Luby;
  luby.restart_first = 8;
  runs.push_back(run_solver("php7/luby", encode::pigeonhole(7), luby));
  SolverOptions no_deletion;
  no_deletion.enable_clause_deletion = false;
  runs.push_back(
      run_solver("php7/no-deletion", encode::pigeonhole(7), no_deletion));
  SolverOptions keep_level0;
  keep_level0.eliminate_level0_lits = false;
  runs.push_back(run_solver("ksat3/keep-level0",
                            encode::random_ksat(55, 234, 3, 7003),
                            keep_level0));
  SolverOptions random_decisions;
  random_decisions.random_decision_freq = 0.05;
  runs.push_back(run_solver("php6/random-decisions", encode::pigeonhole(6),
                            random_decisions));

  // Assumptions: a satisfiable instance refuted under a set of assumed
  // literals, so the trace ends in assumption records.
  {
    std::vector<Lit> assumed;
    for (Var v = 0; v < 16; ++v) {
      assumed.push_back(v % 2 == 0 ? Lit::pos(v) : Lit::neg(v));
    }
    runs.push_back(run_solver("ksat3/assumptions",
                              encode::random_ksat(50, 190, 3, 7100), defaults,
                              assumed));
  }
  // Preprocess-then-solve: the solver runs in external-ID mode behind the
  // preprocessor, which writes the trace header and its own derivations.
  {
    std::ostringstream trace_bytes;
    trace::BinaryTraceWriter tw(trace_bytes);
    const simplify::SimplifiedSolveResult r = simplify::solve_simplified(
        encode::pigeonhole(6), defaults, {}, &tw);
    runs.push_back(pinned_run("php6/simplify", r.result, trace_bytes.str(),
                              "", r.solver_stats));
  }
  return runs;
}

// Recorded from the solver as it stood before the flat clause arena; the
// arena must reproduce every row.
// clang-format off
const std::vector<PinnedRun> kPins = {
  {"small/bw_rand5", 'U', 0x6a29e68a871fedd9ull, 0x07fc1e07b4bd2c5full, 0, 0, 474, 0, 0, 0, 0, 239420},
  {"small/fpga_route_9x4", 'U', 0x35b635b38a2eabdbull, 0x50d3ccaefdc7152full, 41, 34, 507, 33, 0, 0, 0, 9344},
  {"small/miter_add8", 'U', 0x7ff3d0b7a83fbc28ull, 0x5ece5164c489f43aull, 447, 221, 5743, 220, 0, 1, 0, 33320},
  {"small/bmc_rotator4_k6", 'U', 0x93091efaa632cadfull, 0x2769f083bbec4e09ull, 942, 517, 16337, 516, 0, 3, 0, 62928},
  {"small/tseitin3x3", 'U', 0x0aa66b0159ed3147ull, 0x1efb58999be2cb0eull, 688, 591, 3389, 590, 0, 3, 0, 41348},
  {"small/clique6_c5", 'U', 0x8e26542befa2167full, 0xf0565497ef624654ull, 163, 147, 1702, 146, 0, 1, 0, 15320},
  {"small/php5", 'U', 0x8c10ed7de27859f6ull, 0x60b4e0a103c12354ull, 208, 165, 1911, 164, 0, 1, 0, 14280},
  {"small/miter_mult3", 'U', 0xe7a2ae35d072bbbaull, 0xb61b14c3b3f1c8beull, 101, 84, 4955, 83, 0, 0, 0, 52684},
  {"ksat3/0", 'S', 0x5fcd7aa828a671adull, 0x48116e640f867b79ull, 14, 2, 52, 2, 0, 0, 0, 7576},
  {"ksat3/1", 'S', 0x5e30930558916140ull, 0xcbf29ce484222325ull, 13, 0, 45, 0, 0, 0, 0, 8404},
  {"ksat3/2", 'S', 0xe8c4ce871c414c64ull, 0xb5e2cd01884c0a8bull, 54, 45, 718, 45, 0, 0, 0, 11744},
  {"ksat3/3", 'U', 0x159854c2516fc099ull, 0x3f127cba4e947d1bull, 61, 55, 954, 54, 0, 0, 0, 13068},
  {"ksat3/4", 'U', 0xbf197d1a57dc4334ull, 0x05ac12b2e8ca2f36ull, 98, 88, 1391, 87, 0, 0, 0, 15676},
  {"ksat3/5", 'S', 0x9a4897cb3f18d9b6ull, 0x583ee1aa63a3fba1ull, 31, 23, 305, 23, 0, 0, 0, 8676},
  {"ksat3/6", 'U', 0x94faa357219e2fe3ull, 0x8f8e18cecee390a9ull, 31, 30, 441, 29, 0, 0, 0, 9748},
  {"ksat3/7", 'S', 0x3b80f7275dc32111ull, 0x13e78530df72fbf8ull, 61, 39, 557, 39, 0, 0, 0, 11292},
  {"ksat3/8", 'S', 0xb723480f45563674ull, 0x8d2ba3c498654df3ull, 45, 31, 481, 31, 0, 0, 0, 11940},
  {"ksat3/9", 'U', 0x33dcb9f95784f453ull, 0x0b9bf2e1d553b4b4ull, 85, 70, 1038, 69, 0, 0, 0, 14736},
  {"ksat3/10", 'S', 0x40905afabccee967ull, 0xea53ec27ccfac937ull, 14, 6, 101, 6, 0, 0, 0, 7808},
  {"ksat3/11", 'U', 0x538ffeac0c758628ull, 0x449144257b54ed52ull, 72, 65, 945, 64, 0, 0, 0, 11648},
  {"ksat3/12", 'S', 0xc8a18e1445bf79ceull, 0x51b34396090857ceull, 28, 7, 117, 7, 0, 0, 0, 9724},
  {"ksat3/13", 'U', 0xae1a119bcbbc3707ull, 0xeeac4deff548a752ull, 75, 65, 960, 64, 0, 0, 0, 13596},
  {"ksat3/14", 'U', 0x5f7ca9fb8ad6db62ull, 0x741991788e7f5a0aull, 90, 74, 1099, 73, 0, 0, 0, 15016},
  {"ksat3/15", 'U', 0x4d330a8239eeee9bull, 0xc3b9daebcb0e774full, 56, 52, 701, 51, 0, 0, 0, 10036},
  {"ksat3/16", 'U', 0x837b5b8e2cc6f4e4ull, 0xb8e8aca3f4400da6ull, 74, 71, 981, 70, 0, 0, 0, 12100},
  {"ksat3/17", 'S', 0x50d41cbe762edd17ull, 0x5e0d7d0a542b2b3cull, 20, 8, 161, 8, 0, 0, 0, 9816},
  {"ksat3/18", 'U', 0x85d10a1a07a0e04aull, 0xec0dc08ea8cb962bull, 99, 89, 1113, 88, 0, 0, 0, 14820},
  {"ksat3/19", 'S', 0xa764399198290c2aull, 0x2ec1fd0d6d396cbdull, 128, 102, 1649, 102, 0, 1, 0, 16696},
  {"php7", 'U', 0x1f668512a0a4c3f0ull, 0x380da53990cd489dull, 5155, 4361, 56593, 4360, 2001, 7, 0, 453024},
  {"php7/minimize", 'U', 0x1d76695cabdb22b9ull, 0x23856421cd8e1779ull, 4848, 4175, 54352, 4174, 2002, 7, 7674, 413908},
  {"php7/luby", 'U', 0x02efc1d369bb52c1ull, 0xda1d0fd7799a3a80ull, 12422, 7407, 117563, 7406, 4200, 254, 0, 490544},
  {"php7/no-deletion", 'U', 0x0dd986641357423dull, 0x8812244d0ba2df53ull, 5144, 4371, 56752, 4370, 0, 7, 0, 488184},
  {"ksat3/keep-level0", 'U', 0x6db1ad6792c38c73ull, 0x82f9257ecfa88ad1ull, 61, 55, 954, 54, 0, 0, 0, 13168},
  {"php6/random-decisions", 'U', 0x169f1748cfdfbfbbull, 0xb0cea0dd107c3470ull, 845, 711, 8635, 710, 0, 3, 0, 66816},
  {"ksat3/assumptions", 'U', 0x241ed270625243b2ull, 0x1964e3154eb5618bull, 13, 3, 33, 3, 0, 0, 0, 8532},
  {"php6/simplify", 'U', 0xd0b8e295ad9c2d66ull, 0xcbf29ce484222325ull, 921, 791, 8063, 790, 0, 3, 0, 73064},
};
// clang-format on

TEST(Solver, SolverOutputIsPinned) {
  const std::vector<PinnedRun> runs = pinned_runs();
  if (runs.size() != kPins.size()) {
    std::string all;
    for (const PinnedRun& r : runs) all += "    " + to_source(r) + "\n";
    FAIL() << "expected " << kPins.size() << " pinned rows, got "
           << runs.size() << ":\n" << all;
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_TRUE(same_run(runs[i], kPins[i]))
        << "row " << i << "\n  pinned: " << to_source(kPins[i])
        << "\n  actual: " << to_source(runs[i]);
  }
}

TEST(ClauseDb, AllocFreeRecyclesSlots) {
  ClauseDb db;
  const Lit lits[] = {Lit::pos(0), Lit::neg(1)};
  const ClauseSlot a = db.alloc(lits, 0, false);
  const ClauseSlot b = db.alloc(lits, 1, true);
  EXPECT_NE(a, b);
  EXPECT_EQ(db.num_learned(), 1u);
  EXPECT_GT(db.mem().current_bytes(), 0u);
  db.free(b);
  EXPECT_EQ(db.num_learned(), 0u);
  const ClauseSlot c = db.alloc(lits, 2, true);
  EXPECT_EQ(c, b);  // slot recycled
  EXPECT_EQ(db[c].id, 2u);
}

TEST(ClauseDb, LiveSlotsSkipsFreed) {
  ClauseDb db;
  const Lit lits[] = {Lit::pos(0)};
  const ClauseSlot a = db.alloc(lits, 0, false);
  const ClauseSlot b = db.alloc(lits, 1, false);
  db.free(a);
  const auto live = db.live_slots();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0], b);
}

std::vector<Lit> lits_of(const ClauseDb& db, ClauseSlot slot) {
  const std::span<const Lit> lits = db.lits(slot);
  return {lits.begin(), lits.end()};
}

/// Five clauses of lengths 3..7 over distinct literals, slots 0..4.
std::vector<std::vector<Lit>> fill(ClauseDb& db) {
  std::vector<std::vector<Lit>> clauses;
  for (Var c = 0; c < 5; ++c) {
    std::vector<Lit> lits;
    for (Var k = 0; k < c + 3; ++k) lits.push_back(Lit(10 * c + k, k % 2 == 1));
    EXPECT_EQ(db.alloc(lits, c, c % 2 == 1), c);
    clauses.push_back(lits);
  }
  return clauses;
}

TEST(ClauseDb, CompactionKeepsLiteralsAndSlotOrder) {
  ClauseDb db;
  const std::vector<std::vector<Lit>> clauses = fill(db);
  // Watched-literal swaps reorder a clause in place; compaction must keep
  // that order, not restore the allocation order.
  std::swap(db.lits(4)[0], db.lits(4)[5]);
  std::vector<Lit> reordered = clauses[4];
  std::swap(reordered[0], reordered[5]);
  db.free(1);
  db.free(3);
  ASSERT_FALSE(db.needs_compaction());  // 6 + 8 of 35 words wasted
  db.free(0);
  ASSERT_TRUE(db.needs_compaction());  // 19 of 35
  const std::vector<ClauseSlot> live_before = db.live_slots();
  db.compact();
  EXPECT_EQ(db.live_slots(), live_before);
  EXPECT_FALSE(db.needs_compaction());
  EXPECT_EQ(db.arena_words(), 2 * ClauseDb::kHeaderWords + 5 + 7);
  EXPECT_EQ(lits_of(db, 2), clauses[2]);
  EXPECT_EQ(lits_of(db, 4), reordered);
  for (const ClauseSlot s : db.live_slots()) {
    EXPECT_EQ(db.slot_at(db[s].ref), s);
    EXPECT_EQ(db[s].id, s);
  }
  // Slot order is arena order after compaction.
  EXPECT_LT(db[2].ref, db[4].ref);
}

TEST(ClauseDb, CompactionKeepsByteAccounting) {
  ClauseDb db;
  (void)fill(db);
  db.free(0);
  db.free(2);
  db.free(4);
  const std::size_t current = db.mem().current_bytes();
  const std::size_t peak = db.mem().peak_bytes();
  EXPECT_EQ(current, util::clause_footprint_bytes(4) +
                         util::clause_footprint_bytes(6));
  db.compact();
  EXPECT_EQ(db.mem().current_bytes(), current);
  EXPECT_EQ(db.mem().peak_bytes(), peak);
  EXPECT_EQ(db.num_learned(), 2u);  // slots 1 and 3
}

TEST(ClauseDb, RecycledSlotReadsTheNewClause) {
  ClauseDb db;
  const std::vector<std::vector<Lit>> clauses = fill(db);
  const ClauseRef stale = db[2].ref;
  db.free(2);
  const std::vector<Lit> fresh = {Lit::neg(99), Lit::pos(98)};
  ASSERT_EQ(db.alloc(fresh, 7, true), 2u);  // LIFO recycling
  EXPECT_NE(db[2].ref, stale);
  EXPECT_EQ(lits_of(db, 2), fresh);
  EXPECT_EQ(db[2].id, 7u);
  EXPECT_TRUE(db[2].learned);
  db.free(0);
  db.free(1);
  db.free(3);
  db.compact();
  EXPECT_EQ(lits_of(db, 2), fresh);
  EXPECT_EQ(lits_of(db, 4), clauses[4]);
  EXPECT_EQ(db.live_slots(), (std::vector<ClauseSlot>{2, 4}));
}

TEST(VarOrder, PopsInActivityOrder) {
  VarOrder o;
  o.grow_to(4);
  o.bump(2);
  o.bump(2);
  o.bump(1);
  EXPECT_EQ(o.pop_max(), 2u);
  EXPECT_EQ(o.pop_max(), 1u);
  // Remaining two have zero activity; both must eventually come out.
  const Var a = o.pop_max();
  const Var b = o.pop_max();
  EXPECT_TRUE((a == 0 && b == 3) || (a == 3 && b == 0));
  EXPECT_TRUE(o.empty());
}

TEST(VarOrder, ReinsertAndContains) {
  VarOrder o;
  o.grow_to(3);
  EXPECT_TRUE(o.contains(0));
  const Var popped = o.pop_max();  // ties broken arbitrarily
  EXPECT_FALSE(o.contains(popped));
  o.insert(popped);
  EXPECT_TRUE(o.contains(popped));
  o.insert(popped);  // idempotent
  int count = 0;
  while (!o.empty()) {
    o.pop_max();
    ++count;
  }
  EXPECT_EQ(count, 3);
}

TEST(VarOrder, DecayPreservesRelativeOrder) {
  VarOrder o;
  o.grow_to(2);
  o.bump(0);
  o.decay(0.5);
  o.bump(1);  // later bumps weigh more after decay
  EXPECT_EQ(o.pop_max(), 1u);
}

TEST(VarOrder, RescaleKeepsWorking) {
  VarOrder o;
  o.grow_to(2);
  for (int i = 0; i < 100000; ++i) {
    o.decay(0.5);  // inc explodes quickly, forcing rescales on bump
    o.bump(i % 2 == 0 ? 0u : 1u);
  }
  EXPECT_TRUE(o.contains(0));
  EXPECT_TRUE(o.contains(1));
  const double a0 = o.activity(0), a1 = o.activity(1);
  EXPECT_TRUE(std::isfinite(a0));
  EXPECT_TRUE(std::isfinite(a1));
}

}  // namespace
}  // namespace satproof::solver
