// Tests for the RUP cross-checker: it must accept every proof the
// resolution checkers accept, reject corrupted DAGs, and agree with the
// resolution checker across random sweeps.

#include <gtest/gtest.h>

#include "src/checker/rup_engine.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/encode/suite.hpp"
#include "src/proof/rup.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/memory.hpp"

namespace satproof::proof {
namespace {

struct Solved {
  Formula formula;
  trace::MemoryTrace trace;
};

Solved solve_unsat(Formula f) {
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  EXPECT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
  return {std::move(f), w.take()};
}

TEST(Rup, AcceptsSuiteProofs) {
  for (const auto& inst : encode::unsat_suite(encode::SuiteScale::Small)) {
    const Solved su = solve_unsat(inst.formula);
    trace::MemoryTraceReader r(su.trace);
    const RupResult res = check_trace_rup(su.formula, r);
    EXPECT_TRUE(res.ok) << inst.name << ": " << res.error;
    // Note: propagations may legitimately be zero when the persistent
    // prefix alone already settles every check (propagation-dominated
    // instances like blocks world).
    EXPECT_GT(res.clauses_checked, 0u) << inst.name;
  }
}

TEST(Rup, ChecksEveryDerivedClause) {
  const Solved su = solve_unsat(encode::pigeonhole(5));
  trace::MemoryTraceReader r1(su.trace);
  const ProofDag dag = extract_proof(su.formula, r1);
  const RupResult res = check_rup(su.formula, dag);
  ASSERT_TRUE(res.ok) << res.error;
  std::size_t derived = 0;
  for (const auto& n : dag.nodes) derived += n.sources.empty() ? 0 : 1;
  EXPECT_EQ(res.clauses_checked, derived);
}

TEST(Rup, RejectsWeakenedDerivedClause) {
  // Corrupt the DAG: flip a literal of some derived clause so it is no
  // longer implied where it sits in the derivation order.
  const Solved su = solve_unsat(encode::pigeonhole(5));
  trace::MemoryTraceReader r(su.trace);
  ProofDag dag = extract_proof(su.formula, r);

  bool corrupted = false;
  for (auto& node : dag.nodes) {
    // Pick the first derived, non-empty clause.
    if (node.sources.empty() || node.lits.empty()) continue;
    node.lits[0] = ~node.lits[0];
    corrupted = true;
    break;
  }
  ASSERT_TRUE(corrupted);
  const RupResult res = check_rup(su.formula, dag);
  // The flipped clause is (almost surely) not RUP at its position; if the
  // flip happened to produce an implied clause, downstream nodes relying on
  // the original would fail instead. Either way: rejection.
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
}

TEST(Rup, RejectsForeignLeaf) {
  const Solved su = solve_unsat(encode::pigeonhole(4));
  trace::MemoryTraceReader r(su.trace);
  ProofDag dag = extract_proof(su.formula, r);
  // Claim a leaf beyond the original range.
  for (auto& node : dag.nodes) {
    if (node.sources.empty()) {
      node.id = dag.num_original + 100000;
      break;
    }
  }
  const RupResult res = check_rup(su.formula, dag);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("leaf"), std::string::npos);
}

TEST(Rup, TrivialEmptyClauseFormula) {
  Formula f;
  f.add_clause(std::initializer_list<Lit>{});
  const Solved su = solve_unsat(std::move(f));
  trace::MemoryTraceReader r(su.trace);
  const RupResult res = check_trace_rup(su.formula, r);
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Rup, AssumptionRefutationsAreRup) {
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
  trace::MemoryTraceReader r(t);
  const RupResult res = check_trace_rup(f, r);
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Rup, SatTraceRejectedGracefully) {
  Formula f(2);
  f.add_clause({Lit::pos(0), Lit::pos(1)});
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  ASSERT_EQ(s.solve(), solver::SolveResult::Satisfiable);
  const trace::MemoryTrace t = w.take();
  trace::MemoryTraceReader r(t);
  const RupResult res = check_trace_rup(f, r);
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
}

// ---- earliest failure at every job count --------------------------------
//
// The RUP checks run on workers that each own blocks of kRupBlock derived
// clauses, so these DAGs place their faults in different blocks, and the
// verdict must still be the sequential one: the first failing node wins.

constexpr unsigned kJobCounts[] = {1, 2, 3, 4, 8};

/// php(6) plus the clause (z1 z2 z3) over three fresh variables, so the
/// unit clause z1 is never RUP before the proof's final steps.
struct FaultFixture {
  Formula formula;
  ProofDag dag;
  Lit z1;
};

const FaultFixture& fault_fixture() {
  static const FaultFixture fx = [] {
    Formula f = encode::pigeonhole(6);
    const Var z = f.num_vars();
    f.add_clause({Lit::pos(z), Lit::pos(z + 1), Lit::pos(z + 2)});
    const Solved su = solve_unsat(std::move(f));
    trace::MemoryTraceReader r(su.trace);
    ProofDag dag = extract_proof(su.formula, r);
    return FaultFixture{su.formula, std::move(dag), Lit::pos(z)};
  }();
  return fx;
}

/// Index in dag.nodes of the `k`-th derived node (0-based).
std::size_t derived_node(const ProofDag& dag, std::size_t k) {
  for (std::size_t i = 0; i < dag.nodes.size(); ++i) {
    if (!dag.nodes[i].sources.empty() && k-- == 0) return i;
  }
  ADD_FAILURE() << "the DAG has too few derived nodes";
  return 0;
}

/// Makes the `k`-th derived node claim the unit clause z1; returns its ID.
ClauseId make_not_rup(ProofDag& dag, std::size_t k, Lit z1) {
  ProofDag::Node& node = dag.nodes[derived_node(dag, k)];
  node.lits = {z1};
  return node.id;
}

/// Inserts a leaf that is not an original clause before the `k`-th derived
/// node; returns its ID.
ClauseId insert_foreign_leaf(ProofDag& dag, std::size_t k) {
  ProofDag::Node leaf;
  leaf.id = dag.num_original + 100000 + k;
  const auto at = static_cast<std::ptrdiff_t>(derived_node(dag, k));
  dag.nodes.insert(dag.nodes.begin() + at, leaf);
  return leaf.id;
}

/// Checks `dag` at every job count, twice each, against `expected`.
void expect_same_at_every_jobs(const Formula& f, const ProofDag& dag,
                               const RupResult& expected) {
  for (const unsigned jobs : kJobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const RupResult res = check_rup(f, dag, jobs);
    EXPECT_EQ(res.ok, expected.ok);
    EXPECT_EQ(res.error, expected.error);
    EXPECT_EQ(res.clauses_checked, expected.clauses_checked);
    EXPECT_EQ(check_rup(f, dag, jobs).propagations, res.propagations);
  }
}

RupResult not_rup_at(std::size_t k, ClauseId id) {
  RupResult out;
  out.error = "derived clause " + std::to_string(id) +
              " is not RUP: assuming its negation does not propagate to a "
              "conflict";
  out.clauses_checked = k;
  return out;
}

RupResult foreign_leaf_at(std::size_t k, ClauseId id) {
  RupResult out;
  out.error = "leaf node " + std::to_string(id) + " is not an original clause";
  out.clauses_checked = k;
  return out;
}

std::size_t count_derived(const ProofDag& dag) {
  std::size_t derived = 0;
  for (const auto& n : dag.nodes) derived += n.sources.empty() ? 0 : 1;
  return derived;
}

TEST(RupEarliestFailure, FixtureSpansManyBlocks) {
  const FaultFixture& fx = fault_fixture();
  const std::size_t derived = count_derived(fx.dag);
  EXPECT_GT(derived, 8 * checker::kRupBlock);
  RupResult clean;
  clean.ok = true;
  clean.clauses_checked = derived;
  expect_same_at_every_jobs(fx.formula, fx.dag, clean);
}

TEST(RupEarliestFailure, EarlyForeignLeafBeatsLateNonRupClause) {
  const FaultFixture& fx = fault_fixture();
  ProofDag dag = fx.dag;
  make_not_rup(dag, 5 * checker::kRupBlock + 7, fx.z1);
  const ClauseId leaf = insert_foreign_leaf(dag, 10);
  expect_same_at_every_jobs(fx.formula, dag, foreign_leaf_at(10, leaf));
}

TEST(RupEarliestFailure, EarlyNonRupClauseBeatsLateForeignLeaf) {
  const FaultFixture& fx = fault_fixture();
  ProofDag dag = fx.dag;
  insert_foreign_leaf(dag, 5 * checker::kRupBlock + 7);
  const ClauseId bad = make_not_rup(dag, 10, fx.z1);
  expect_same_at_every_jobs(fx.formula, dag, not_rup_at(10, bad));
}

TEST(RupEarliestFailure, EarlierOfTwoNonRupClausesOnDifferentWorkers) {
  // The later fault opens block 3, so its worker reaches it first; the
  // earlier one closes block 2, owned by another worker at every count
  // above one.
  const FaultFixture& fx = fault_fixture();
  ProofDag dag = fx.dag;
  const std::size_t k = 3 * checker::kRupBlock - 1;
  const ClauseId bad = make_not_rup(dag, k, fx.z1);
  make_not_rup(dag, k + 1, fx.z1);
  expect_same_at_every_jobs(fx.formula, dag, not_rup_at(k, bad));
}

TEST(RupEarliestFailure, ClausesAfterTheEmptyClauseAreAccepted) {
  // Nothing ends a RUP replay early: derived clauses after the root are
  // still counted, and hold because the database is already refuted.
  const FaultFixture& fx = fault_fixture();
  ProofDag dag = fx.dag;
  const ProofDag::Node root = dag.nodes.back();
  for (std::size_t i = 0; i < 3 * checker::kRupBlock; ++i) {
    ProofDag::Node garbage = root;
    garbage.id = root.id + 1 + i;
    garbage.lits = {fx.z1};
    dag.nodes.push_back(garbage);
  }
  RupResult expected;
  expected.ok = true;
  expected.clauses_checked = count_derived(dag);
  expect_same_at_every_jobs(fx.formula, dag, expected);
}

class RupSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RupSweep, AgreesWithResolutionCheckingOnRandomUnsat) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    const unsigned n = 18 + static_cast<unsigned>(rng.next_below(8));
    const Formula f = encode::random_ksat(
        n, static_cast<unsigned>(n * 5.0), 3, rng.next_u64());
    solver::Solver s;
    s.add_formula(f);
    trace::MemoryTraceWriter w;
    s.set_trace_writer(&w);
    if (s.solve() != solver::SolveResult::Unsatisfiable) continue;
    const trace::MemoryTrace t = w.take();
    trace::MemoryTraceReader r(t);
    const RupResult res = check_trace_rup(f, r);
    EXPECT_TRUE(res.ok) << res.error;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RupSweep, ::testing::Values(31, 62, 93));

}  // namespace
}  // namespace satproof::proof
