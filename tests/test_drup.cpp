// Tests for DRUP emission and forward DRUP checking — the modern proof
// format descended from the paper's trace, validated side by side with it.

#include <gtest/gtest.h>

#include <sstream>

#include "src/checker/drup.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/encode/suite.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/drup.hpp"
#include "src/util/rng.hpp"

namespace satproof::checker {
namespace {

/// Solves `f` with DRUP emission; expects UNSAT; returns the proof text.
std::string solve_drup(const Formula& f, solver::SolverOptions opts = {}) {
  std::ostringstream out;
  trace::DrupWriter w(out);
  solver::Solver s(opts);
  s.add_formula(f);
  s.set_drup_writer(&w);
  EXPECT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
  return out.str();
}

TEST(Drup, SuiteProofsVerify) {
  for (const auto& inst : encode::unsat_suite(encode::SuiteScale::Small)) {
    const std::string proof = solve_drup(inst.formula);
    std::istringstream in(proof);
    const DrupCheckResult res = check_drup(inst.formula, in);
    EXPECT_TRUE(res.ok) << inst.name << ": " << res.error;
    EXPECT_GT(res.clauses_checked, 0u) << inst.name;
  }
}

TEST(Drup, DeletionHeavyProofsVerify) {
  solver::SolverOptions opts;
  opts.learned_size_factor = 0.001;  // force aggressive deletion
  const Formula f = encode::pigeonhole(7);
  const std::string proof = solve_drup(f, opts);
  EXPECT_NE(proof.find("d "), std::string::npos)
      << "expected deletion lines in the proof";
  std::istringstream in(proof);
  const DrupCheckResult res = check_drup(f, in);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.deletions, 0u);
}

TEST(Drup, EndsWithEmptyClause) {
  const std::string proof = solve_drup(encode::pigeonhole(4));
  // The last line is "0".
  const auto pos = proof.rfind('\n', proof.size() - 2);
  EXPECT_EQ(proof.substr(pos + 1), "0\n");
}

TEST(Drup, TrivialContradictionProof) {
  Formula f(1);
  f.add_clause({Lit::pos(0)});
  f.add_clause({Lit::neg(0)});
  const std::string proof = solve_drup(f);
  std::istringstream in(proof);
  const DrupCheckResult res = check_drup(f, in);
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Drup, CorruptedClauseRejected) {
  const Formula f = encode::pigeonhole(4);
  std::string proof = solve_drup(f);
  // Flip the sign of the first literal of the first added clause.
  const std::size_t pos = proof.find_first_of("-123456789");
  ASSERT_NE(pos, std::string::npos);
  if (proof[pos] == '-') {
    proof.erase(pos, 1);
  } else {
    proof.insert(pos, "-");
  }
  std::istringstream in(proof);
  const DrupCheckResult res = check_drup(f, in);
  // Either the flipped clause is no longer RUP, or some later step fails.
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
}

TEST(Drup, MissingEmptyClauseRejected) {
  const Formula f = encode::pigeonhole(4);
  std::string proof = solve_drup(f);
  proof.resize(proof.rfind("0\n"));  // drop the final empty clause
  std::istringstream in(proof);
  const DrupCheckResult res = check_drup(f, in);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("empty clause"), std::string::npos);
}

TEST(Drup, BogusDeletionRejected) {
  const Formula f = encode::pigeonhole(4);
  const std::string proof = "d 1 2 3 4 99 0\n" + solve_drup(f);
  std::istringstream in(proof);
  const DrupCheckResult res = check_drup(f, in);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("deletion"), std::string::npos);
}

TEST(Drup, AddedClauseOverUndeclaredVariableRejected) {
  // (1) (-1) is refuted by any proof, and the added clause is trivially
  // RUP; it is still rejected, before the engine is sized, because its
  // variable is not the formula's.
  Formula f(1);
  f.add_clause({Lit::pos(0)});
  f.add_clause({Lit::neg(0)});
  const std::string undeclared = std::to_string(f.num_vars() + 1);
  std::istringstream in(undeclared + " 0\n0\n");
  const DrupCheckResult res = check_drup(f, in);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error, "DRUP added clause uses undeclared variable " +
                           undeclared + " (the formula has 1): '" +
                           undeclared + " 0'");
  EXPECT_EQ(res.clauses_checked, 0u);
}

TEST(Drup, DeletionOverUndeclaredVariableRejected) {
  const Formula f = encode::pigeonhole(3);
  const std::string proof = "d 1 -" + std::to_string(f.num_vars() + 1) +
                            " 0\n" + solve_drup(f);
  std::istringstream in(proof);
  const DrupCheckResult res = check_drup(f, in);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error, "deletion of a clause not in the database");
}

TEST(Drup, UnterminatedLineRejected) {
  const Formula f = encode::pigeonhole(3);
  std::istringstream in("1 2 3\n");
  const DrupCheckResult res = check_drup(f, in);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("terminated"), std::string::npos);
}

class DrupSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DrupSweep, RandomUnsatInstancesVerify) {
  util::Rng rng(GetParam());
  int done = 0;
  for (int round = 0; round < 16 && done < 5; ++round) {
    const unsigned n = 16 + static_cast<unsigned>(rng.next_below(8));
    const Formula f = encode::random_ksat(
        n, static_cast<unsigned>(n * 5.0), 3, rng.next_u64());
    solver::Solver probe;
    probe.add_formula(f);
    std::ostringstream out;
    trace::DrupWriter w(out);
    probe.set_drup_writer(&w);
    if (probe.solve() != solver::SolveResult::Unsatisfiable) continue;
    ++done;
    std::istringstream in(out.str());
    const DrupCheckResult res = check_drup(f, in);
    EXPECT_TRUE(res.ok) << res.error;
  }
  EXPECT_GT(done, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DrupSweep, ::testing::Values(19, 38, 57));

}  // namespace
}  // namespace satproof::checker
