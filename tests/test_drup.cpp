// Tests for DRUP emission and forward DRUP checking — the modern proof
// format descended from the paper's trace, validated side by side with it.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/checker/drup.hpp"
#include "src/checker/rup_engine.hpp"
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

// ---- earliest failure at every job count --------------------------------
//
// The RUP checks run on workers that each own blocks of kRupBlock lemmas,
// so these proofs place their faults in different blocks, and the verdict
// must still be the sequential one: the first failing step wins.

constexpr unsigned kJobCounts[] = {1, 2, 3, 4, 8};

/// php(6) plus the clause (z1 z2 z3) over three fresh variables, so "z1 0"
/// is a lemma that is never RUP before the proof's final steps, and
/// "d z1 z2 0" deletes a clause that is never in the database.
struct FaultFixture {
  Formula formula;
  std::vector<std::string> lines;  ///< the clean proof's lines
  std::string not_rup;
  std::string bogus_deletion;
};

const FaultFixture& fault_fixture() {
  static const FaultFixture fx = [] {
    FaultFixture out;
    const Formula php = encode::pigeonhole(6);
    std::istringstream proof(solve_drup(php));
    for (std::string line; std::getline(proof, line);) {
      out.lines.push_back(line);
    }
    out.formula = php;
    const Var z = php.num_vars();
    out.formula.add_clause({Lit::pos(z), Lit::pos(z + 1), Lit::pos(z + 2)});
    out.not_rup = std::to_string(z + 1) + " 0";
    out.bogus_deletion =
        "d " + std::to_string(z + 1) + " " + std::to_string(z + 2) + " 0";
    return out;
  }();
  return fx;
}

bool is_deletion(const std::string& line) { return line.rfind("d ", 0) == 0; }

/// Inserts `line` before the proof's `lemma`-th added clause (0-based) and
/// returns the line's index.
std::size_t insert_before_lemma(std::vector<std::string>& lines,
                                std::size_t lemma, const std::string& line) {
  std::size_t seen = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (is_deletion(lines[i])) continue;
    if (seen++ == lemma) {
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), line);
      return i;
    }
  }
  ADD_FAILURE() << "the proof has only " << seen << " lemmas";
  return lines.size();
}

/// The result a sequential check reports when `lines[fault]` fails.
DrupCheckResult failure_at(const std::vector<std::string>& lines,
                           std::size_t fault, const std::string& error) {
  DrupCheckResult out;
  out.error = error;
  for (std::size_t i = 0; i < fault; ++i) {
    ++(is_deletion(lines[i]) ? out.deletions : out.clauses_checked);
  }
  return out;
}

/// Checks `lines` at every job count, twice each, against `expected`.
void expect_same_at_every_jobs(const Formula& f,
                               const std::vector<std::string>& lines,
                               const DrupCheckResult& expected) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  for (const unsigned jobs : kJobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    std::istringstream in(text);
    const DrupCheckResult res = check_drup(f, in, jobs);
    EXPECT_EQ(res.ok, expected.ok);
    EXPECT_EQ(res.error, expected.error);
    EXPECT_EQ(res.clauses_checked, expected.clauses_checked);
    EXPECT_EQ(res.deletions, expected.deletions);
    std::istringstream again(text);
    EXPECT_EQ(check_drup(f, again, jobs).propagations, res.propagations);
  }
}

constexpr char kNotRup[] =
    "added clause is not RUP at its position in the proof";
constexpr char kNotInDatabase[] = "deletion of a clause not in the database";

TEST(DrupEarliestFailure, FixtureSpansManyBlocks) {
  const FaultFixture& fx = fault_fixture();
  std::size_t lemmas = 0;
  for (const std::string& line : fx.lines) lemmas += !is_deletion(line);
  EXPECT_GT(lemmas, 8 * kRupBlock);
  DrupCheckResult clean = failure_at(fx.lines, fx.lines.size(), "");
  clean.ok = true;
  expect_same_at_every_jobs(fx.formula, fx.lines, clean);
}

TEST(DrupEarliestFailure, EarlyBogusDeletionBeatsLateNonRupLemma) {
  const FaultFixture& fx = fault_fixture();
  std::vector<std::string> lines = fx.lines;
  insert_before_lemma(lines, 5 * kRupBlock + 7, fx.not_rup);
  const std::size_t fault = insert_before_lemma(lines, 10, fx.bogus_deletion);
  expect_same_at_every_jobs(fx.formula, lines,
                            failure_at(lines, fault, kNotInDatabase));
}

TEST(DrupEarliestFailure, EarlyNonRupLemmaBeatsLateBogusDeletion) {
  const FaultFixture& fx = fault_fixture();
  std::vector<std::string> lines = fx.lines;
  insert_before_lemma(lines, 5 * kRupBlock + 7, fx.bogus_deletion);
  const std::size_t fault = insert_before_lemma(lines, 10, fx.not_rup);
  expect_same_at_every_jobs(fx.formula, lines,
                            failure_at(lines, fault, kNotRup));
}

TEST(DrupEarliestFailure, EarlierOfTwoNonRupLemmasOnDifferentWorkers) {
  // The later fault opens block 3, so its worker reaches it first; the
  // earlier one closes block 2, owned by another worker at every count
  // above one.
  const FaultFixture& fx = fault_fixture();
  std::vector<std::string> lines = fx.lines;
  const std::size_t fault =
      insert_before_lemma(lines, 3 * kRupBlock - 1, fx.not_rup);
  insert_before_lemma(lines, 3 * kRupBlock, fx.not_rup);
  expect_same_at_every_jobs(fx.formula, lines,
                            failure_at(lines, fault, kNotRup));
}

TEST(DrupEarliestFailure, GarbageAfterTheEmptyClauseIsNotChecked) {
  const FaultFixture& fx = fault_fixture();
  std::vector<std::string> lines = fx.lines;
  DrupCheckResult clean = failure_at(lines, lines.size(), "");
  clean.ok = true;
  for (std::size_t i = 0; i < 3 * kRupBlock; ++i) {
    lines.push_back(i % 2 ? fx.not_rup : fx.bogus_deletion);
  }
  expect_same_at_every_jobs(fx.formula, lines, clean);
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
