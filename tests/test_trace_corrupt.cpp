// Adversarial trace corpus: every checker backend must reject truncated,
// reordered, wrong-antecedent, wrong-source and cyclic-dependency traces —
// no crash, no false VERIFIED. The happy path is covered elsewhere; this
// file is the systematic hostile sweep across all four trace-replaying
// backends (fault-injected solver traces) plus corrupted DRUP proofs.

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "src/checker/breadth_first.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/drup.hpp"
#include "src/checker/hybrid.hpp"
#include "src/checker/window.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/ascii.hpp"
#include "src/trace/binary.hpp"
#include "src/trace/drup.hpp"
#include "src/trace/fault_injector.hpp"
#include "src/trace/memory.hpp"
#include "src/util/varint.hpp"

namespace satproof::checker {
namespace {

struct BackendRun {
  const char* name;
  CheckResult result;
};

/// Runs all trace-replaying backends on one trace (the window backend at
/// two budgets: roomy, and small enough to force several windows — a
/// corrupt trace must be rejected on both paths).
std::vector<BackendRun> run_all(const Formula& f, const trace::MemoryTrace& t) {
  std::vector<BackendRun> runs;
  {
    trace::MemoryTraceReader r(t);
    runs.push_back({"depth-first", check_depth_first(f, r)});
  }
  {
    trace::MemoryTraceReader r(t);
    runs.push_back({"breadth-first", check_breadth_first(f, r)});
  }
  {
    trace::MemoryTraceReader r(t);
    runs.push_back({"hybrid", check_hybrid(f, r)});
  }
  {
    trace::MemoryTraceReader r(t);
    runs.push_back(
        {"depth-first jobs 3", check_depth_first(f, r, {.jobs = 3})});
  }
  {
    trace::MemoryTraceReader r(t);
    runs.push_back({"window", check_window(f, r)});
  }
  {
    trace::MemoryTraceReader r(t);
    WindowOptions opts;
    opts.mem_limit_bytes = 64 << 10;
    runs.push_back({"window-64k", check_window(f, r, opts)});
  }
  return runs;
}

/// The exact diagnostic of every run_all() backend on one corrupt trace:
/// `all`, except for the backends that `differs` names.
struct Diagnostic {
  std::string all;
  std::map<std::string, std::string> differs = {};
};

/// The depth-first checker's cycle diagnostic, at every job count.
Diagnostic acyclic(const std::string& all) {
  const std::string df = all + "; derivations must be acyclic";
  return {all, {{"depth-first", df}, {"depth-first jobs 3", df}}};
}

void expect_all_reject(const Formula& f, const trace::MemoryTrace& t,
                       const std::string& what, const Diagnostic& want) {
  for (const BackendRun& run : run_all(f, t)) {
    EXPECT_FALSE(run.result.ok)
        << run.name << " accepted a corrupt trace (" << what << ")";
    const auto it = want.differs.find(run.name);
    const std::string& expected =
        it == want.differs.end() ? want.all : it->second;
    EXPECT_EQ(run.result.error, expected) << run.name << " (" << what << ")";
  }
}

// Recorded from the fault-injected php5 traces of the solver as it stands:
// a change to the solver's search or trace output moves the injected
// faults and re-records these rows on purpose, as Solver.SolverOutputIsPinned
// does for the traces themselves.
// clang-format off
const std::map<trace::FaultKind, Diagnostic> kSweepDiagnostics = {
  {trace::FaultKind::DropSource, {"antecedent clause 213 of x26 is not a valid antecedent of x26: literal x9 was assigned after x26"}},
  {trace::FaultKind::DuplicateSource, {"derivation of clause 86: resolving with source 66 (step 5) failed: no clashing variable"}},
  {trace::FaultKind::ShuffleSources, {"derivation of clause 86: resolving with source 67 (step 1) failed: no clashing variable"}},
  {trace::FaultKind::WrongSource, {"derivation of clause 86: resolving with source 65 (step 4) failed: no clashing variable"}},
  {trace::FaultKind::DropDerivation, {"clause 86 is referenced but never derived in the trace",
      {{"breadth-first", "clause 86 is not available: it was never derived, or its use count was exhausted earlier than the trace implies"}}}},
  {trace::FaultKind::WrongFinal, {"final clause 51 is not conflicting: literal ~x8 is true and its variable is not an assumption"}},
  {trace::FaultKind::FlipLevel0Value, {"antecedent clause 169 of x17 is not a valid antecedent of x17: literal x15 is true, so the clause never became unit"}},
  {trace::FaultKind::WrongAntecedent, {"antecedent clause 11 of x15 is not a valid antecedent of x15: literal ~x10 is true, so the clause never became unit"}},
  {trace::FaultKind::DropLevel0, {"antecedent clause 169 of x17 is not a valid antecedent of x17: literal x15 is unassigned at level 0"}},
  {trace::FaultKind::TruncateTrace, {"trace truncated: missing end record"}},
};
// clang-format on

/// Fault-injection sweep over every backend, mirroring the DF/BF sweep in
/// test_checker.cpp but extended to the hybrid and parallel backends.
class CorruptSweep : public ::testing::TestWithParam<trace::FaultKind> {};

TEST_P(CorruptSweep, EveryBackendRejects) {
  const trace::FaultKind kind = GetParam();
  const Formula f = encode::pigeonhole(5);
  for (const std::uint64_t target : {5ull, 0ull, 50ull}) {
    solver::Solver s;
    s.add_formula(f);
    trace::MemoryTraceWriter inner;
    trace::FaultInjector injector(inner, kind, /*seed=*/7, target);
    s.set_trace_writer(&injector);
    ASSERT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
    if (!injector.fired()) continue;
    expect_all_reject(f, inner.take(), trace::to_string(kind),
                      kSweepDiagnostics.at(kind));
    return;
  }
  FAIL() << "fault " << trace::to_string(kind)
         << " never fired on any target index";
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, CorruptSweep,
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

// ------------------------------------------------- hand-built pathologies

/// A tiny UNSAT base: x0 and ~x0.
Formula contradiction() {
  Formula f(1);
  f.add_clause({Lit::pos(0)});
  f.add_clause({Lit::neg(0)});
  return f;
}

TEST(CorruptTrace, SelfReferentialDerivationRejected) {
  const Formula f = contradiction();
  trace::MemoryTraceWriter w;
  w.begin(1, 2);
  const ClauseId src[] = {0, 2};  // clause 2 lists itself as a source
  w.derivation(2, src);
  w.final_conflict(2);
  w.level0(0, true, 0);
  w.end();
  expect_all_reject(
      f, w.take(), "self-referential derivation",
      acyclic("derivation 2 references source 2 that does not precede it"));
}

TEST(CorruptTrace, ForwardCycleBetweenDerivationsRejected) {
  const Formula f = contradiction();
  trace::MemoryTraceWriter w;
  w.begin(1, 2);
  const ClauseId src2[] = {0, 3};  // 2 depends on 3...
  w.derivation(2, src2);
  const ClauseId src3[] = {1, 2};  // ...and 3 depends on 2
  w.derivation(3, src3);
  w.final_conflict(3);
  w.level0(0, true, 0);
  w.end();
  expect_all_reject(
      f, w.take(), "derivation cycle",
      acyclic("derivation 2 references source 3 that does not precede it"));
}

TEST(CorruptTrace, CyclicLevel0AntecedentChainRejected) {
  // Two variables each justified by the clause that needs the other first:
  // the antecedent ordering check must refuse the circular trail.
  Formula f(2);
  f.add_clause({Lit::pos(0), Lit::pos(1)});   // 0
  f.add_clause({Lit::pos(0), Lit::neg(1)});   // 1
  f.add_clause({Lit::neg(0), Lit::pos(1)});   // 2
  f.add_clause({Lit::neg(0), Lit::neg(1)});   // 3
  trace::MemoryTraceWriter w;
  w.begin(2, 4);
  w.final_conflict(3);
  w.level0(0, true, 0);  // x0 "implied" by clause 0, which needs x1 first
  w.level0(1, true, 2);  // x1 "implied" by clause 2, which needs x0 first
  w.end();
  const trace::MemoryTrace t = w.take();
  trace::MemoryTraceReader r1(t);
  const CheckResult df = check_depth_first(f, r1);
  EXPECT_FALSE(df.ok);
  expect_all_reject(f, t, "cyclic level-0 antecedents",
                    {"antecedent clause 0 of x0 is not a valid antecedent of "
                     "x0: literal x1 is true, so the clause never became "
                     "unit"});
}

TEST(CorruptTrace, MissingEndRecordRejected) {
  // A MemoryTrace that never saw end(): the canonical truncation.
  const Formula f = contradiction();
  trace::MemoryTraceWriter w;
  w.begin(1, 2);
  w.final_conflict(0);
  w.level0(0, false, 1);
  // no end()
  expect_all_reject(f, w.take(), "missing end record",
                    {"trace truncated: missing end record"});
}

TEST(CorruptTrace, ReorderedLevel0TrailRejected) {
  // Produce a genuine trace, then reverse the level-0 trail: antecedent
  // validation depends on chronological order, so checkers must notice.
  const Formula f = encode::pigeonhole(4);
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  ASSERT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
  trace::MemoryTrace t = w.take();
  ASSERT_GE(t.level0.size(), 2u);
  std::reverse(t.level0.begin(), t.level0.end());
  expect_all_reject(f, t, "reversed level-0 trail",
                    {"antecedent clause 1 of x7 is not a valid antecedent of "
                     "x7: literal x4 was assigned after x7"});
}

// ------------------------------------- variables beyond dimacs::kMaxVars

/// Reads every record of `trace`, returning the reader's diagnostic, or ""
/// when the whole trace reads.
template <typename Reader>
std::string read_error(const std::string& trace) {
  std::istringstream in(trace);
  try {
    Reader reader(in);
    trace::Record record;
    while (reader.next(record)) {
    }
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// 2^32 + 1, which a 32-bit cast turns into 1.
const std::string kAliasOf1 = std::to_string((std::uint64_t{1} << 32) + 1);

TEST(TraceVariableRange, AsciiHeaderCountAboveLimitRejected) {
  EXPECT_EQ(read_error<trace::AsciiTraceReader>("p trace " + kAliasOf1 +
                                                " 2\nf 0\ne\n"),
            "ascii trace: line 1: header variable count " + kAliasOf1 +
                " exceeds 268435456");
  // The limit itself is a valid count.
  EXPECT_EQ(read_error<trace::AsciiTraceReader>("p trace 268435456 2\ne\n"),
            "");
}

TEST(TraceVariableRange, AsciiRecordVariablesAboveLimitRejected) {
  const std::string header = "c a comment\np trace 1 2\nf 0\n";
  EXPECT_EQ(read_error<trace::AsciiTraceReader>(header + "l -" + kAliasOf1 +
                                                " 1\ne\n"),
            "ascii trace: line 4: level-0 record variable " + kAliasOf1 +
                " exceeds 268435456");
  EXPECT_EQ(read_error<trace::AsciiTraceReader>(header + "u " + kAliasOf1 +
                                                "\ne\n"),
            "ascii trace: line 4: assumption record variable " + kAliasOf1 +
                " exceeds 268435456");
  EXPECT_EQ(read_error<trace::AsciiTraceReader>(
                header + "l 268435456 1\nu -268435456\ne\n"),
            "");
  // Diagnostics of malformed records are unchanged.
  EXPECT_EQ(read_error<trace::AsciiTraceReader>(header + "l 0 1\ne\n"),
            "ascii trace: line 4: malformed level-0 record");
}

/// A binary trace: the header, then `body` (records without the end tag).
std::string binary_trace(std::uint64_t num_vars,
                         const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> bytes = {'S', 'P', 'R', 'F', 0x01};
  util::append_varint(bytes, num_vars);
  util::append_varint(bytes, 2);
  bytes.insert(bytes.end(), body.begin(), body.end());
  bytes.push_back(0x04);  // end
  return {bytes.begin(), bytes.end()};
}

/// A level-0 (tag 0x03, antecedent 1) or assumption (tag 0x05) record
/// setting 0-based variable `var` true.
std::vector<std::uint8_t> binary_record(std::uint8_t tag, std::uint64_t var) {
  std::vector<std::uint8_t> out = {tag};
  util::append_varint(out, var << 1 | 1);
  if (tag == 0x03) util::append_varint(out, 1);
  return out;
}

TEST(TraceVariableRange, BinaryHeaderCountAboveLimitRejected) {
  EXPECT_EQ(read_error<trace::BinaryTraceReader>(
                binary_trace((std::uint64_t{1} << 32) + 1, {})),
            "binary trace: header num_vars " + kAliasOf1 +
                " exceeds 268435456");
  EXPECT_EQ(
      read_error<trace::BinaryTraceReader>(binary_trace(1u << 28, {})), "");
}

TEST(TraceVariableRange, BinaryRecordVariablesAboveLimitRejected) {
  const std::uint64_t alias = std::uint64_t{1} << 32;  // 0-based: 2^32 + 1
  EXPECT_EQ(read_error<trace::BinaryTraceReader>(
                binary_trace(1, binary_record(0x03, alias))),
            "binary trace: level-0 record variable " + kAliasOf1 +
                " exceeds 268435456");
  EXPECT_EQ(read_error<trace::BinaryTraceReader>(
                binary_trace(1, binary_record(0x05, alias))),
            "binary trace: assumption record variable " + kAliasOf1 +
                " exceeds 268435456");
  const std::uint64_t last = (std::uint64_t{1} << 28) - 1;
  std::vector<std::uint8_t> body = binary_record(0x03, last);
  const std::vector<std::uint8_t> u = binary_record(0x05, last);
  body.insert(body.end(), u.begin(), u.end());
  EXPECT_EQ(read_error<trace::BinaryTraceReader>(binary_trace(1, body)), "");
}

// ----------------------------------------------------- DRUP proof corpus

struct DrupRun {
  Formula formula;
  std::string proof;
};

DrupRun solve_with_drup(Formula f) {
  solver::Solver s;
  s.add_formula(f);
  std::ostringstream proof;
  trace::DrupWriter w(proof);
  s.set_drup_writer(&w);
  EXPECT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
  return {std::move(f), proof.str()};
}

TEST(CorruptDrup, TruncatedProofRejected) {
  const DrupRun run = solve_with_drup(encode::pigeonhole(5));
  // Cut the proof before the final empty clause.
  const std::size_t cut = run.proof.rfind("0\n");
  ASSERT_NE(cut, std::string::npos);
  std::istringstream in(run.proof.substr(0, cut));
  const DrupCheckResult res = check_drup(run.formula, in);
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
}

TEST(CorruptDrup, NonRupClauseRejected) {
  const DrupRun run = solve_with_drup(encode::pigeonhole(4));
  // Prepend a clause no unit propagation can justify: a free unit clause
  // over a fresh variable cannot be RUP with respect to the formula.
  const std::string vars = std::to_string(run.formula.num_vars() + 1);
  std::istringstream in(vars + " 0\n" + run.proof);
  const DrupCheckResult res = check_drup(run.formula, in);
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
}

}  // namespace
}  // namespace satproof::checker
