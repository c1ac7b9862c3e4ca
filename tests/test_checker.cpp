// Tests for the depth-first and breadth-first checkers: acceptance of
// genuine solver traces, rejection of corrupted ones (every FaultKind),
// option coverage, and the Section 3.3 memory guarantee. Tautological
// originals are checked under every backend.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
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
#include "src/trace/ascii.hpp"
#include "src/trace/binary.hpp"
#include "src/trace/fault_injector.hpp"
#include "src/trace/memory.hpp"
#include "src/util/byte_source.hpp"
#include "src/util/temp_file.hpp"
#include "src/util/varint.hpp"
#include "tests/test_helpers.hpp"

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

// ------------------------------------------- every byte source alike

/// A seeded ladder-shaped proof, the shape of tools/gen_bigtrace: ladder w
/// has the unit (v_0) and the implications up (~v_i | v_i+1) and down
/// (~v_i+1 | v_i); each derivation folds a walker's unit with the run of
/// implications it crosses, and the join (~top_0 | ... | z) with every
/// top unit derives (z), the antecedent that refutes the final (~z).
SolvedUnsat ladder_proof() {
  constexpr std::uint64_t kLadders = 8, kRungs = 96, kSteps = 600;
  constexpr std::uint64_t kPerLadder = 1 + 2 * (kRungs - 1);
  const auto var = [](std::uint64_t w, std::uint64_t i) {
    return static_cast<Var>(w * kRungs + i);
  };
  const auto up = [](std::uint64_t w, std::uint64_t i) -> ClauseId {
    return w * kPerLadder + 1 + i;
  };
  const auto down = [](std::uint64_t w, std::uint64_t i) -> ClauseId {
    return w * kPerLadder + kRungs + i;
  };
  const Var z = var(kLadders, 0);
  SolvedUnsat out{Formula(z + 1), {}, {}};
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
  ClauseId next_id = out.formula.num_clauses();
  const auto step = [&](std::uint64_t l, bool climb, std::uint64_t rungs) {
    std::vector<ClauseId> sources{unit[l]};
    for (std::uint64_t r = 0; r < rungs; ++r) {
      sources.push_back(climb ? up(l, pos[l]) : down(l, pos[l] - 1));
      pos[l] = climb ? pos[l] + 1 : pos[l] - 1;
    }
    w.derivation(next_id, sources);
    unit[l] = next_id++;
  };
  std::uint64_t rng = 5;
  const auto next_random = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (std::uint64_t n = 0; n < kSteps; ++n) {
    const std::uint64_t l = next_random() % kLadders;
    const std::uint64_t rungs = 1 + next_random() % 12;
    bool climb = (next_random() & 1) != 0;
    if (pos[l] + rungs > kRungs - 1) climb = false;
    if (pos[l] < rungs) climb = true;
    step(l, climb, rungs);
  }
  for (std::uint64_t l = 0; l < kLadders; ++l) {
    while (pos[l] < kRungs - 1) {
      step(l, true, std::min<std::uint64_t>(12, kRungs - 1 - pos[l]));
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

/// The binary encoding of a trace, with the byte offset of each
/// derivation record.
struct BinaryImage {
  std::string bytes;
  std::vector<std::size_t> derivation_at;
};

BinaryImage binary_image(const trace::MemoryTrace& t) {
  // A writer that notes where each derivation record starts.
  struct Offsets final : trace::TraceWriter {
    Offsets(std::ostringstream& out, std::vector<std::size_t>& at)
        : binary(out), out(&out), at(&at) {}
    void begin(Var v, ClauseId n) override { binary.begin(v, n); }
    void derivation(ClauseId id, std::span<const ClauseId> s) override {
      at->push_back(static_cast<std::size_t>(out->tellp()));
      binary.derivation(id, s);
    }
    void final_conflict(ClauseId id) override { binary.final_conflict(id); }
    void level0(Var v, bool value, ClauseId a) override {
      binary.level0(v, value, a);
    }
    void assumption(Var v, bool value) override { binary.assumption(v, value); }
    void end() override { binary.end(); }
    trace::BinaryTraceWriter binary;
    std::ostringstream* out;
    std::vector<std::size_t>* at;
  };
  std::ostringstream out;
  BinaryImage image;
  Offsets w(out, image.derivation_at);
  test::write_trace(t, w);
  image.bytes = out.str();
  return image;
}

/// A reader with whatever it reads from.
struct OwnedReader {
  std::unique_ptr<std::istream> in;
  std::unique_ptr<trace::TraceReader> reader;
};

/// Every way to read one binary trace — a mapped file, a
/// MemoryByteSource, and a StreamByteSource refilled every 7 bytes, so
/// that varints and source lists straddle refills — plus, when `ascii` is
/// not empty, the ASCII text of the same proof.
std::vector<std::pair<std::string, std::function<OwnedReader()>>>
every_source(const std::string& binary, const util::TempFile& file,
             const std::string& ascii) {
  std::ofstream(file.path(), std::ios::binary) << binary;
  std::vector<std::pair<std::string, std::function<OwnedReader()>>> out;
  out.emplace_back("mapped", [&file] {
    return OwnedReader{nullptr,
                       trace::open_binary_trace_file(file.path().string())};
  });
  out.emplace_back("memory", [binary] {
    return OwnedReader{nullptr,
                       std::make_unique<trace::BinaryTraceReader>(
                           std::make_unique<util::MemoryByteSource>(
                               std::vector<std::uint8_t>(binary.begin(),
                                                         binary.end())))};
  });
  out.emplace_back("stream", [binary] {
    OwnedReader r{std::make_unique<std::istringstream>(binary), nullptr};
    r.reader = std::make_unique<trace::BinaryTraceReader>(
        std::make_unique<util::StreamByteSource>(*r.in, 7));
    return r;
  });
  if (!ascii.empty()) {
    out.emplace_back("ascii", [ascii] {
      OwnedReader r{std::make_unique<std::istringstream>(ascii), nullptr};
      r.reader = std::make_unique<trace::AsciiTraceReader>(*r.in);
      return r;
    });
  }
  return out;
}

/// The backends compared across byte sources: df at jobs 1 and 4,
/// hybrid, window at a budget small enough for several windows, and bf.
std::vector<std::pair<std::string,
                      std::function<CheckResult(const Formula&,
                                                trace::TraceReader&)>>>
source_backends() {
  return {
      {"df", [](const Formula& f, trace::TraceReader& r) {
         return check_depth_first(f, r);
       }},
      {"df jobs 4", [](const Formula& f, trace::TraceReader& r) {
         return check_depth_first(f, r, {.jobs = 4});
       }},
      {"hybrid", [](const Formula& f, trace::TraceReader& r) {
         return check_hybrid(f, r);
       }},
      {"window", [](const Formula& f, trace::TraceReader& r) {
         WindowOptions options;
         options.mem_limit_bytes = 64 << 10;
         options.collect_core = true;
         return check_window(f, r, options);
       }},
      {"bf", [](const Formula& f, trace::TraceReader& r) {
         return check_breadth_first(f, r);
       }},
  };
}

void expect_same_result(const CheckResult& a, const CheckResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.error, b.error) << what;
  EXPECT_EQ(a.core, b.core) << what;
  EXPECT_EQ(a.failed_assumption_clause, b.failed_assumption_clause) << what;
  EXPECT_EQ(a.stats.total_derivations, b.stats.total_derivations) << what;
  EXPECT_EQ(a.stats.clauses_built, b.stats.clauses_built) << what;
  EXPECT_EQ(a.stats.resolutions, b.stats.resolutions) << what;
  EXPECT_EQ(a.stats.peak_mem_bytes, b.stats.peak_mem_bytes) << what;
  EXPECT_EQ(a.stats.core_original_clauses, b.stats.core_original_clauses)
      << what;
  EXPECT_EQ(a.stats.arena_allocated_bytes, b.stats.arena_allocated_bytes)
      << what;
  EXPECT_EQ(a.stats.arena_recycled_bytes, b.stats.arena_recycled_bytes)
      << what;
  EXPECT_EQ(a.stats.arena_peak_bytes, b.stats.arena_peak_bytes) << what;
}

/// Checks `binary` (and `ascii`, if given) from every byte source on every
/// backend; each backend's results must agree across sources. Returns
/// the results of the first source, by backend.
std::vector<CheckResult> check_every_source(const Formula& f,
                                            const std::string& binary,
                                            const std::string& ascii,
                                            const std::string& what) {
  const util::TempFile file("every-source");
  const auto sources = every_source(binary, file, ascii);
  std::vector<CheckResult> first;
  for (const auto& [backend, check] : source_backends()) {
    std::vector<CheckResult> results;
    for (const auto& [source, open] : sources) {
      OwnedReader r = open();
      results.push_back(check(f, *r.reader));
      expect_same_result(results.front(), results.back(),
                         what + ", " + backend + ", " + source + " vs " +
                             sources.front().first);
    }
    first.push_back(results.front());
  }
  return first;
}

TEST(ByteSources, EverySourceLoadsToTheSameCheck) {
  std::vector<std::pair<std::string, SolvedUnsat>> proofs;
  proofs.emplace_back("ladder", ladder_proof());
  for (auto& row : encode::unsat_suite(encode::SuiteScale::Small)) {
    if (row.name == "php5" || row.name == "miter_mult3") {
      proofs.emplace_back(row.name, solve_unsat(std::move(row.formula)));
    }
  }
  ASSERT_EQ(proofs.size(), 3u);
  for (const auto& [name, proof] : proofs) {
    std::ostringstream ascii;
    trace::AsciiTraceWriter aw(ascii);
    test::write_trace(proof.trace, aw);
    const std::string binary = binary_image(proof.trace).bytes;
    for (const CheckResult& r :
         check_every_source(proof.formula, binary, ascii.str(), name)) {
      EXPECT_TRUE(r.ok) << name << ": " << r.error;
    }
  }
}

TEST(ByteSources, CorruptBinaryTraceGivesOneDiagnosticFromEverySource) {
  const SolvedUnsat proof = ladder_proof();
  const BinaryImage image = binary_image(proof.trace);
  const std::size_t r = image.derivation_at.size() / 2;
  const std::size_t at = image.derivation_at[r];
  const ClauseId id = proof.trace.derivations[r].id;
  // A derivation record of `id` with `k` sources whose deltas are
  // `deltas` (raw bytes), spliced in before record r.
  const auto splice = [&](std::uint64_t k,
                          const std::vector<std::uint8_t>& deltas) {
    std::vector<std::uint8_t> rec = {0x01};
    util::append_varint(rec, id);
    util::append_varint(rec, k);
    rec.insert(rec.end(), deltas.begin(), deltas.end());
    std::string out = image.bytes;
    out.insert(at, std::string(rec.begin(), rec.end()));
    return out;
  };
  const std::size_t list_at =
      at + 1 + util::varint_size(id) +
      util::varint_size(proof.trace.derivations[r].sources.size());
  struct Corrupt {
    const char* what;
    std::string bytes;
    const char* error;
  };
  const Corrupt corrupt[] = {
      // Two bytes into the list: inside its first (multi-byte) delta.
      {"truncated mid-source-list", image.bytes.substr(0, list_at + 2),
       "trace error: varint: truncated encoding at end of stream"},
      {"zero source delta", splice(2, {0x00, 0x01}),
       "trace error: binary trace: source delta out of range"},
      {"over-long varint",
       splice(2, {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                  0x01, 0x01}),
       "trace error: varint: over-long encoding"},
      // More sources than the trace has bytes: the list runs on into the
      // records after it, until a delta fails.
      {"source count beyond the trace", splice(std::uint64_t{1} << 40, {}),
       "trace error: binary trace: source delta out of range"},
  };
  for (const Corrupt& c : corrupt) {
    for (const CheckResult& r :
         check_every_source(proof.formula, c.bytes, "", c.what)) {
      EXPECT_FALSE(r.ok) << c.what;
      EXPECT_EQ(r.error, c.error) << c.what;
    }
  }
}

}  // namespace
}  // namespace satproof::checker
