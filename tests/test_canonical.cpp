// Canonical original clauses. Formula::canonicalize() sorts and dedups
// every clause in place; run_check applies it to the formula it parses, and
// every replay backend then reads the originals in place. A direct API
// caller's formula that is not canonical is read from a private
// canonicalized copy. Neither path may change what a check reports: each
// backend, called directly and through run_check, must give the same
// verdict, diagnostic, core, CheckStats and LRAT bytes on a formula as on
// a copy whose clauses are reversed with a literal repeated.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/cert/lrat_emitter.hpp"
#include "src/checker/breadth_first.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/drup.hpp"
#include "src/checker/hybrid.hpp"
#include "src/checker/window.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/suite.hpp"
#include "src/proof/rup.hpp"
#include "src/service/run_check.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/binary.hpp"
#include "src/trace/drup.hpp"
#include "src/trace/memory.hpp"
#include "src/util/temp_file.hpp"
#include "tests/test_helpers.hpp"

namespace satproof {
namespace {

std::vector<Lit> lits_of(std::initializer_list<int> dimacs) {
  std::vector<Lit> out;
  for (const int d : dimacs) out.push_back(Lit::from_dimacs(d));
  return out;
}

std::vector<Lit> clause_of(const Formula& f, ClauseId id) {
  const std::span<const Lit> c = f.clause(id);
  return {c.begin(), c.end()};
}

// ---- Formula::canonicalize -------------------------------------------------

TEST(FormulaCanonicalize, SortsAndDropsRepeatedLiterals) {
  Formula f;
  f.add_clause(lits_of({3, -1, 3, 2, -1}));
  f.canonicalize();
  EXPECT_EQ(clause_of(f, 0), lits_of({-1, 2, 3}));
}

TEST(FormulaCanonicalize, KeepsTautologies) {
  Formula f;
  f.add_clause(lits_of({-2, 1, 2, -2}));
  f.canonicalize();
  EXPECT_EQ(clause_of(f, 0), lits_of({1, 2, -2}));
  EXPECT_TRUE(checker::is_tautology(f.clause(0)));
}

TEST(FormulaCanonicalize, KeepsEmptyAndUnitClauses) {
  Formula f;
  f.add_clause(std::span<const Lit>());
  f.add_clause(lits_of({-4}));
  f.add_clause(lits_of({5, 5, 5}));
  f.add_clause(std::span<const Lit>());
  f.canonicalize();
  ASSERT_EQ(f.num_clauses(), 4u);
  EXPECT_TRUE(f.clause(0).empty());
  EXPECT_EQ(clause_of(f, 1), lits_of({-4}));
  EXPECT_EQ(clause_of(f, 2), lits_of({5}));
  EXPECT_TRUE(f.clause(3).empty());
  EXPECT_EQ(f.num_literals(), 2u);
}

TEST(FormulaCanonicalize, KeepsIdsAndCountsTheRemainingLiterals) {
  Formula f(10);
  const std::vector<std::vector<Lit>> raw = {
      lits_of({2, 1}), lits_of({1, 2, 3}), lits_of({-3, -3, 1, -3}),
      lits_of({7}), lits_of({4, -4, 4})};
  std::size_t kept = 0;
  for (const std::vector<Lit>& c : raw) {
    f.add_clause(c);
    kept += checker::canonicalize(c).size();
  }
  f.canonicalize();
  ASSERT_EQ(f.num_clauses(), raw.size());
  EXPECT_EQ(f.num_vars(), 10u);
  EXPECT_EQ(f.num_literals(), kept);
  for (ClauseId id = 0; id < raw.size(); ++id) {
    EXPECT_EQ(clause_of(f, id), checker::canonicalize(raw[id])) << id;
  }
}

TEST(FormulaCanonicalize, IsIdempotent) {
  Formula f = test::respelled(encode::pigeonhole(5));
  f.canonicalize();
  const Formula once = f;
  f.canonicalize();
  ASSERT_EQ(f.num_clauses(), once.num_clauses());
  EXPECT_EQ(f.num_literals(), once.num_literals());
  for (ClauseId id = 0; id < f.num_clauses(); ++id) {
    EXPECT_EQ(clause_of(f, id), clause_of(once, id)) << id;
  }
}

// ---- every backend, on a formula and its respelling -------------------------

struct Case {
  std::string name;
  Formula formula;
  trace::MemoryTrace trace;
  std::string drup;  ///< DRUP proof text; empty when there is none
  bool valid = true;
};

Case solved(std::string name, Formula f) {
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter trace_writer;
  s.set_trace_writer(&trace_writer);
  std::ostringstream drup_text;
  trace::DrupWriter drup_writer(drup_text);
  s.set_drup_writer(&drup_writer);
  EXPECT_EQ(s.solve(), solver::SolveResult::Unsatisfiable) << name;
  return {std::move(name), std::move(f), trace_writer.take(),
          std::move(drup_text).str()};
}

/// Over x1, x2: the four clauses of both variables, then the unsorted
/// tautology (x2 | ~x2 | x1). The trace derives (x2) and (~x2) and
/// resolves them into the empty clause, the final conflict; with
/// `fetch_tautology` the derivation of (~x2) names the tautology as its
/// second source instead.
Case tautology_case(bool fetch_tautology) {
  Case c;
  c.name = fetch_tautology ? "tautology fetched" : "tautology unused";
  c.valid = !fetch_tautology;
  c.formula = Formula(2);
  for (const auto& clause : {lits_of({1, 2}), lits_of({-1, 2}),
                             lits_of({1, -2}), lits_of({-1, -2}),
                             lits_of({2, -2, 1})}) {
    c.formula.add_clause(clause);
  }
  trace::MemoryTraceWriter w;
  w.begin(2, 5);
  w.derivation(5, std::vector<ClauseId>{0, 1});
  w.derivation(6, std::vector<ClauseId>{2, fetch_tautology ? 4u : 3u});
  w.derivation(7, std::vector<ClauseId>{5, 6});
  w.final_conflict(7);
  w.end();
  c.trace = w.take();
  return c;
}

std::vector<Case> cases() {
  std::vector<Case> out;
  test::LadderTrace lt = test::ladder_trace();
  out.push_back({"ladder", std::move(lt.formula), std::move(lt.trace), ""});
  for (auto& inst : encode::unsat_suite(encode::SuiteScale::Standard)) {
    if (inst.name == "miter_mult5") {
      out.push_back(solved(inst.name, std::move(inst.formula)));
    }
  }
  out.push_back(solved("php8", encode::pigeonhole(8)));
  out.push_back(tautology_case(true));
  out.push_back(tautology_case(false));
  return out;
}

void expect_same_stats(const checker::CheckStats& a,
                       const checker::CheckStats& b, const std::string& what) {
  EXPECT_EQ(a.total_derivations, b.total_derivations) << what;
  EXPECT_EQ(a.clauses_built, b.clauses_built) << what;
  EXPECT_EQ(a.resolutions, b.resolutions) << what;
  EXPECT_EQ(a.peak_mem_bytes, b.peak_mem_bytes) << what;
  EXPECT_EQ(a.core_original_clauses, b.core_original_clauses) << what;
  EXPECT_EQ(a.arena_allocated_bytes, b.arena_allocated_bytes) << what;
  EXPECT_EQ(a.arena_recycled_bytes, b.arena_recycled_bytes) << what;
  EXPECT_EQ(a.arena_peak_bytes, b.arena_peak_bytes) << what;
}

/// The window budget of the "window" rows: several windows on php8.
constexpr std::size_t kWindowBudget = 256 << 10;

/// Every backend's outcome, called directly, flattened for comparison.
struct Direct {
  std::vector<checker::CheckResult> results;  ///< df df4 bf hybrid window
  std::vector<std::string> certificates;      ///< df df4 hybrid window
  std::vector<proof::RupResult> rup;          ///< jobs 1, 4
  std::vector<checker::DrupCheckResult> drup;  ///< jobs 1, 4
};

Direct run_direct(const Formula& f, const Case& c) {
  Direct d;
  for (const unsigned jobs : {1u, 4u}) {
    std::ostringstream sink;
    cert::TextLratWriter writer(sink);
    cert::LratEmitter emitter(writer, f.num_clauses());
    trace::MemoryTraceReader r(c.trace);
    d.results.push_back(checker::check_depth_first(
        f, r, {.jobs = jobs, .observer = &emitter}));
    d.certificates.push_back(std::move(sink).str());
  }
  trace::MemoryTraceReader r_bf(c.trace);
  d.results.push_back(checker::check_breadth_first(f, r_bf));
  for (const std::size_t budget : {std::size_t{0}, kWindowBudget}) {
    std::ostringstream sink;
    cert::TextLratWriter writer(sink);
    cert::LratEmitter emitter(writer, f.num_clauses());
    trace::MemoryTraceReader r(c.trace);
    checker::WindowOptions options;
    options.mem_limit_bytes = budget;
    options.collect_core = true;
    options.observer = &emitter;
    d.results.push_back(checker::check_window(f, r, options));
    d.certificates.push_back(std::move(sink).str());
  }
  for (const unsigned jobs : {1u, 4u}) {
    trace::MemoryTraceReader r(c.trace);
    d.rup.push_back(proof::check_trace_rup(f, r, jobs));
    if (!c.drup.empty()) {
      std::istringstream in(c.drup);
      d.drup.push_back(checker::check_drup(f, in, jobs));
    }
  }
  return d;
}

void expect_same(const Direct& a, const Direct& b, const std::string& what) {
  const char* const names[] = {"df", "df jobs=4", "bf", "hybrid", "window"};
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t k = 0; k < a.results.size(); ++k) {
    const std::string row = what + " " + names[k];
    EXPECT_EQ(a.results[k].ok, b.results[k].ok) << row;
    EXPECT_EQ(a.results[k].error, b.results[k].error) << row;
    EXPECT_EQ(a.results[k].core, b.results[k].core) << row;
    EXPECT_EQ(a.results[k].failed_assumption_clause,
              b.results[k].failed_assumption_clause)
        << row;
    expect_same_stats(a.results[k].stats, b.results[k].stats, row);
  }
  EXPECT_EQ(a.certificates, b.certificates) << what;
  ASSERT_EQ(a.rup.size(), b.rup.size());
  for (std::size_t k = 0; k < a.rup.size(); ++k) {
    EXPECT_EQ(a.rup[k].ok, b.rup[k].ok) << what;
    EXPECT_EQ(a.rup[k].error, b.rup[k].error) << what;
    EXPECT_EQ(a.rup[k].clauses_checked, b.rup[k].clauses_checked) << what;
    EXPECT_EQ(a.rup[k].propagations, b.rup[k].propagations) << what;
  }
  ASSERT_EQ(a.drup.size(), b.drup.size());
  for (std::size_t k = 0; k < a.drup.size(); ++k) {
    EXPECT_EQ(a.drup[k].ok, b.drup[k].ok) << what;
    EXPECT_EQ(a.drup[k].error, b.drup[k].error) << what;
    EXPECT_EQ(a.drup[k].clauses_checked, b.drup[k].clauses_checked) << what;
    EXPECT_EQ(a.drup[k].deletions, b.drup[k].deletions) << what;
    EXPECT_EQ(a.drup[k].propagations, b.drup[k].propagations) << what;
  }
}

TEST(CanonicalOriginals, DirectCallsCheckARespelledFormulaAlike) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    Formula canonical = c.formula;
    canonical.canonicalize();
    const Direct as_generated = run_direct(c.formula, c);
    const Direct in_place = run_direct(canonical, c);
    const Direct from_copy = run_direct(test::respelled(c.formula), c);
    for (const checker::CheckResult& r : as_generated.results) {
      EXPECT_EQ(r.ok, c.valid) << r.error;
      if (!c.valid) {
        EXPECT_EQ(r.error, checker::tautological_original(4));
      }
    }
    expect_same(as_generated, in_place, "canonicalized");
    expect_same(as_generated, from_copy, "respelled");
  }
}

/// run_check of every backend on one CNF file, flattened to text.
std::vector<std::string> run_files(const std::string& cnf,
                                   const std::string& trace_path,
                                   const std::string& drup_path) {
  using service::Backend;
  std::vector<std::string> out;
  const struct {
    Backend backend;
    unsigned jobs;
    std::size_t mem_limit;
  } rows[] = {{Backend::kDf, 1, 0},     {Backend::kParallel, 4, 0},
              {Backend::kBf, 1, 0},     {Backend::kHybrid, 1, 0},
              {Backend::kWindow, 1, kWindowBudget},
              {Backend::kRup, 1, 0},    {Backend::kRup, 4, 0},
              {Backend::kDrup, 1, 0},   {Backend::kDrup, 4, 0}};
  for (const auto& row : rows) {
    if (row.backend == Backend::kDrup && drup_path.empty()) continue;
    const std::string& proof =
        row.backend == Backend::kDrup ? drup_path : trace_path;
    std::ostringstream sink;
    service::CertOptions cert;
    if (service::can_certify(row.backend)) cert.sink = &sink;
    const service::JobOutcome o = service::run_check(
        cnf, proof, row.backend, row.jobs, nullptr, cert, row.mem_limit);
    out.push_back(service::verdict_line(o) + "\n" +
                  service::check_stats_json(o) + "\n" +
                  service::outcome_json(o) + "\n" + std::to_string(o.ok) +
                  " " + std::to_string(o.cert_additions) + " " +
                  std::to_string(o.cert_deletions) + "\n" +
                  std::move(sink).str());
  }
  return out;
}

TEST(CanonicalOriginals, RunCheckChecksARespelledCnfAlike) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    util::TempFile cnf("canon-cnf");
    util::TempFile respelled_cnf("canon-respelled-cnf");
    util::TempFile trace_file("canon-trace");
    util::TempFile drup_file("canon-drup");
    dimacs::write_file(cnf.path(), c.formula);
    dimacs::write_file(respelled_cnf.path(), test::respelled(c.formula));
    {
      std::ofstream out(trace_file.path(), std::ios::binary);
      trace::BinaryTraceWriter w(out);
      test::write_trace(c.trace, w);
    }
    std::string drup_path;
    if (!c.drup.empty()) {
      std::ofstream(drup_file.path()) << c.drup;
      drup_path = drup_file.path();
    }
    const std::vector<std::string> as_generated =
        run_files(cnf.path(), trace_file.path(), drup_path);
    const std::vector<std::string> as_respelled =
        run_files(respelled_cnf.path(), trace_file.path(), drup_path);
    ASSERT_EQ(as_generated.size(), as_respelled.size());
    for (std::size_t k = 0; k < as_generated.size(); ++k) {
      EXPECT_EQ(as_generated[k], as_respelled[k]) << "row " << k;
    }
    // The resolution backends (the first five rows) reject a fetched
    // tautology; RUP re-derives each clause from the formula instead.
    for (std::size_t k = 0; k < 5; ++k) {
      EXPECT_EQ(as_generated[k].rfind(c.valid ? "VERIFIED" : "CHECK FAILED",
                                      0),
                0u)
          << as_generated[k];
    }
  }
}

}  // namespace
}  // namespace satproof
