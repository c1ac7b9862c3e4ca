// Layout-equivalence regression for the replay microarchitecture: how the
// depth-first checker schedules its clauses (rounds planned by an ID sweep,
// built in ID order or dealt to lanes) and the arena's binary clause tier
// are pure layout choices, so every observable output must match the lazy
// recursive build of Fig. 3 kept below as the reference — verdict, error
// text, the set of clauses built, unsat core, failed-assumption clause, and
// every stats counter (including the arena traffic counters, which account
// logical block bytes precisely so layout cannot leak into them).
//
// The spelling of the formula's clauses is layout too: every backend reads
// the original clauses through CanonicalOriginals, in place when they are
// all canonical and from a canonicalized copy otherwise, so a formula with
// each clause reversed and a literal repeated must check exactly like the
// formula as generated, certificates included.
//
// Runs the same 500 seeded instances as test_differential (same seed
// formula: 1000 + shard * 50 + i), split into 10 shards, and the small
// suite.

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sys/resource.h>
#endif

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/cert/lrat_emitter.hpp"
#include "src/checker/breadth_first.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/drup.hpp"
#include "src/checker/hybrid.hpp"
#include "src/checker/window.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/encode/suite.hpp"
#include "src/proof/rup.hpp"
#include "src/service/run_check.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/binary.hpp"
#include "src/trace/drup.hpp"
#include "src/trace/memory.hpp"
#include "src/util/arena.hpp"
#include "src/util/temp_file.hpp"
#include "tests/test_helpers.hpp"

namespace satproof {
namespace {

constexpr int kInstancesPerShard = 50;  // x 10 shards = 500 instances

// ---- reference: the lazy depth-first build --------------------------------
//
// The depth-first checker used to build each clause recursively on its
// first fetch (recursive_build() of Fig. 3), into a ClauseStore. It is kept
// here as the oracle for the checker that plans rounds: on every accepted
// trace the two build the same clauses and report the same verdict, core
// and counters.
namespace reference {

struct Outcome {
  checker::CheckResult result;
  std::vector<ClauseId> built;  ///< ascending
};

class LazyChecker {
 public:
  LazyChecker(const Formula& f, trace::TraceReader& reader,
              util::ClauseArena* arena)
      : formula_(&f),
        canonical_(f),
        reader_(&reader),
        num_original_(reader.num_original()),
        level0_(reader.num_vars()),
        derivations_(num_original_),
        store_(*arena) {}

  Outcome run() {
    Outcome out;
    checker::CheckResult& result = out.result;
    try {
      checker::check_header(*formula_, reader_->num_vars(), num_original_);
      const ClauseId final_id = checker::load_full_trace(
          *reader_, derivations_, level0_, mem_, stats_);
      chain_.reserve_vars(reader_->num_vars());
      const checker::ClauseFetcher fetch = [this](ClauseId id) {
        return build(id);
      };
      checker::SortedClause remaining =
          checker::derive_final_clause(final_id, fetch, level0_, stats_);
      checker::validate_assumption_clause(remaining, level0_);
      result.failed_assumption_clause = std::move(remaining);
      result.ok = true;
    } catch (const checker::CheckFailure& e) {
      result.error = e.what();
    } catch (const std::runtime_error& e) {
      result.error = std::string("trace error: ") + e.what();
    }
    const util::ClauseArena& arena = store_.arena();
    stats_.peak_mem_bytes = mem_.peak_bytes() + arena.peak_bytes();
    stats_.arena_allocated_bytes = arena.allocated_bytes();
    stats_.arena_recycled_bytes = arena.recycled_bytes();
    stats_.arena_peak_bytes = arena.peak_bytes();
    for (ClauseId id = 0; id < derivations_.id_limit(); ++id) {
      if (!store_.contains(id)) continue;
      out.built.push_back(id);
      if (id >= num_original_) continue;
      ++stats_.core_original_clauses;
      if (result.ok) result.core.push_back(id);
    }
    result.stats = stats_;
    return out;
  }

 private:
  /// The clause `id`, building it and, first, its unbuilt sources, with an
  /// explicit stack.
  checker::ClauseView build(ClauseId id) {
    if (store_.contains(id)) return store_.view(id);
    if (id < num_original_) return build_original(id);
    struct Frame {
      ClauseId id;
      std::span<const std::uint32_t> sources;
      std::size_t scan = 0;
    };
    std::vector<Frame> stack;
    stack.push_back({id, derivations_.sources_of(id)});
    while (!stack.empty()) {
      Frame& f = stack.back();
      bool descended = false;
      while (f.scan < f.sources.size()) {
        const ClauseId s = f.sources[f.scan];
        if (store_.contains(s)) {
          ++f.scan;
          continue;
        }
        if (s < num_original_) {
          build_original(s);
          ++f.scan;
          continue;
        }
        stack.push_back({s, derivations_.sources_of(s)});
        descended = true;
        break;
      }
      if (descended) continue;
      fold(f.id, f.sources);
      stack.pop_back();
    }
    return store_.view(id);
  }

  checker::ClauseView build_original(ClauseId id) {
    store_.put(id, canonical_.source(id));
    return store_.view(id);
  }

  void fold(ClauseId id, std::span<const std::uint32_t> sources) {
    chain_.start(store_.view(sources[0]));
    for (std::size_t i = 1; i < sources.size(); ++i) {
      const checker::ResolveResult r = chain_.step(store_.view(sources[i]));
      ++stats_.resolutions;
      if (r.status != checker::ResolveStatus::Ok) {
        throw checker::CheckFailure(
            checker::derivation_failure(id, sources[i], i, r.status));
      }
    }
    store_.put(id, chain_.lits());
    ++stats_.clauses_built;
  }

  const Formula* formula_;
  const checker::CanonicalOriginals canonical_;
  trace::TraceReader* reader_;
  ClauseId num_original_;
  checker::Level0Table level0_;
  checker::DerivationIndex derivations_;
  checker::ClauseStore store_;
  checker::ChainResolver chain_;
  util::MemTracker mem_;
  checker::CheckStats stats_;
};

Outcome check(const Formula& f, const trace::MemoryTrace& t,
              bool binary_tier) {
  trace::MemoryTraceReader reader(t);
  util::ClauseArena arena;
  arena.set_binary_tier(binary_tier);
  return LazyChecker(f, reader, &arena).run();
}

}  // namespace reference

/// Records the IDs of the clauses a check announces as built.
class BuiltSet final : public checker::CertObserver {
 public:
  void on_original(ClauseId id, std::span<const Lit>) override {
    ids.push_back(id);
  }
  void on_derived(ClauseId id, std::span<const Lit>,
                  std::span<const std::uint32_t>) override {
    ids.push_back(id);
  }
  void on_released(ClauseId) override {}
  void on_final(ClauseId, std::span<const ClauseId>,
                std::span<const Lit>) override {}

  std::vector<ClauseId> ids;
};

reference::Outcome run_df(const Formula& f, const trace::MemoryTrace& t,
                          unsigned jobs, bool binary_tier) {
  trace::MemoryTraceReader reader(t);
  checker::DepthFirstOptions options;
  options.jobs = jobs;
  // The binary tier is an arena property; a workspace with the tier
  // toggled on every lane passes through the CheckMemory seam every check
  // borrows its arenas from.
  checker::CheckMemory memory;
  memory.set_binary_tier(binary_tier);
  options.memory = &memory;
  BuiltSet built;
  options.observer = &built;
  reference::Outcome out{checker::check_depth_first(f, reader, options), {}};
  out.built = std::move(built.ids);
  std::sort(out.built.begin(), out.built.end());
  return out;
}

checker::CheckResult run_window(const Formula& f, const trace::MemoryTrace& t,
                                bool binary_tier) {
  trace::MemoryTraceReader reader(t);
  checker::WindowOptions options;
  options.mem_limit_bytes = 1 << 20;
  options.collect_core = true;
  checker::CheckMemory memory;
  memory.set_binary_tier(binary_tier);
  options.memory = &memory;
  return checker::check_window(f, reader, options);
}

void expect_identical(const checker::CheckResult& a,
                      const checker::CheckResult& b, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.core, b.core);
  EXPECT_EQ(a.failed_assumption_clause, b.failed_assumption_clause);
  EXPECT_EQ(a.stats.total_derivations, b.stats.total_derivations);
  EXPECT_EQ(a.stats.clauses_built, b.stats.clauses_built);
  EXPECT_EQ(a.stats.resolutions, b.stats.resolutions);
  EXPECT_EQ(a.stats.peak_mem_bytes, b.stats.peak_mem_bytes);
  EXPECT_EQ(a.stats.core_original_clauses, b.stats.core_original_clauses);
  EXPECT_EQ(a.stats.arena_allocated_bytes, b.stats.arena_allocated_bytes);
  EXPECT_EQ(a.stats.arena_recycled_bytes, b.stats.arena_recycled_bytes);
  EXPECT_EQ(a.stats.arena_peak_bytes, b.stats.arena_peak_bytes);
}

/// The depth-first checker at jobs 1/2/3/4/8, with the binary tier on and
/// off, against the lazy reference: the same clauses built, and the same
/// verdict, diagnostic, core and counters. Returns the reference result.
checker::CheckResult expect_matches_reference(const Formula& f,
                                              const trace::MemoryTrace& t) {
  const reference::Outcome want = reference::check(f, t, false);
  for (const bool binary_tier : {false, true}) {
    for (const unsigned jobs : {1u, 2u, 3u, 4u, 8u}) {
      const std::string what = "jobs " + std::to_string(jobs) +
                               (binary_tier ? ", binary tier" : "");
      const reference::Outcome got = run_df(f, t, jobs, binary_tier);
      expect_identical(want.result, got.result, what);
      EXPECT_EQ(want.built, got.built) << what;
    }
  }
  return want.result;
}

class LayoutEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(LayoutEquivalence, StreamingAndBinaryTierAreByteIdentical) {
  const int shard = GetParam();
  int unsat_seen = 0;
  for (int i = 0; i < kInstancesPerShard; ++i) {
    const std::uint64_t seed =
        1000 + static_cast<std::uint64_t>(shard) * kInstancesPerShard + i;
    const unsigned n = 12 + static_cast<unsigned>(seed % 14);
    const double ratio = 3.8 + 0.15 * static_cast<double>(i % 9);
    const unsigned m = static_cast<unsigned>(n * ratio);
    const Formula f = encode::random_ksat(n, m, 3, seed);

    solver::Solver s;
    s.add_formula(f);
    trace::MemoryTraceWriter trace_writer;
    s.set_trace_writer(&trace_writer);
    const solver::SolveResult solved = s.solve();
    const trace::MemoryTrace t = trace_writer.take();
    SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
                 " m=" + std::to_string(m));
    if (solved == solver::SolveResult::Unsatisfiable) ++unsat_seen;

    // SAT-run traces ride along too: the rejection diagnostic must not
    // depend on layout either.
    const checker::CheckResult lazy = expect_matches_reference(f, t);

    // The window backend is subject to the same discipline: the arena's
    // binary tier is invisible in every observable output, and on valid
    // traces its verdict, core and replay counters match depth-first.
    const checker::CheckResult window = run_window(f, t, false);
    expect_identical(window, run_window(f, t, true),
                     "window: binary tier vs headered-only");
    EXPECT_EQ(window.ok, lazy.ok);
    if (lazy.ok) {
      EXPECT_EQ(window.core, lazy.core);
      EXPECT_EQ(window.stats.resolutions, lazy.stats.resolutions);
      EXPECT_EQ(window.stats.clauses_built, lazy.stats.clauses_built);
    }
  }
  EXPECT_GE(unsat_seen, kInstancesPerShard / 5);
}

INSTANTIATE_TEST_SUITE_P(Shards, LayoutEquivalence, ::testing::Range(0, 10));

TEST(LayoutReference, SmallSuiteMatchesTheLazyBuild) {
  for (const auto& inst : encode::unsat_suite(encode::SuiteScale::Small)) {
    SCOPED_TRACE(inst.name);
    solver::Solver s;
    s.add_formula(inst.formula);
    trace::MemoryTraceWriter trace_writer;
    s.set_trace_writer(&trace_writer);
    ASSERT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
    (void)expect_matches_reference(inst.formula, trace_writer.take());
  }
}

/// Every backend's outcome on one formula and trace: the resolution
/// backends' CheckResults, the LRAT text of the emitting ones (df, hybrid,
/// window), and the unit-propagation checkers' counts.
struct AllBackends {
  std::vector<checker::CheckResult> results;  ///< df bf hybrid window df-N
  std::vector<std::string> certificates;      ///< df hybrid window
  std::vector<checker::DrupCheckResult> drup;
  std::vector<proof::RupResult> rup;
};

checker::CheckResult certify(const Formula& f, const trace::MemoryTrace& t,
                             std::size_t window_limit, bool depth_first,
                             std::vector<std::string>& certificates) {
  std::ostringstream sink;
  cert::TextLratWriter writer(sink);
  cert::LratEmitter emitter(writer, f.num_clauses());
  trace::MemoryTraceReader reader(t);
  checker::CheckResult result;
  if (depth_first) {
    checker::DepthFirstOptions options;
    options.observer = &emitter;
    result = checker::check_depth_first(f, reader, options);
  } else {
    checker::WindowOptions options;
    options.mem_limit_bytes = window_limit;
    options.collect_core = true;
    options.observer = &emitter;
    result = checker::check_window(f, reader, options);
  }
  certificates.push_back(std::move(sink).str());
  return result;
}

AllBackends run_all(const Formula& f, const trace::MemoryTrace& t,
                    const std::string& drup_text, unsigned parallel_jobs) {
  AllBackends all;
  all.results.push_back(certify(f, t, 0, true, all.certificates));
  trace::MemoryTraceReader r_bf(t);
  all.results.push_back(checker::check_breadth_first(f, r_bf));
  trace::MemoryTraceReader r_hy(t);
  all.results.push_back(checker::check_hybrid(f, r_hy));
  all.results.push_back(certify(f, t, 0, false, all.certificates));
  all.results.push_back(certify(f, t, 1 << 20, false, all.certificates));
  trace::MemoryTraceReader r_par(t);
  all.results.push_back(
      checker::check_depth_first(f, r_par, {.jobs = parallel_jobs}));
  for (const unsigned jobs : {1u, 4u}) {
    std::istringstream drup_in(drup_text);
    all.drup.push_back(checker::check_drup(f, drup_in, jobs));
    trace::MemoryTraceReader r_rup(t);
    all.rup.push_back(proof::check_trace_rup(f, r_rup, jobs));
  }
  return all;
}

class RespelledFormula : public ::testing::TestWithParam<int> {};

TEST_P(RespelledFormula, EveryBackendChecksItLikeTheOriginal) {
  const int shard = GetParam();
  for (int i = 0; i < kInstancesPerShard; ++i) {
    const std::uint64_t seed =
        1000 + static_cast<std::uint64_t>(shard) * kInstancesPerShard + i;
    const unsigned n = 12 + static_cast<unsigned>(seed % 14);
    const double ratio = 3.8 + 0.15 * static_cast<double>(i % 9);
    const unsigned m = static_cast<unsigned>(n * ratio);
    const Formula f = encode::random_ksat(n, m, 3, seed);

    solver::Solver s;
    s.add_formula(f);
    trace::MemoryTraceWriter trace_writer;
    s.set_trace_writer(&trace_writer);
    std::ostringstream drup_text;
    trace::DrupWriter drup_writer(drup_text);
    s.set_drup_writer(&drup_writer);
    (void)s.solve();
    const trace::MemoryTrace t = trace_writer.take();
    SCOPED_TRACE("seed=" + std::to_string(seed));

    // SAT runs' traces ride along: rejections must match too.
    const unsigned jobs = 1 + static_cast<unsigned>(i % 4);
    const AllBackends as_generated = run_all(f, t, drup_text.str(), jobs);
    const AllBackends as_respelled =
        run_all(test::respelled(f), t, drup_text.str(), jobs);
    const char* const names[] = {"df", "bf", "hybrid", "window 0",
                                 "window 1MiB", "df on lanes"};
    for (std::size_t k = 0; k < as_generated.results.size(); ++k) {
      expect_identical(as_generated.results[k], as_respelled.results[k],
                       names[k]);
    }
    EXPECT_EQ(as_generated.certificates, as_respelled.certificates);
    for (std::size_t k = 0; k < as_generated.drup.size(); ++k) {
      const checker::DrupCheckResult& a = as_generated.drup[k];
      const checker::DrupCheckResult& b = as_respelled.drup[k];
      EXPECT_EQ(a.ok, b.ok);
      EXPECT_EQ(a.error, b.error);
      EXPECT_EQ(a.clauses_checked, b.clauses_checked);
      EXPECT_EQ(a.deletions, b.deletions);
      EXPECT_EQ(a.propagations, b.propagations);
      const proof::RupResult& c = as_generated.rup[k];
      const proof::RupResult& d = as_respelled.rup[k];
      EXPECT_EQ(c.ok, d.ok);
      EXPECT_EQ(c.error, d.error);
      EXPECT_EQ(c.clauses_checked, d.clauses_checked);
      EXPECT_EQ(c.propagations, d.propagations);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, RespelledFormula, ::testing::Range(0, 10));

// ---- memory between checks --------------------------------------------------
//
// Every replay check borrows its thread's CheckMemory, so the buffers one
// check leaves behind are the next check's starting point. That must not
// show: each check of a mixed sequence on one thread, one that fails
// mid-load included, must equal the same check on a fresh thread.

/// What one check shows: the resolution backends' result, RUP's counts,
/// and LRAT text where the row emits it.
struct Observed {
  checker::CheckResult result;
  proof::RupResult rup;
  std::string lrat;
};

enum class Row { kDf, kDfOnLanes, kBf, kHybrid, kWindow, kRup, kDfLrat };
constexpr Row kRows[] = {Row::kDf,     Row::kDfOnLanes, Row::kBf,
                         Row::kHybrid, Row::kWindow,    Row::kRup,
                         Row::kDfLrat};
const char* const kRowNames[] = {"df",     "df jobs=4", "bf",      "hybrid",
                                 "window", "rup",       "df lrat"};

Observed check_row(Row row, const Formula& f, const trace::MemoryTrace& t) {
  Observed out;
  trace::MemoryTraceReader reader(t);
  switch (row) {
    case Row::kDf:
    case Row::kDfOnLanes:
      out.result = checker::check_depth_first(
          f, reader, {.jobs = row == Row::kDf ? 1u : 4u});
      break;
    case Row::kBf:
      out.result = checker::check_breadth_first(f, reader);
      break;
    case Row::kHybrid:
      out.result = checker::check_hybrid(f, reader);
      break;
    case Row::kWindow: {
      checker::WindowOptions options;
      options.mem_limit_bytes = 64 << 10;
      options.collect_core = true;
      out.result = checker::check_window(f, reader, options);
      break;
    }
    case Row::kRup:
      out.rup = proof::check_trace_rup(f, reader, 1);
      break;
    case Row::kDfLrat: {
      std::ostringstream sink;
      cert::TextLratWriter writer(sink);
      cert::LratEmitter emitter(writer, f.num_clauses());
      out.result =
          checker::check_depth_first(f, reader, {.observer = &emitter});
      out.lrat = std::move(sink).str();
      break;
    }
  }
  return out;
}

Observed check_on_fresh_thread(Row row, const Formula& f,
                               const trace::MemoryTrace& t) {
  Observed out;
  std::thread([&] { out = check_row(row, f, t); }).join();
  return out;
}

void expect_same_observed(const Observed& a, const Observed& b,
                          const std::string& what) {
  expect_identical(a.result, b.result, what);
  EXPECT_EQ(a.rup.ok, b.rup.ok) << what;
  EXPECT_EQ(a.rup.error, b.rup.error) << what;
  EXPECT_EQ(a.rup.clauses_checked, b.rup.clauses_checked) << what;
  EXPECT_EQ(a.rup.propagations, b.rup.propagations) << what;
  EXPECT_EQ(a.lrat, b.lrat) << what;
}

struct NamedTrace {
  std::string name;
  Formula formula;
  trace::MemoryTrace trace;
};

/// Over x1, x2: the four clauses of both variables and the tautology
/// (x1 | x2 | ~x2) as clause 4. The trace derives clause 6 = (x2) from
/// clauses 0 and 1 and clause 7 from clauses 2 and `partner`, and
/// resolves `first_source` with clause 7 into the final conflict 8. With
/// `partner` 3 and `first_source` 6 it is a valid refutation.
NamedTrace two_variable_trace(std::string name, ClauseId partner,
                              ClauseId first_source) {
  NamedTrace c{std::move(name), Formula(2), {}};
  const auto lit = [](int v) {
    return v > 0 ? Lit::pos(static_cast<Var>(v - 1))
                 : Lit::neg(static_cast<Var>(-v - 1));
  };
  for (const std::vector<int>& clause : std::vector<std::vector<int>>{
           {1, 2}, {-1, 2}, {1, -2}, {-1, -2}, {1, 2, -2}}) {
    std::vector<Lit> lits;
    for (const int v : clause) lits.push_back(lit(v));
    c.formula.add_clause(lits);
  }
  trace::MemoryTraceWriter w;
  w.begin(2, 5);
  w.derivation(6, std::vector<ClauseId>{0, 1});
  w.derivation(7, std::vector<ClauseId>{2, partner});
  w.derivation(8, std::vector<ClauseId>{first_source, 7});
  w.final_conflict(8);
  w.end();
  c.trace = w.take();
  return c;
}

/// The sequence the reuse tests run on one thread: a valid ladder; the
/// ladder with a forward reference midway, which fails mid-load; a trace
/// that fetches a tautological original; one that resolves with a clause
/// it never derives; php8; and the ladder again.
std::vector<NamedTrace> reuse_sequence() {
  std::vector<NamedTrace> out;
  test::LadderTrace ladder = test::ladder_trace();
  NamedTrace broken{"ladder, forward reference midway", ladder.formula,
                    ladder.trace};
  auto& mid = broken.trace.derivations[broken.trace.derivations.size() / 2];
  mid.sources[1] = mid.id + 1;
  out.push_back({"ladder", ladder.formula, ladder.trace});
  out.push_back(std::move(broken));
  out.push_back(two_variable_trace("tautology fetched", 4, 6));
  out.push_back(two_variable_trace("never-derived source", 3, 5));
  {
    const Formula php8 = encode::pigeonhole(8);
    solver::Solver s;
    s.add_formula(php8);
    trace::MemoryTraceWriter w;
    s.set_trace_writer(&w);
    EXPECT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
    out.push_back({"php8", php8, w.take()});
  }
  out.push_back({"ladder again", std::move(ladder.formula),
                 std::move(ladder.trace)});
  return out;
}

TEST(CheckMemory, ReusedMemoryChecksLikeAFreshThread) {
  const std::vector<NamedTrace> sequence = reuse_sequence();
  for (const NamedTrace& c : sequence) {
    for (std::size_t k = 0; k < std::size(kRows); ++k) {
      const std::string what = c.name + ", " + kRowNames[k];
      const Observed here = check_row(kRows[k], c.formula, c.trace);
      expect_same_observed(
          here, check_on_fresh_thread(kRows[k], c.formula, c.trace), what);
    }
  }
  // The rows that must reject do so, for the reason the trace encodes.
  const auto df = [&](std::size_t i) {
    return check_row(Row::kDf, sequence[i].formula, sequence[i].trace).result;
  };
  EXPECT_TRUE(df(0).ok);
  EXPECT_NE(df(1).error.find("does not precede it"), std::string::npos)
      << df(1).error;
  EXPECT_EQ(df(2).error, checker::tautological_original(4));
  EXPECT_NE(df(3).error.find("clause 5 is referenced but never derived"),
            std::string::npos)
      << df(3).error;
  EXPECT_TRUE(df(4).ok);
}

/// Runs a whole check from inside the first on_derived callback of the
/// check it observes, on the thread whose memory that check holds.
class NestingObserver final : public checker::CertObserver {
 public:
  NestingObserver(const Formula& f, const trace::MemoryTrace& t)
      : f_(&f), t_(&t) {}
  void on_derived(ClauseId, std::span<const Lit>,
                  std::span<const std::uint32_t>) override {
    if (nested_.has_value()) return;
    trace::MemoryTraceReader reader(*t_);
    nested_ = checker::check_depth_first(*f_, reader, {.jobs = 4});
  }
  void on_released(ClauseId) override {}
  void on_final(ClauseId, std::span<const ClauseId>,
                std::span<const Lit>) override {}

  std::optional<checker::CheckResult> nested_;

 private:
  const Formula* f_;
  const trace::MemoryTrace* t_;
};

TEST(CheckMemory, NestedCheckGetsAPrivateWorkspace) {
  const test::LadderTrace outer = test::ladder_trace();
  test::LadderOptions seeded;
  seeded.seed = 7;
  const test::LadderTrace inner = test::ladder_trace(seeded);
  NestingObserver observer(inner.formula, inner.trace);
  trace::MemoryTraceReader reader(outer.trace);
  const checker::CheckResult got = checker::check_depth_first(
      outer.formula, reader, {.observer = &observer});
  ASSERT_TRUE(observer.nested_.has_value());
  EXPECT_TRUE(got.ok) << got.error;
  EXPECT_TRUE(observer.nested_->ok) << observer.nested_->error;
  expect_identical(
      got, check_on_fresh_thread(Row::kDf, outer.formula, outer.trace).result,
      "outer check");
  expect_identical(
      *observer.nested_,
      check_on_fresh_thread(Row::kDfOnLanes, inner.formula, inner.trace)
          .result,
      "nested check");
  // The thread's memory is free again afterwards.
  expect_identical(check_row(Row::kDf, outer.formula, outer.trace).result,
                   got, "after the nested check");
}

#if defined(__linux__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
constexpr bool kCountsThreadFaults = true;
#else
constexpr bool kCountsThreadFaults = false;  // sanitizer allocators differ
#endif

/// Minor page faults taken by the calling thread so far.
long thread_minor_faults() {
#if defined(__linux__)
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
#else
  return 0;
#endif
}

TEST(CheckMemory, RepeatedCheckDoesNotFaultItsBuffersAgain) {
  if (!kCountsThreadFaults) {
    GTEST_SKIP() << "needs Linux per-thread fault counts and the system "
                    "allocator";
  }
  // A ladder whose binary trace is about 4 MiB: the source pool reserved
  // for it is too large for the allocator to recycle between checks.
  test::LadderOptions options;
  options.steps_per_ladder = 12000;
  const test::LadderTrace ladder = test::ladder_trace(options);
  util::TempFile cnf("memory-cnf");
  util::TempFile trace_file("memory-trace");
  dimacs::write_file(cnf.path(), ladder.formula);
  {
    std::ofstream out(trace_file.path(), std::ios::binary);
    trace::BinaryTraceWriter w(out);
    test::write_trace(ladder.trace, w);
  }
  ASSERT_GE(std::filesystem::file_size(trace_file.path()), 3u << 20);
  // A fresh thread, so that the first check is its memory's first.
  long faults[2] = {0, 0};
  std::thread([&] {
    for (long& n : faults) {
      const long before = thread_minor_faults();
      const service::JobOutcome o = service::run_check(
          cnf.path(), trace_file.path(), service::Backend::kDf);
      n = thread_minor_faults() - before;
      EXPECT_TRUE(o.ok) << o.error;
    }
  }).join();
  EXPECT_LT(faults[1] * 4, faults[0])
      << "first check " << faults[0] << " faults, second " << faults[1];
}

}  // namespace
}  // namespace satproof
