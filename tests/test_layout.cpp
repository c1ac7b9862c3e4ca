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

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/cert/lrat_emitter.hpp"
#include "src/checker/breadth_first.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/drup.hpp"
#include "src/checker/hybrid.hpp"
#include "src/checker/window.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/encode/suite.hpp"
#include "src/proof/rup.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/drup.hpp"
#include "src/trace/memory.hpp"
#include "src/util/arena.hpp"
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
        store_(arena) {}

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
  // The binary tier is an arena property; an external arena with the tier
  // toggled passes through the same recycle_arena seam satproofd uses.
  util::ClauseArena arena;
  arena.set_binary_tier(binary_tier);
  options.recycle_arena = &arena;
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
  util::ClauseArena arena;
  arena.set_binary_tier(binary_tier);
  options.recycle_arena = &arena;
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

}  // namespace
}  // namespace satproof
