// Tests for derive_final_clause, the final empty-clause derivation every
// resolution backend runs over the level-0 trail (Section 3.1, Fig. 2).
//
// It used to find each literal to resolve by rescanning the whole running
// clause, at a cost of trail length times clause width. That version is
// kept below, only here, as the oracle for the heap-ordered one: on the
// 500-seed differential corpus, on assumption traces, and on corrupted
// level-0 sections, both must return the same remaining clause, the same
// antecedents in the same order, the same resolution count and the same
// error text.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "src/checker/breadth_first.hpp"
#include "src/checker/common.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/hybrid.hpp"
#include "src/checker/resolution.hpp"
#include "src/checker/window.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/memory.hpp"
#include "src/util/rng.hpp"

namespace satproof::checker {
namespace {

// ------------------------------------------------------------------ oracle
//
// The linear-scan derivation as it was.

SortedClause linear_derive_final_clause(ClauseId final_id,
                                        const ClauseFetcher& fetch,
                                        const Level0Table& table,
                                        CheckStats& stats,
                                        std::vector<ClauseId>* used_antecedents) {
  if (used_antecedents != nullptr) used_antecedents->clear();
  ChainResolver chain;
  chain.reserve_vars(table.num_vars());
  {
    const ClauseView final_clause = fetch(final_id);
    for (const Lit lit : final_clause) {
      const LBool v = table.lit_value(lit);
      if (v == LBool::Undef) {
        throw CheckFailure("final clause " + std::to_string(final_id) +
                           ": literal " + to_string(lit) +
                           " has no final-trail assignment");
      }
      // A true literal is only legitimate over an assumed variable (the
      // failed assumption was implied to its opposite value).
      if (v == LBool::True && !table.is_assumed(lit.var())) {
        throw CheckFailure(
            "final clause " + std::to_string(final_id) +
            " is not conflicting: literal " + to_string(lit) +
            " is true and its variable is not an assumption");
      }
    }
    chain.start(final_clause);
  }

  std::size_t steps = 0;
  const std::size_t max_steps = table.size() + 1;
  while (true) {
    // Reverse chronological choice (Fig. 2's choose_literal) among the
    // resolvable literals: false, and implied (assumption decisions have no
    // antecedent and stay in the clause).
    Lit chosen = Lit::invalid();
    for (const Lit lit : chain.lits()) {
      const Var v = lit.var();
      if (!table.assigned(v)) {
        throw CheckFailure("literal " + to_string(lit) +
                           " in the derivation has no final-trail assignment");
      }
      if (table.lit_value(lit) != LBool::False || !table.implied(v)) continue;
      if (chosen == Lit::invalid() ||
          table.order(v) > table.order(chosen.var())) {
        chosen = lit;
      }
    }
    if (chosen == Lit::invalid()) break;
    if (++steps > max_steps) {
      throw CheckFailure(
          "final-clause derivation did not terminate within the trail "
          "length; the antecedent chain is circular");
    }
    const Var v = chosen.var();
    const ClauseId ante_id = table.antecedent(v);
    const ClauseView ante = fetch(ante_id);
    check_antecedent(ante, v, table, "antecedent clause " +
                                         std::to_string(ante_id) + " of x" +
                                         std::to_string(v));
    if (used_antecedents != nullptr) used_antecedents->push_back(ante_id);
    const ResolveResult r = chain.step(ante);
    ++stats.resolutions;
    if (r.status != ResolveStatus::Ok) {
      throw CheckFailure(
          "resolution of the running clause with antecedent " +
          std::to_string(ante_id) + " failed: " +
          (r.status == ResolveStatus::NoClash ? "no clashing variable"
                                              : "more than one clashing variable"));
    }
  }

  SortedClause remaining = chain.take();
  std::sort(remaining.begin(), remaining.end());
  if (!table.has_assumptions() && !remaining.empty()) {
    throw CheckFailure(
        "final-clause derivation stopped at a non-empty clause with no "
        "assumptions recorded; literal " + to_string(remaining.front()) +
        " cannot be resolved away");
  }
  return remaining;
}


// ------------------------------------------------------------- comparison

struct Outcome {
  SortedClause remaining;
  std::vector<ClauseId> antecedents;
  std::uint64_t resolutions = 0;
  std::string error;

  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  os << "{remaining";
  for (const Lit l : o.remaining) os << ' ' << to_string(l);
  os << "; antecedents";
  for (const ClauseId a : o.antecedents) os << ' ' << a;
  return os << "; resolutions " << o.resolutions << "; error '" << o.error
            << "'}";
}

template <class Derive>
Outcome derive_with(Derive derive, ClauseId final_id,
                    const std::vector<SortedClause>& clauses,
                    const Level0Table& table) {
  const ClauseFetcher fetch = [&](ClauseId id) -> ClauseView {
    if (id >= clauses.size()) throw CheckFailure("no clause " + std::to_string(id));
    return clauses[id];
  };
  Outcome o;
  CheckStats stats;
  try {
    o.remaining = derive(final_id, fetch, table, stats, &o.antecedents);
  } catch (const CheckFailure& e) {
    o.error = e.what();
  }
  o.resolutions = stats.resolutions;
  return o;
}

// Both derivations on one trail; returns the heap-ordered one's outcome.
Outcome expect_same(ClauseId final_id, const std::vector<SortedClause>& clauses,
                    const Level0Table& table) {
  const Outcome got = derive_with(
      [](auto&&... a) { return derive_final_clause(a...); }, final_id,
      clauses, table);
  const Outcome want = derive_with(
      [](auto&&... a) { return linear_derive_final_clause(a...); }, final_id,
      clauses, table);
  EXPECT_EQ(got, want);
  return got;
}

// A trail as the trace lists it: Level0 and Assumption records in order.
using Trail = std::vector<trace::Record>;

// The table the checkers build from `trail`, or nullopt when building it
// already fails (a variable assigned twice).
std::optional<Level0Table> table_of(const Trail& trail, Var num_vars) {
  Level0Table table(num_vars);
  try {
    for (const trace::Record& rec : trail) {
      if (rec.kind == trace::RecordKind::Assumption) {
        table.add_assumption(rec.var, rec.value);
      } else {
        table.add(rec.var, rec.value, rec.antecedent);
      }
    }
  } catch (const CheckFailure&) {
    return std::nullopt;
  }
  return table;
}

// A solved trace, opened up: every clause by ID (originals, then each
// derivation's resolvent, canonical), the final conflict and the trail.
struct OpenTrace {
  std::vector<SortedClause> clauses;
  ClauseId final_id = 0;
  Trail trail;
  Var num_vars = 0;
};

OpenTrace open_trace(const Formula& f, const trace::MemoryTrace& t) {
  OpenTrace o;
  o.num_vars = t.num_vars;
  for (ClauseId i = 0; i < f.num_clauses(); ++i) {
    const ClauseView c = f.clause(i);
    o.clauses.push_back(canonicalize(c));
  }
  ChainResolver chain;
  trace::MemoryTraceReader reader(t);
  trace::Record rec;
  while (reader.next(rec)) {
    switch (rec.kind) {
      case trace::RecordKind::Derivation:
        chain.start(o.clauses[rec.sources[0]]);
        for (std::size_t i = 1; i < rec.sources.size(); ++i) {
          EXPECT_EQ(chain.step(o.clauses[rec.sources[i]]).status,
                    ResolveStatus::Ok);
        }
        o.clauses.resize(std::max<std::size_t>(o.clauses.size(), rec.id + 1));
        o.clauses[rec.id] = canonicalize(chain.lits());
        break;
      case trace::RecordKind::FinalConflict:
        o.final_id = rec.id;
        break;
      case trace::RecordKind::Level0:
      case trace::RecordKind::Assumption:
        o.trail.push_back(rec);
        break;
      case trace::RecordKind::End:
        break;
    }
  }
  return o;
}

/// 1-2 random edits of a trail: drop a record (its variable unassigned),
/// flip a value (antecedents then hold the wrong phase), swap two records
/// (antecedents assigned after their variable), retarget an antecedent, or
/// move a record to the end.
Trail corrupt(Trail trail, ClauseId num_clauses, util::Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.next_below(2));
  for (int e = 0; e < edits && !trail.empty(); ++e) {
    const std::size_t i = rng.next_below(trail.size());
    const std::size_t j = rng.next_below(trail.size());
    switch (rng.next_below(5)) {
      case 0:
        trail.erase(trail.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      case 1:
        trail[i].value = !trail[i].value;
        break;
      case 2:
        std::swap(trail[i], trail[j]);
        break;
      case 3:
        if (trail[i].kind == trace::RecordKind::Level0) {
          trail[i].antecedent = rng.next_below(num_clauses);
        }
        break;
      default: {
        const trace::Record moved = trail[i];
        trail.erase(trail.begin() + static_cast<std::ptrdiff_t>(i));
        trail.push_back(moved);
        break;
      }
    }
  }
  return trail;
}

// ----------------------------------------------------------------- corpus

constexpr int kInstancesPerShard = 50;  // x 10 shards = 500 instances
constexpr int kCorruptionsPerTrace = 8;

class FinalDerivationCorpus : public ::testing::TestWithParam<int> {};

// The differential corpus's instances (test_differential.cpp), each solved
// outright and under three assumptions: every UNSAT trail, and corrupted
// copies of it, must derive alike.
TEST_P(FinalDerivationCorpus, HeapOrderMatchesLinearScan) {
  const int shard = GetParam();
  int traces = 0;
  int assumption_traces = 0;
  int rejected = 0;
  for (int i = 0; i < kInstancesPerShard; ++i) {
    const std::uint64_t seed =
        1000 + static_cast<std::uint64_t>(shard) * kInstancesPerShard + i;
    const unsigned n = 12 + static_cast<unsigned>(seed % 14);
    const double ratio = 3.8 + 0.15 * static_cast<double>(i % 9);
    const unsigned m = static_cast<unsigned>(n * ratio);
    const Formula f = encode::random_ksat(n, m, 3, seed);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Lit assume[] = {Lit(0, seed % 2 == 0), Lit(1, seed % 3 == 0),
                          Lit(2, seed % 5 == 0)};
    for (const bool with_assumptions : {false, true}) {
      solver::Solver s;
      s.add_formula(f);
      trace::MemoryTraceWriter writer;
      s.set_trace_writer(&writer);
      const solver::SolveResult solved =
          with_assumptions ? s.solve(assume) : s.solve();
      if (solved != solver::SolveResult::Unsatisfiable) continue;
      const OpenTrace o = open_trace(f, writer.take());
      const std::optional<Level0Table> table = table_of(o.trail, o.num_vars);
      ASSERT_TRUE(table.has_value());
      const Outcome clean = expect_same(o.final_id, o.clauses, *table);
      EXPECT_EQ(clean.error, "");
      ++traces;
      assumption_traces += table->has_assumptions() ? 1 : 0;
      util::Rng rng(seed);
      for (int c = 0; c < kCorruptionsPerTrace; ++c) {
        const Trail bad = corrupt(o.trail, o.clauses.size(), rng);
        const std::optional<Level0Table> bad_table = table_of(bad, o.num_vars);
        if (!bad_table) continue;
        rejected += expect_same(o.final_id, o.clauses, *bad_table).error.empty()
                        ? 0
                        : 1;
      }
    }
  }
  EXPECT_GE(traces, kInstancesPerShard / 5);
  EXPECT_GT(assumption_traces, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Shards, FinalDerivationCorpus, ::testing::Range(0, 10));

// ----------------------------------------------------------- fixed trails

// Clauses over x0..x3:
//   0: (x0)          antecedent of x0
//   1: (~x0 | x1)    antecedent of x1
//   2: (~x1 | x2)    antecedent of x2
//   3: (~x2 | ~x1)   the final conflicting clause
// Resolving 3 with 2, 1, 0 (x2, x1, x0: reverse trail order) leaves the
// empty clause.
std::vector<SortedClause> chain_clauses() {
  return {canonicalize(std::vector<Lit>{Lit::pos(0)}),
          canonicalize(std::vector<Lit>{Lit::neg(0), Lit::pos(1)}),
          canonicalize(std::vector<Lit>{Lit::neg(1), Lit::pos(2)}),
          canonicalize(std::vector<Lit>{Lit::neg(2), Lit::neg(1)})};
}

Level0Table chain_table() {
  Level0Table table(4);
  table.add(0, true, 0);
  table.add(1, true, 1);
  table.add(2, true, 2);
  return table;
}

TEST(FinalDerivationFixed, ResolvesInReverseTrailOrder) {
  const Outcome o = expect_same(3, chain_clauses(), chain_table());
  EXPECT_EQ(o.error, "");
  EXPECT_TRUE(o.remaining.empty());
  EXPECT_EQ(o.antecedents, (std::vector<ClauseId>{2, 1, 0}));
  EXPECT_EQ(o.resolutions, 3u);
}

TEST(FinalDerivationFixed, UnassignedLiteralEnteringMidChain) {
  // x1's antecedent also holds x3, which the trail never assigns.
  std::vector<SortedClause> clauses = chain_clauses();
  clauses[1] = canonicalize(
      std::vector<Lit>{Lit::neg(0), Lit::pos(1), Lit::pos(3)});
  const Outcome o = expect_same(3, clauses, chain_table());
  EXPECT_EQ(o.error,
            "antecedent clause 1 of x1 is not a valid antecedent of x1: "
            "literal " + to_string(Lit::pos(3)) + " is unassigned at level 0");
  EXPECT_EQ(o.resolutions, 1u);
}

TEST(FinalDerivationFixed, AntecedentHoldingTheWrongPhase) {
  std::vector<SortedClause> clauses = chain_clauses();
  clauses[2] = canonicalize(std::vector<Lit>{Lit::neg(1), Lit::neg(2)});
  const Outcome o = expect_same(3, clauses, chain_table());
  EXPECT_EQ(o.error, "antecedent clause 2 of x2 contains " +
                         to_string(Lit::neg(2)) +
                         ", the opposite phase of the implied literal of x2");
  EXPECT_EQ(o.resolutions, 0u);
}

TEST(FinalDerivationFixed, AntecedentAssignedAfterItsVariable) {
  // x1 is placed on the trail before x0, which its antecedent needs.
  Level0Table table(4);
  table.add(1, true, 1);
  table.add(0, true, 0);
  table.add(2, true, 2);
  const Outcome o = expect_same(3, chain_clauses(), table);
  EXPECT_EQ(o.error,
            "antecedent clause 1 of x1 is not a valid antecedent of x1: "
            "literal " + to_string(Lit::neg(0)) + " was assigned after x1");
  EXPECT_EQ(o.resolutions, 1u);
}

TEST(FinalDerivationFixed, AssumptionStaysInTheClause) {
  // x0 is an assumption decision: no antecedent, so ~x0 remains.
  Level0Table table(4);
  table.add_assumption(0, true);
  table.add(1, true, 1);
  table.add(2, true, 2);
  const Outcome o = expect_same(3, chain_clauses(), table);
  EXPECT_EQ(o.error, "");
  EXPECT_EQ(o.remaining, SortedClause{Lit::neg(0)});
  EXPECT_EQ(o.antecedents, (std::vector<ClauseId>{2, 1}));
  EXPECT_EQ(o.resolutions, 2u);
}

// ------------------------------------------------------- 2^16-step chain

// x0 is a unit clause and clause i = (~x(i-1) | xi) implies xi, so the
// level-0 trail is x0..x(n-1) and the final conflicting clause (~x(n-1))
// resolves down the whole trail: n resolutions, no derivation records.
TEST(FinalDerivationChain, EveryBackendResolvesTheWholeTrail) {
  constexpr Var kSteps = Var{1} << 16;
  Formula f(kSteps);
  trace::MemoryTraceWriter writer;
  writer.begin(kSteps, kSteps + 1);
  f.add_clause({Lit::pos(0)});
  for (Var v = 1; v < kSteps; ++v) f.add_clause({Lit::neg(v - 1), Lit::pos(v)});
  f.add_clause({Lit::neg(kSteps - 1)});
  writer.final_conflict(kSteps);
  for (Var v = 0; v < kSteps; ++v) writer.level0(v, true, v);
  writer.end();
  const trace::MemoryTrace t = writer.take();

  std::vector<std::pair<std::string, CheckResult>> results;
  trace::MemoryTraceReader r1(t), r2(t), r3(t), r4(t), r5(t);
  results.emplace_back("depth-first", check_depth_first(f, r1));
  results.emplace_back("breadth-first", check_breadth_first(f, r2));
  results.emplace_back("hybrid", check_hybrid(f, r3));
  WindowOptions wopts;
  wopts.mem_limit_bytes = 2 << 20;
  results.emplace_back("window", check_window(f, r4, wopts));
  results.emplace_back("depth-first jobs 2",
                       check_depth_first(f, r5, {.jobs = 2}));
  for (const auto& [name, res] : results) {
    EXPECT_TRUE(res.ok) << name << ": " << res.error;
    EXPECT_EQ(res.stats.resolutions, kSteps) << name;
  }
}

}  // namespace
}  // namespace satproof::checker
