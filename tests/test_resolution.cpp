// Unit and property tests for the checker's resolution kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/checker/common.hpp"
#include "src/checker/resolution.hpp"
#include "src/util/rng.hpp"

namespace satproof::checker {
namespace {

SortedClause C(std::initializer_list<int> dimacs) {
  std::vector<Lit> lits;
  for (const int d : dimacs) lits.push_back(Lit::from_dimacs(d));
  return canonicalize(lits);
}

TEST(Canonicalize, SortsAndDeduplicates) {
  const SortedClause c = C({3, -1, 3, 2, -1});
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], Lit::neg(0));
  EXPECT_EQ(c[1], Lit::pos(1));
  EXPECT_EQ(c[2], Lit::pos(2));
}

TEST(IsTautology, DetectsBothPhases) {
  EXPECT_TRUE(is_tautology(C({1, -1, 2})));
  EXPECT_FALSE(is_tautology(C({1, 2, -3})));
  EXPECT_FALSE(is_tautology(C({})));
}

TEST(Resolve, TextbookExample) {
  // (x + y) (y' + z) resolves on y to (x + z) — the paper's own example.
  SortedClause out;
  const auto r = resolve(C({1, 2}), C({-2, 3}), out);
  EXPECT_EQ(r.status, ResolveStatus::Ok);
  EXPECT_EQ(r.pivot, 1u);
  EXPECT_EQ(out, C({1, 3}));
}

TEST(Resolve, SharedSamePhaseLiteralsMergeOnce) {
  SortedClause out;
  const auto r = resolve(C({1, 2, 3}), C({-1, 2, 4}), out);
  EXPECT_EQ(r.status, ResolveStatus::Ok);
  EXPECT_EQ(out, C({2, 3, 4}));
}

TEST(Resolve, UnitClausesGiveEmptyResolvent) {
  SortedClause out;
  const auto r = resolve(C({5}), C({-5}), out);
  EXPECT_EQ(r.status, ResolveStatus::Ok);
  EXPECT_TRUE(out.empty());
}

TEST(Resolve, NoClashRejected) {
  SortedClause out;
  EXPECT_EQ(resolve(C({1, 2}), C({2, 3}), out).status,
            ResolveStatus::NoClash);
  EXPECT_EQ(resolve(C({1}), C({2}), out).status, ResolveStatus::NoClash);
}

TEST(Resolve, MultiClashRejected) {
  SortedClause out;
  EXPECT_EQ(resolve(C({1, 2}), C({-1, -2}), out).status,
            ResolveStatus::MultiClash);
}

TEST(Resolve, TautologicalSideRejected) {
  // b contains the pivot in both phases; resolving "through" it would
  // produce a clause stronger than implied (soundness trap).
  SortedClause out;
  const SortedClause a = C({-1});
  SortedClause b = C({1, 2});
  b.insert(b.begin() + 1, Lit::neg(0));  // force {x0, ~x0, x1} unsorted-safe
  std::sort(b.begin(), b.end());
  EXPECT_EQ(resolve(a, b, out).status, ResolveStatus::MultiClash);
}

TEST(ChainResolver, MatchesSingleResolve) {
  ChainResolver chain;
  chain.start(C({1, 2}));
  const auto r = chain.step(C({-2, 3}));
  EXPECT_EQ(r.status, ResolveStatus::Ok);
  auto got = chain.take();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, C({1, 3}));
}

TEST(ChainResolver, FoldsLongChain) {
  // (a+b)(~b+c)(~c+d)(~d) -> (a)
  ChainResolver chain;
  chain.start(C({1, 2}));
  EXPECT_EQ(chain.step(C({-2, 3})).status, ResolveStatus::Ok);
  EXPECT_EQ(chain.step(C({-3, 4})).status, ResolveStatus::Ok);
  EXPECT_EQ(chain.step(C({-4})).status, ResolveStatus::Ok);
  auto got = chain.take();
  EXPECT_EQ(got, C({1}));
}

TEST(ChainResolver, RejectsNoClashAndMultiClash) {
  ChainResolver chain;
  chain.start(C({1, 2}));
  EXPECT_EQ(chain.step(C({2, 3})).status, ResolveStatus::NoClash);
  chain.start(C({1, 2}));
  EXPECT_EQ(chain.step(C({-1, -2})).status, ResolveStatus::MultiClash);
}

TEST(ChainResolver, RejectsTautologicalNext) {
  ChainResolver chain;
  chain.start(C({-1}));
  SortedClause taut = C({1, 2});
  taut.push_back(Lit::neg(0));
  EXPECT_EQ(chain.step(taut).status, ResolveStatus::MultiClash);
}

TEST(ChainResolver, ReusableAcrossChains) {
  ChainResolver chain;
  chain.start(C({1, 2}));
  ASSERT_EQ(chain.step(C({-2})).status, ResolveStatus::Ok);
  EXPECT_EQ(chain.take(), C({1}));
  // Second, unrelated chain on the same object.
  chain.start(C({-3, 4}));
  ASSERT_EQ(chain.step(C({3, 4})).status, ResolveStatus::Ok);
  EXPECT_EQ(chain.take(), C({4}));
}

TEST(ChainResolver, EmptyAfterStartWithEmpty) {
  ChainResolver chain;
  chain.start(SortedClause{});
  EXPECT_TRUE(chain.lits().empty());
}

/// Property sweep: ChainResolver agrees with the reference sorted-merge
/// resolve() on randomly generated valid chains.
class ChainEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChainEquivalence, AgreesWithReferenceResolve) {
  util::Rng rng(GetParam());
  const unsigned num_vars = 30;

  for (int round = 0; round < 50; ++round) {
    // Start from a random clause; repeatedly resolve with clauses
    // constructed to clash on exactly one variable.
    SortedClause current;
    {
      std::vector<Lit> lits;
      const unsigned len = 2 + static_cast<unsigned>(rng.next_below(6));
      for (unsigned i = 0; i < len; ++i) {
        lits.push_back(Lit(static_cast<Var>(rng.next_below(num_vars)),
                           rng.next_bool()));
      }
      current = canonicalize(lits);
      if (is_tautology(current)) continue;
    }

    ChainResolver chain;
    chain.start(current);

    for (int step = 0; step < 10 && !current.empty(); ++step) {
      // Pick a pivot from the current clause and build a partner clause
      // containing its negation plus fresh literals that do not clash.
      const Lit pivot = current[rng.next_below(current.size())];
      std::vector<Lit> partner{~pivot};
      for (unsigned i = 0; i < 4; ++i) {
        const Var v = static_cast<Var>(rng.next_below(num_vars));
        if (v == pivot.var()) continue;
        // Avoid introducing a second clash with the current clause.
        const Lit cand(v, rng.next_bool());
        if (std::find(current.begin(), current.end(), ~cand) !=
            current.end()) {
          partner.push_back(~cand);  // same phase as current: no clash
        } else {
          partner.push_back(cand);
        }
      }
      const SortedClause next = canonicalize(partner);
      if (is_tautology(next)) break;

      SortedClause ref_out;
      const auto ref = resolve(current, next, ref_out);
      const auto fast = chain.step(next);
      ASSERT_EQ(ref.status, fast.status);
      if (ref.status != ResolveStatus::Ok) break;
      ASSERT_EQ(ref.pivot, fast.pivot);

      std::vector<Lit> fast_lits(chain.lits().begin(), chain.lits().end());
      std::sort(fast_lits.begin(), fast_lits.end());
      ASSERT_EQ(fast_lits, ref_out);
      current = ref_out;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

/// Property sweep: CanonicalOriginals, through which every replay backend
/// reads original clauses, returns canonicalize()'s sequence for each
/// clause, keeps is_tautology's answer, and copies nothing when every
/// clause of the formula is already strictly ascending.
TEST(CanonicalOriginals, MatchesCanonicalizeAndReadsAscendingClausesInPlace) {
  util::Rng rng(2024);
  int in_place = 0;
  int copied = 0;
  for (int round = 0; round < 2000; ++round) {
    // Few variables, so duplicates and complementary pairs are common.
    const auto num_vars = static_cast<Var>(1 + rng.next_below(8));
    const auto num_clauses = static_cast<unsigned>(1 + rng.next_below(6));
    const auto mode = rng.next_below(3);
    std::vector<std::vector<Lit>> raws;
    Formula f(num_vars);
    for (unsigned c = 0; c < num_clauses; ++c) {
      const auto len = static_cast<unsigned>(rng.next_below(13));
      std::vector<Lit> raw;
      for (unsigned i = 0; i < len; ++i) {
        raw.push_back(
            Lit(static_cast<Var>(rng.next_below(num_vars)), rng.next_bool()));
      }
      switch (mode) {
        case 0:  // canonical already
          raw = canonicalize(raw);
          break;
        case 1:  // reversed canonical: descending
          raw = canonicalize(raw);
          std::reverse(raw.begin(), raw.end());
          break;
        default:  // as drawn
          break;
      }
      f.add_clause(raw);
      raws.push_back(std::move(raw));
    }
    SCOPED_TRACE("round " + std::to_string(round));

    const CanonicalOriginals originals(f);
    ASSERT_EQ(originals.num_clauses(), f.num_clauses());
    bool all_ascending = true;
    bool any_in_place = false;
    bool any_copied = false;
    for (ClauseId id = 0; id < raws.size(); ++id) {
      const std::vector<Lit>& raw = raws[id];
      const ClauseView view = originals.clause(id);
      ASSERT_EQ(std::vector<Lit>(view.begin(), view.end()), canonicalize(raw));

      bool both_phases = false;
      for (const Lit lit : raw) {
        both_phases = both_phases ||
                      std::find(raw.begin(), raw.end(), ~lit) != raw.end();
      }
      ASSERT_EQ(originals.tautology(id), both_phases);
      ASSERT_EQ(is_tautology(view), both_phases);
      if (both_phases) {
        EXPECT_THROW((void)originals.source(id), CheckFailure);
      } else {
        EXPECT_EQ(originals.source(id).data(), view.data());
      }
      all_ascending =
          all_ascending &&
          std::adjacent_find(raw.begin(), raw.end(), [](Lit a, Lit b) {
            return !(a < b);
          }) == raw.end();
      if (!raw.empty()) {
        const bool same = view.data() == f.clause(id).data();
        any_in_place = any_in_place || same;
        any_copied = any_copied || !same;
      }
    }
    // Read in place exactly when no clause needed sorting.
    if (all_ascending) {
      ASSERT_FALSE(any_copied);
      ++in_place;
    } else {
      ASSERT_FALSE(any_in_place);
      ++copied;
    }
  }
  EXPECT_GT(in_place, 400);
  EXPECT_GT(copied, 400);
}

}  // namespace
}  // namespace satproof::checker
