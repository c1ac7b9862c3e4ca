// Unit tests for checker building blocks: use-count stores (including
// file-backed paging edge cases), the level-0 assignment table, and
// antecedent validation.

#include <gtest/gtest.h>

#include "src/checker/common.hpp"
#include "src/checker/use_count.hpp"

namespace satproof::checker {
namespace {

// ------------------------------------------------------------ use counts

template <typename Store>
void exercise_store(Store& store, std::uint64_t n) {
  store.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(store.get(i), 0u) << i;
  }
  // Increment in a scattered pattern crossing page boundaries.
  for (std::uint64_t i = 0; i < n; i += 3) store.increment(i);
  for (std::uint64_t i = 0; i < n; i += 3) store.increment(i);
  for (std::uint64_t i = n; i-- > 0;) {
    EXPECT_EQ(store.get(i), i % 3 == 0 ? 2u : 0u) << i;
  }
  for (std::uint64_t i = 0; i < n; i += 3) {
    EXPECT_EQ(store.decrement(i), 1u);
    EXPECT_EQ(store.decrement(i), 0u);
  }
  EXPECT_THROW(store.decrement(0), std::logic_error);
}

TEST(UseCounts, InMemoryBasics) {
  InMemoryUseCounts store;
  exercise_store(store, 100);
  EXPECT_EQ(store.memory_bytes(), 100 * sizeof(std::uint32_t));
}

TEST(UseCounts, FileBackedSmallPagesForcePaging) {
  // 8-entry pages over 100 counters: every scattered access pattern above
  // crosses pages repeatedly.
  FileBackedUseCounts store(8);
  exercise_store(store, 100);
  EXPECT_EQ(store.memory_bytes(), 8 * sizeof(std::uint32_t));
}

TEST(UseCounts, FileBackedSurvivesResizeReuse) {
  FileBackedUseCounts store(4);
  store.resize(10);
  store.increment(9);
  EXPECT_EQ(store.get(9), 1u);
  store.resize(6);  // shrink: all counters reset
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(store.get(i), 0u);
  EXPECT_THROW(store.get(9), std::out_of_range);
}

template <typename Store>
void grow_one_at_a_time(Store& store, std::uint64_t n) {
  // Grow past each counter before counting it, as the breadth-first scan
  // does, across the cached page's edge and past the file's end.
  for (std::uint64_t i = 0; i < n; ++i) {
    store.grow(i + 1);
    store.grow(i + 1);  // not growing is a no-op
    for (std::uint64_t j = 0; j <= i; j += 5) store.increment(j);
  }
  // Counter j was counted once per growth step from j + 1 to n.
  for (std::uint64_t j = 0; j < n; ++j) {
    EXPECT_EQ(store.get(j), j % 5 == 0 ? n - j : 0u) << j;
  }
}

TEST(UseCounts, GrowKeepsCounts) {
  InMemoryUseCounts mem;
  grow_one_at_a_time(mem, 37);
  EXPECT_EQ(mem.memory_bytes(), 37 * sizeof(std::uint32_t));
  FileBackedUseCounts file(4);
  grow_one_at_a_time(file, 37);
  EXPECT_THROW((void)file.get(37), std::out_of_range);
}

TEST(UseCounts, FileBackedLastPartialPage) {
  FileBackedUseCounts store(8);
  store.resize(13);  // last page holds 5 entries
  store.increment(12);
  store.increment(0);
  EXPECT_EQ(store.get(12), 1u);
  EXPECT_EQ(store.get(0), 1u);
}

TEST(UseCounts, OutOfRangeIndexThrows) {
  InMemoryUseCounts mem;
  mem.resize(5);
  EXPECT_THROW(mem.get(5), std::out_of_range);
  FileBackedUseCounts file(4);
  file.resize(5);
  EXPECT_THROW(file.increment(5), std::out_of_range);
}

TEST(UseCounts, FactoryProducesRequestedKind) {
  EXPECT_NE(dynamic_cast<InMemoryUseCounts*>(
                make_use_count_store(UseCountMode::InMemory).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<FileBackedUseCounts*>(
                make_use_count_store(UseCountMode::FileBacked).get()),
            nullptr);
}

// ---------------------------------------------------------- level-0 table

TEST(Level0Table, RecordsOrderAndValues) {
  Level0Table table(4);
  table.add(2, true, 7);
  table.add(0, false, 9);
  EXPECT_TRUE(table.assigned(2));
  EXPECT_TRUE(table.assigned(0));
  EXPECT_FALSE(table.assigned(1));
  EXPECT_EQ(table.order(2), 0u);
  EXPECT_EQ(table.order(0), 1u);
  EXPECT_EQ(table.antecedent(2), 7u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(Level0Table, LitValueRespectsPhase) {
  Level0Table table(2);
  table.add(0, true, 1);
  EXPECT_EQ(table.lit_value(Lit::pos(0)), LBool::True);
  EXPECT_EQ(table.lit_value(Lit::neg(0)), LBool::False);
  EXPECT_EQ(table.lit_value(Lit::pos(1)), LBool::Undef);
}

TEST(Level0Table, RejectsDuplicatesAndOutOfRange) {
  Level0Table table(2);
  table.add(1, false, 3);
  EXPECT_THROW(table.add(1, true, 4), CheckFailure);
  EXPECT_THROW(table.add(2, true, 4), CheckFailure);
}

// ------------------------------------------------------ antecedent checks

class AntecedentCheck : public ::testing::Test {
 protected:
  AntecedentCheck() : table_(4) {
    // Trail: x0 = T (clause 0), x1 = F (clause 1), x2 = T (clause 2).
    table_.add(0, true, 0);
    table_.add(1, false, 1);
    table_.add(2, true, 2);
  }
  Level0Table table_;
};

TEST_F(AntecedentCheck, AcceptsGenuineAntecedent) {
  // x2's antecedent (x2 | ~x0 | x1): implied literal true, others false
  // and earlier.
  const SortedClause ante =
      canonicalize(std::vector<Lit>{Lit::pos(2), Lit::neg(0), Lit::pos(1)});
  EXPECT_NO_THROW(check_antecedent(ante, 2, table_, "test clause"));
}

TEST_F(AntecedentCheck, RejectsWrongPhaseOfImpliedVar) {
  const SortedClause ante =
      canonicalize(std::vector<Lit>{Lit::neg(2), Lit::neg(0)});
  EXPECT_THROW(check_antecedent(ante, 2, table_, "test clause"),
               CheckFailure);
}

TEST_F(AntecedentCheck, RejectsMissingImpliedVar) {
  const SortedClause ante = canonicalize(std::vector<Lit>{Lit::neg(0)});
  EXPECT_THROW(check_antecedent(ante, 2, table_, "test clause"),
               CheckFailure);
}

TEST_F(AntecedentCheck, RejectsTrueSideLiteral) {
  // Contains x0 (true): the clause was satisfied, never unit.
  const SortedClause ante =
      canonicalize(std::vector<Lit>{Lit::pos(2), Lit::pos(0)});
  EXPECT_THROW(check_antecedent(ante, 2, table_, "test clause"),
               CheckFailure);
}

TEST_F(AntecedentCheck, RejectsUnassignedLiteral) {
  const SortedClause ante =
      canonicalize(std::vector<Lit>{Lit::pos(2), Lit::neg(3)});
  EXPECT_THROW(check_antecedent(ante, 2, table_, "test clause"),
               CheckFailure);
}

TEST_F(AntecedentCheck, RejectsLaterAssignedLiteral) {
  // x2 assigned after x0: clause (x0 | ~x2) is not a valid antecedent of
  // x0 because x2 was assigned later.
  const SortedClause ante =
      canonicalize(std::vector<Lit>{Lit::pos(0), Lit::neg(2)});
  EXPECT_THROW(check_antecedent(ante, 0, table_, "test clause"),
               CheckFailure);
}

}  // namespace
}  // namespace satproof::checker
