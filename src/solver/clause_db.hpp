#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/cnf/types.hpp"
#include "src/util/mem_tracker.hpp"

namespace satproof::solver {

/// Index of a clause inside the ClauseDb. Slots are recycled after
/// deletion, unlike ClauseIds, which are unique forever (the trace refers
/// to IDs, never slots).
using ClauseSlot = std::uint32_t;
inline constexpr ClauseSlot kInvalidSlot =
    std::numeric_limits<ClauseSlot>::max();

/// Position of a clause's header in the ClauseDb arena. Unlike a slot, a
/// ref moves when the arena is compacted.
using ClauseRef = std::uint32_t;

/// A clause's slot-table entry. The literals live in the arena at `ref`;
/// their order is mutable (watched literals live at positions 0 and 1),
/// and the clause-as-set is what the trace's ID refers to.
struct DbClause {
  ClauseId id = kInvalidClauseId;
  float activity = 0.0f;
  ClauseRef ref = 0;
  bool learned = false;
  bool live = false;
};

/// The solver's clause store: original clauses first, then learned clauses,
/// with slot recycling on deletion and byte accounting for the Table 1/2
/// peak-memory figures.
///
/// Every clause is stored inline in one arena of Lit-sized words: a
/// two-word header (literal count, slot) followed by the literals, so a
/// ref reaches both the literals and the owning slot with one load. Freed
/// clauses leave their words behind until compact() squeezes them out;
/// the slot table (id, activity, flags, ref) is separate and never moves.
class ClauseDb {
 public:
  /// Words in front of each clause's literals: the count and the slot,
  /// stored as Lit codes.
  static constexpr std::size_t kHeaderWords = 2;

  /// Stores a clause and returns its slot. The caller owns ID assignment.
  /// `lits` must not view this ClauseDb's arena, which may reallocate.
  /// Throws std::length_error when the arena would outgrow a 32-bit ref.
  ClauseSlot alloc(std::span<const Lit> lits, ClauseId id, bool learned);

  /// Releases a clause's slot. The ID is retired, never reused; the
  /// clause's arena words become waste until the next compact().
  void free(ClauseSlot slot);

  /// Access by slot; the slot must be live.
  [[nodiscard]] DbClause& operator[](ClauseSlot slot) { return slots_[slot]; }
  [[nodiscard]] const DbClause& operator[](ClauseSlot slot) const {
    return slots_[slot];
  }

  /// The literals of the clause whose header sits at `ref`.
  [[nodiscard]] std::span<Lit> lits_at(ClauseRef ref) {
    return {arena_.data() + ref + kHeaderWords, arena_[ref].code()};
  }
  [[nodiscard]] std::span<const Lit> lits_at(ClauseRef ref) const {
    return {arena_.data() + ref + kHeaderWords, arena_[ref].code()};
  }

  /// The slot that owns the clause at `ref`.
  [[nodiscard]] ClauseSlot slot_at(ClauseRef ref) const {
    return arena_[ref + 1].code();
  }

  /// The literals of a live slot.
  [[nodiscard]] std::span<Lit> lits(ClauseSlot slot) {
    return lits_at(slots_[slot].ref);
  }
  [[nodiscard]] std::span<const Lit> lits(ClauseSlot slot) const {
    return lits_at(slots_[slot].ref);
  }

  /// Number of live learned clauses.
  [[nodiscard]] std::size_t num_learned() const { return num_learned_; }

  /// Slots currently in use (live clauses only).
  [[nodiscard]] std::vector<ClauseSlot> live_slots() const;

  /// True once freed clauses hold more than half of the arena's words.
  [[nodiscard]] bool needs_compaction() const {
    return 2 * wasted_words_ > arena_.size();
  }

  /// Copies the live clauses, in slot order, into a fresh arena and
  /// updates each slot's ref. Slots, literal order and the byte
  /// accounting do not change; every ref held outside is stale afterwards.
  void compact();

  /// Arena size in words, freed clauses included.
  [[nodiscard]] std::size_t arena_words() const { return arena_.size(); }

  /// Byte accounting (peak feeds SolverStats::peak_clause_bytes).
  [[nodiscard]] const util::MemTracker& mem() const { return mem_; }

 private:
  std::vector<Lit> arena_;
  std::vector<DbClause> slots_;
  std::vector<ClauseSlot> free_list_;
  std::size_t wasted_words_ = 0;
  std::size_t num_learned_ = 0;
  util::MemTracker mem_;
};

}  // namespace satproof::solver
