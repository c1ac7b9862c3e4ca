#include "src/solver/clause_db.hpp"

#include <stdexcept>

namespace satproof::solver {

namespace {

/// The largest arena, in words, whose every position fits in a ClauseRef.
constexpr std::size_t kMaxArenaWords =
    std::size_t{std::numeric_limits<ClauseRef>::max()};

/// Appends a clause (header, then literals) to `arena`.
void append_clause(std::vector<Lit>& arena, std::span<const Lit> lits,
                   ClauseSlot slot) {
  arena.push_back(Lit::from_code(static_cast<std::uint32_t>(lits.size())));
  arena.push_back(Lit::from_code(slot));
  arena.insert(arena.end(), lits.begin(), lits.end());
}

}  // namespace

ClauseSlot ClauseDb::alloc(std::span<const Lit> lits, ClauseId id,
                           bool learned) {
  if (lits.size() + kHeaderWords > kMaxArenaWords - arena_.size()) {
    throw std::length_error("ClauseDb: clause arena exceeds 2^32 words");
  }
  ClauseSlot slot;
  if (!free_list_.empty()) {
    slot = free_list_.back();
    free_list_.pop_back();
  } else {
    slot = static_cast<ClauseSlot>(slots_.size());
    slots_.emplace_back();
  }
  DbClause& c = slots_[slot];
  c.id = id;
  c.activity = 0.0f;
  c.ref = static_cast<ClauseRef>(arena_.size());
  c.learned = learned;
  c.live = true;
  append_clause(arena_, lits, slot);
  if (learned) ++num_learned_;
  mem_.add(util::clause_footprint_bytes(lits.size()));
  return slot;
}

void ClauseDb::free(ClauseSlot slot) {
  DbClause& c = slots_[slot];
  const std::size_t n = lits(slot).size();
  mem_.remove(util::clause_footprint_bytes(n));
  wasted_words_ += kHeaderWords + n;
  if (c.learned) --num_learned_;
  c.live = false;
  c.id = kInvalidClauseId;
  free_list_.push_back(slot);
}

void ClauseDb::compact() {
  std::vector<Lit> fresh;
  fresh.reserve(arena_.size() - wasted_words_);
  for (ClauseSlot s = 0; s < slots_.size(); ++s) {
    DbClause& c = slots_[s];
    if (!c.live) continue;
    const std::span<const Lit> body = lits_at(c.ref);
    c.ref = static_cast<ClauseRef>(fresh.size());
    append_clause(fresh, body, s);
  }
  arena_.swap(fresh);
  wasted_words_ = 0;
}

std::vector<ClauseSlot> ClauseDb::live_slots() const {
  std::vector<ClauseSlot> out;
  out.reserve(slots_.size());
  for (ClauseSlot s = 0; s < slots_.size(); ++s) {
    if (slots_[s].live) out.push_back(s);
  }
  return out;
}

}  // namespace satproof::solver
