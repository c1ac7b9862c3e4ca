#include "src/cnf/formula.hpp"

#include <algorithm>
#include <stdexcept>

namespace satproof {

ClauseId Formula::add_clause(std::span<const Lit> lits) {
  for (const Lit lit : lits) {
    if (lit == Lit::invalid()) {
      throw std::invalid_argument("Formula::add_clause: invalid literal");
    }
    ensure_var(lit.var());
  }
  const ClauseId id = offsets_.size();
  offsets_.push_back(pool_.size());
  sizes_.push_back(static_cast<std::uint32_t>(lits.size()));
  pool_.insert(pool_.end(), lits.begin(), lits.end());
  return id;
}

void Formula::canonicalize() {
  std::uint64_t kept = 0;  // literals kept so far, a prefix of pool_
  for (std::size_t id = 0; id < offsets_.size(); ++id) {
    Lit* const begin = pool_.data() + offsets_[id];
    Lit* end = begin + sizes_[id];
    const auto not_ascending = [](Lit a, Lit b) { return !(a < b); };
    if (std::adjacent_find(begin, end, not_ascending) != end) {
      std::sort(begin, end);
      end = std::unique(begin, end);
    }
    const std::uint64_t size = end - begin;
    // The clause moves down over the literals dropped before it.
    if (kept != offsets_[id]) {
      std::copy(begin, begin + size, pool_.data() + kept);
    }
    offsets_[id] = kept;
    sizes_[id] = static_cast<std::uint32_t>(size);
    kept += size;
  }
  pool_.resize(kept);
}

void Formula::throw_clause_out_of_range() {
  throw std::out_of_range("Formula::clause: id out of range");
}

std::size_t Formula::num_used_vars() const {
  std::vector<bool> used(num_vars_, false);
  for (const Lit lit : pool_) used[lit.var()] = true;
  std::size_t n = 0;
  for (const bool u : used) n += u ? 1 : 0;
  return n;
}

Formula Formula::subformula(std::span<const ClauseId> ids) const {
  Formula sub(num_vars_);
  for (const ClauseId id : ids) sub.add_clause(clause(id));
  return sub;
}

}  // namespace satproof
