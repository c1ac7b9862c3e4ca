#include "src/cnf/formula.hpp"

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
