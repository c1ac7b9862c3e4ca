#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/cnf/types.hpp"

namespace satproof {

/// A CNF formula: a conjunction of clauses over variables [0, num_vars).
///
/// Clause storage is a flat literal pool plus per-clause offsets, so a
/// million-clause instance is two contiguous allocations. Clause IDs are
/// the order of appearance, which is exactly the numbering contract the
/// solver and checker share (paper Section 3.1).
class Formula {
 public:
  Formula() = default;

  /// Creates a formula with `num_vars` variables and no clauses.
  explicit Formula(Var num_vars) : num_vars_(num_vars) {}

  /// Number of variables. Variables may be unused by any clause (the paper
  /// notes the same about the DIMACS headers of its benchmarks).
  [[nodiscard]] Var num_vars() const { return num_vars_; }

  /// Number of clauses; also the first ID available for learned clauses.
  [[nodiscard]] std::size_t num_clauses() const { return offsets_.size(); }

  /// Ensures the variable range covers `var`.
  void ensure_var(Var var) {
    if (var >= num_vars_) num_vars_ = var + 1;
  }

  /// Appends a clause and returns its ID. Literals are stored verbatim
  /// (no sorting, no deduplication); the clause may be empty.
  ClauseId add_clause(std::span<const Lit> lits);

  /// Convenience overload for brace-enclosed literal lists.
  ClauseId add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// The literals of clause `id`: as added, or in canonical form after
  /// canonicalize(). Throws std::out_of_range when `id` >= num_clauses().
  /// Inline: the replay backends read an original clause per resolve
  /// source.
  [[nodiscard]] std::span<const Lit> clause(ClauseId id) const {
    if (id >= offsets_.size()) [[unlikely]] throw_clause_out_of_range();
    return {pool_.data() + offsets_[id], sizes_[id]};
  }

  /// Puts every clause in canonical form, in place: literals sorted by
  /// code, repeated literals dropped, the pool compacted so that
  /// num_literals() counts what remains. Clause IDs and the clause count
  /// do not change; an empty clause stays empty and a tautology keeps
  /// both phases of its variable. Idempotent. The checkers resolve
  /// canonical clauses, so a check that canonicalizes the formula it owns
  /// lets them read every original in place.
  void canonicalize();

  /// Total number of stored literals across all clauses.
  [[nodiscard]] std::size_t num_literals() const { return pool_.size(); }

  /// Number of distinct variables that occur in at least one clause. The
  /// paper's Table 3 counts involved variables this way.
  [[nodiscard]] std::size_t num_used_vars() const;

  /// Builds a sub-formula from the clauses in `ids` (in the given order),
  /// preserving the variable numbering. Used by the iterative unsat-core
  /// procedure of Table 3.
  [[nodiscard]] Formula subformula(std::span<const ClauseId> ids) const;

 private:
  [[noreturn]] static void throw_clause_out_of_range();

  Var num_vars_ = 0;
  std::vector<Lit> pool_;
  std::vector<std::uint64_t> offsets_;  // start of each clause in pool_
  std::vector<std::uint32_t> sizes_;    // length of each clause
};

}  // namespace satproof
