#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/cnf/formula.hpp"
#include "src/cnf/types.hpp"

namespace satproof::checker {

/// One step of a RUP replay: the addition or the deletion of a clause of
/// the replayed database.
struct RupStep {
  std::uint32_t clause = 0;
  bool deletion = false;
};

/// A proof for RUP replay: every clause the database ever holds, numbered
/// from 0 in the order the database receives them, and the steps that
/// change it. Clauses below `num_original` are present before the first
/// step; each addition step adds the next clause after them, and is
/// RUP-checked against the database live at its position before it is
/// added.
struct RupProof {
  explicit RupProof(Var vars) : num_vars(vars) {}

  /// Most clauses a proof may hold: the engine tags clause numbers with
  /// one bit.
  static constexpr std::uint32_t kMaxClauses = std::uint32_t{1} << 31;

  /// Appends a clause and returns its number. Both appends throw
  /// std::length_error beyond kMaxClauses clauses.
  std::uint32_t add(std::span<const Lit> clause_lits);
  /// Appends every clause of `f` in canonical form (CanonicalOriginals),
  /// skipping tautologies, which can never propagate, and sets
  /// num_original to the clauses appended.
  void add_originals(const Formula& f);

  [[nodiscard]] std::uint32_t num_clauses() const {
    return static_cast<std::uint32_t>(starts.size() - 1);
  }
  [[nodiscard]] std::span<const Lit> clause(std::uint32_t number) const {
    return {lits.data() + starts[number], lits.data() + starts[number + 1]};
  }

  Var num_vars;
  std::vector<Lit> lits;
  std::vector<std::size_t> starts{0};  ///< clause n is [starts[n], starts[n+1])
  std::uint32_t num_original = 0;
  std::vector<RupStep> steps;
};

/// Lemmas are dealt to replay workers in blocks of this many, round-robin.
inline constexpr std::size_t kRupBlock = 64;

/// Outcome of replay_rup.
struct RupReplayResult {
  /// Index in RupProof::steps of the first addition that is not RUP, or
  /// steps.size() when every addition is.
  std::size_t failed_step = 0;
  /// Propagations of every check up to and including failed_step.
  std::uint64_t propagations = 0;
};

/// RUP-checks every addition of `proof` in parallel.
///
/// The checks run on a watched-literal engine private to this module,
/// shared by the DRUP checker and the trace RUP cross-checker and sharing
/// no code with the solver. Every watcher carries a blocker literal;
/// binary clauses are watched inline; values live in one array indexed by
/// literal; a deleted clause is unwatched before the next propagation.
/// Literals implied at the top level stay on a persistent trail prefix,
/// rebuilt from the live unit clauses at the first check after a deletion.
///
/// With the deletions resolved to clause numbers, each check depends only
/// on the database at its position, so the checks are independent. Runs
/// min(jobs, number of blocks) workers (`jobs` 0 = hardware threads); each
/// replays every addition and deletion on its own engine but checks only
/// its own blocks of kRupBlock lemmas. The earliest failure is kept
/// through an atomic minimum, and a worker stops once it has passed it, so
/// failed_step is the sequential answer at every `jobs`. `propagations` is
/// repeatable for a given `jobs`; with `jobs` 1 it is the sequential count.
/// An exception in a worker (std::bad_alloc) is rethrown here once every
/// worker has stopped.
[[nodiscard]] RupReplayResult replay_rup(const RupProof& proof, unsigned jobs);

}  // namespace satproof::checker
