#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/checker/resolution.hpp"
#include "src/cnf/formula.hpp"

namespace satproof::checker {

/// Result of forward DRUP checking.
struct DrupCheckResult {
  bool ok = false;
  std::string error;
  std::uint64_t clauses_checked = 0;  ///< added clauses verified RUP
  std::uint64_t deletions = 0;        ///< deletion lines applied
  std::uint64_t propagations = 0;     ///< unit propagations; see check_drup
};

/// One line of a DRUP proof: an added clause, or a `d` deletion line.
struct DrupStep {
  bool deletion = false;
  /// A deletion of a clause over a variable the formula does not have; no
  /// such clause can be in the database. `lits` is then left empty.
  bool absent = false;
  SortedClause lits;  ///< canonical literals
};

/// A DRUP proof read into memory, or the reason it could not be read.
struct DrupProof {
  std::vector<DrupStep> steps;
  std::string error;  ///< empty when every line was read
};

/// Reads a textual DRUP proof over a formula with `num_vars` variables:
/// one clause per line, literals terminated by 0, `d` before a deletion,
/// `c` comment lines. Each line must reach its 0. An added clause over a
/// variable above `num_vars` is an error, so a proof cannot size the
/// checker; a deletion over one is kept as an absent step.
[[nodiscard]] DrupProof read_drup(std::istream& proof, Var num_vars);

/// Forward DRUP proof checking — validating the modern descendant of the
/// paper's trace format.
///
/// The proof stream (see trace::DrupWriter) lists learned clauses by their
/// literals and deletions by `d` lines; no derivation information is
/// recorded. Each added clause is verified by reverse unit propagation
/// against the original formula plus the previously verified (and not yet
/// deleted) clauses; the proof is complete when the empty clause is
/// verified. Deletions are honoured, which is what makes forward DRUP
/// checking faithful: a clause deleted by the solver must not help justify
/// a later one.
///
/// Runs in two passes. A sequential resolve pass numbers the clauses and
/// maps each deletion to the live clause it removes, stopping at the first
/// empty lemma or the first deletion of a clause not in the database. The
/// RUP checks then run on `jobs` workers (0 = hardware threads; see
/// replay_rup). The verdict, the diagnostic, `clauses_checked` and
/// `deletions` are the sequential ones at every `jobs`: the earliest
/// failing step wins. `propagations` is repeatable for a given `jobs`.
[[nodiscard]] DrupCheckResult check_drup(const Formula& f,
                                         std::istream& proof,
                                         unsigned jobs = 0);

}  // namespace satproof::checker
