#pragma once

#include <cstdint>
#include <string>

#include "src/proof/proof_dag.hpp"
#include "src/trace/events.hpp"

namespace satproof::proof {

/// Result of RUP cross-validation.
struct RupResult {
  bool ok = false;
  std::string error;
  std::uint64_t clauses_checked = 0;  ///< derived clauses verified
  std::uint64_t propagations = 0;     ///< unit propagations performed
};

/// Verifies every derived clause of `dag` by **reverse unit propagation**:
/// assume the negation of the clause and unit-propagate over the original
/// clauses plus the previously verified derived clauses; a conflict must
/// follow.
///
/// This is the verification style of the paper's contemporaries — Van
/// Gelder's checkable proofs (the paper's reference [13]) and Goldberg &
/// Novikov's RUP verification — and the ancestor of today's DRUP/DRAT
/// checking. Every clause our solver derives is produced by input
/// resolution against existing clauses, and input-resolvable clauses are
/// exactly the RUP-checkable ones, so RUP must accept every DAG the
/// resolution checkers accept. Running both gives two *methodologically
/// independent* validations of the same proof: one replays the inference
/// steps, the other re-derives each conclusion semantically, sharing no
/// code path beyond the clause parser.
///
/// The checks run on the DRUP checker's propagation engine
/// (checker::replay_rup), which shares no code with the solver or the
/// resolution checkers, on `jobs` workers (0 = hardware threads). The
/// verdict, the diagnostic and `clauses_checked` are the same at every
/// `jobs`: the earliest failing node wins. `propagations` is repeatable
/// for a given `jobs`.
[[nodiscard]] RupResult check_rup(const Formula& f, const ProofDag& dag,
                                  unsigned jobs = 0);

/// Convenience: extract the proof DAG from a trace and RUP-check it. A
/// trace the depth-first checker rejects fails with that checker's
/// diagnostic.
[[nodiscard]] RupResult check_trace_rup(const Formula& f,
                                        trace::TraceReader& reader,
                                        unsigned jobs = 0);

}  // namespace satproof::proof
