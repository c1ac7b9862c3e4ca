#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "src/checker/resolution.hpp"
#include "src/cnf/formula.hpp"
#include "src/trace/events.hpp"

namespace satproof::proof {

/// The resolution proof as an explicit DAG — what the checker traverses
/// implicitly, materialized for analysis and export.
///
/// This is the "resolution graph" of Section 3.1 of the paper: "a directed
/// acyclic graph that describes the sequence of resolutions starting from
/// the original clauses at the leaves and ending with the empty clause at
/// the root". Only the part reachable from the empty clause is included
/// (the same subgraph the depth-first checker builds). The final
/// empty-clause derivation of Proposition 3 appears as the root node.
struct ProofDag {
  struct Node {
    /// Clause ID; the root (empty clause) gets the first unused ID.
    ClauseId id = kInvalidClauseId;
    /// Resolve sources in replay order; empty for original-clause leaves.
    std::vector<ClauseId> sources;
    /// Canonical literals of the clause (empty for the root).
    checker::SortedClause lits;
    /// Longest leaf-to-node path; 0 for leaves.
    unsigned depth = 0;
  };

  /// Nodes in topological order (every source precedes its consumer);
  /// the root is last.
  std::vector<Node> nodes;
  /// Number of original clauses of the underlying formula.
  ClauseId num_original = 0;
  /// ID of the root (empty clause) node.
  ClauseId root_id = kInvalidClauseId;

  /// Index of a node by clause ID, or ~0 if the ID is not in the proof.
  [[nodiscard]] std::size_t index_of(ClauseId id) const;
};

/// Aggregate metrics of a proof DAG.
struct ProofStats {
  std::size_t leaves = 0;           ///< original clauses used
  std::size_t derived = 0;          ///< derived clauses incl. the root
  std::size_t resolutions = 0;      ///< total resolution steps
  unsigned depth = 0;               ///< longest chain of derivations
  std::size_t max_clause_width = 0; ///< longest clause in the proof
  double avg_clause_width = 0.0;    ///< mean derived-clause length
};

/// Computes the metrics of `dag`.
[[nodiscard]] ProofStats compute_stats(const ProofDag& dag);

/// Extraction failure (trace invalid or not an UNSAT trace).
class ProofError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Builds the proof DAG from a formula and its trace: the depth-first
/// checker replays the trace with a DAG-building observer attached, so the
/// DAG is exactly the cone that checker validates. Throws ProofError
/// carrying the checker's diagnostic when it rejects the trace.
[[nodiscard]] ProofDag extract_proof(const Formula& f,
                                     trace::TraceReader& reader);

}  // namespace satproof::proof
