#pragma once

#include <iosfwd>

#include "src/proof/proof_dag.hpp"

namespace satproof::proof {

/// Options for Graphviz export.
struct DotOptions {
  /// Emit at most this many nodes (proofs grow to millions of nodes; the
  /// default keeps graphs renderable). Nodes closest to the root win;
  /// among equally close ones, sources listed earlier.
  std::size_t max_nodes = 512;
  /// Print clause literals inside the nodes (off: just IDs).
  bool show_literals = true;
};

/// Writes the proof DAG in Graphviz dot format: leaves are boxes, derived
/// clauses ellipses, the empty-clause root a double circle; edges point
/// from sources to resolvents.
void write_dot(std::ostream& out, const ProofDag& dag,
               const DotOptions& options = {});

/// Writes the proof in the TraceCheck-style text format used by
/// independent proof tools (one line per clause):
///
///     <id> <lit>* 0 <antecedent-id>* 0
///
/// with 1-based clause IDs and DIMACS literals. Original clauses have an
/// empty antecedent list; the last line is the empty clause. This makes
/// proofs produced here consumable by third-party resolution checkers —
/// interoperability in the spirit of the paper's "independent checker"
/// argument: the more independent implementations agree, the stronger the
/// validation.
void write_tracecheck(std::ostream& out, const ProofDag& dag);

}  // namespace satproof::proof
