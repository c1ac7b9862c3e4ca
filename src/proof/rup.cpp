#include "src/proof/rup.hpp"

#include <algorithm>
#include <vector>

#include "src/checker/rup_engine.hpp"

namespace satproof::proof {

RupResult check_rup(const Formula& f, const ProofDag& dag, unsigned jobs) {
  RupResult result;

  Var num_vars = f.num_vars();
  for (const auto& node : dag.nodes) {
    for (const Lit lit : node.lits) {
      num_vars = std::max(num_vars, lit.var() + 1);
    }
  }
  // Seed with every original clause (tautologies are permanently satisfied
  // and contribute nothing to propagation), then add each derived clause
  // in DAG order. The first leaf that is not an original clause ends the
  // replay there.
  checker::RupProof proof(num_vars);
  proof.add_originals(f);
  std::vector<ClauseId> derived_ids;  // node ID of each addition step
  const ProofDag::Node* foreign_leaf = nullptr;
  for (const auto& node : dag.nodes) {
    if (!node.sources.empty()) {
      proof.steps.push_back({proof.add(node.lits), false});
      derived_ids.push_back(node.id);
    } else if (node.id >= dag.num_original) {
      foreign_leaf = &node;
      break;
    }
  }

  const checker::RupReplayResult replay = checker::replay_rup(proof, jobs);
  result.propagations = replay.propagations;
  result.clauses_checked = replay.failed_step;
  if (replay.failed_step < proof.steps.size()) {
    result.error = "derived clause " +
                   std::to_string(derived_ids[replay.failed_step]) +
                   " is not RUP: assuming its negation does not propagate "
                   "to a conflict";
  } else if (foreign_leaf != nullptr) {
    result.error = "leaf node " + std::to_string(foreign_leaf->id) +
                   " is not an original clause";
  } else {
    result.ok = true;
  }
  return result;
}

RupResult check_trace_rup(const Formula& f, trace::TraceReader& reader,
                          unsigned jobs) {
  try {
    const ProofDag dag = extract_proof(f, reader);
    return check_rup(f, dag, jobs);
  } catch (const ProofError& e) {
    RupResult result;
    result.error = e.what();
    return result;
  }
}

}  // namespace satproof::proof
