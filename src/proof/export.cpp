#include "src/proof/export.hpp"

#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace satproof::proof {

namespace {

void write_clause_label(std::ostream& out, const ProofDag::Node& node) {
  if (node.lits.empty()) {
    out << "[]";
    return;
  }
  bool first = true;
  for (const Lit lit : node.lits) {
    if (!first) out << " ";
    first = false;
    out << lit.to_dimacs();
  }
}

}  // namespace

void write_dot(std::ostream& out, const ProofDag& dag,
               const DotOptions& options) {
  // Select the nodes closest to the root: a breadth-first walk from the
  // root over each node's sources, in stored order, until the budget is
  // exhausted.
  std::unordered_map<ClauseId, std::size_t> index;
  for (std::size_t i = 0; i < dag.nodes.size(); ++i) {
    index.emplace(dag.nodes[i].id, i);
  }
  std::unordered_set<ClauseId> selected;
  std::vector<ClauseId> frontier;
  if (options.max_nodes > 0 && index.contains(dag.root_id)) {
    selected.insert(dag.root_id);
    frontier.push_back(dag.root_id);
  }
  for (std::size_t head = 0;
       head < frontier.size() && selected.size() < options.max_nodes; ++head) {
    for (const ClauseId s : dag.nodes[index.at(frontier[head])].sources) {
      if (selected.size() == options.max_nodes) break;
      if (selected.insert(s).second) frontier.push_back(s);
    }
  }

  out << "digraph proof {\n"
      << "  rankdir=BT;\n"
      << "  node [fontsize=10];\n";
  for (const auto& node : dag.nodes) {
    if (!selected.contains(node.id)) continue;
    out << "  n" << node.id << " [";
    if (node.id == dag.root_id) {
      out << "shape=doublecircle, label=\"[] (empty)\"";
    } else if (node.sources.empty()) {
      out << "shape=box, label=\"#" << node.id;
      if (options.show_literals) {
        out << "\\n";
        write_clause_label(out, node);
      }
      out << "\"";
    } else {
      out << "shape=ellipse, label=\"#" << node.id;
      if (options.show_literals) {
        out << "\\n";
        write_clause_label(out, node);
      }
      out << "\"";
    }
    out << "];\n";
  }
  for (const auto& node : dag.nodes) {
    if (node.sources.empty() || !selected.contains(node.id)) continue;
    for (const ClauseId s : node.sources) {
      if (!selected.contains(s)) continue;
      out << "  n" << s << " -> n" << node.id << ";\n";
    }
  }
  out << "}\n";
}

void write_tracecheck(std::ostream& out, const ProofDag& dag) {
  for (const auto& node : dag.nodes) {
    out << node.id + 1;
    out << ' ';
    for (const Lit lit : node.lits) out << lit.to_dimacs() << ' ';
    out << "0 ";
    for (const ClauseId s : node.sources) out << s + 1 << ' ';
    out << "0\n";
  }
}

}  // namespace satproof::proof
