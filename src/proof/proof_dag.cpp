#include "src/proof/proof_dag.hpp"

#include <algorithm>

#include "src/checker/depth_first.hpp"

namespace satproof::proof {

namespace {

/// Turns the depth-first checker's replay into DAG nodes. DF builds every
/// clause of the proof cone exactly once, in rounds, and announces each
/// round's clauses in ascending ID order, so every source arrives before
/// its consumers; the final derivation appends the root.
class DagBuilder final : public checker::CertObserver {
 public:
  explicit DagBuilder(ProofDag& dag) : dag_(&dag) {}

  void on_original(ClauseId id, std::span<const Lit> lits) override {
    add(id, {}, lits);
  }

  void on_derived(ClauseId id, std::span<const Lit> lits,
                  std::span<const std::uint32_t> sources) override {
    ProofDag::Node& n = add(id, {sources.begin(), sources.end()}, lits);
    std::sort(n.lits.begin(), n.lits.end());
  }

  void on_released(ClauseId) override {}

  /// The root's ID is the trace's, known only once the whole trace is
  /// read; extract_proof fills it in.
  void on_final(ClauseId final_id, std::span<const ClauseId> antecedents,
                std::span<const Lit> clause) override {
    std::vector<ClauseId> sources{final_id};
    sources.insert(sources.end(), antecedents.begin(), antecedents.end());
    add(kInvalidClauseId, std::move(sources), clause);
  }

 private:
  ProofDag::Node& add(ClauseId id, std::vector<ClauseId> sources,
                      std::span<const Lit> lits) {
    unsigned depth = 0;
    for (const ClauseId s : sources) depth = std::max(depth, depth_[s] + 1);
    if (id != kInvalidClauseId) {
      if (id >= depth_.size()) depth_.resize(id + 1);
      depth_[id] = depth;
    }
    return dag_->nodes.emplace_back(ProofDag::Node{
        id, std::move(sources), {lits.begin(), lits.end()}, depth});
  }

  ProofDag* dag_;
  std::vector<unsigned> depth_;  ///< node depth by clause ID
};

/// Passes a trace through to the checker, noting the trace's ID limit
/// (DerivationIndex::id_limit()) on the way: the root takes the first ID
/// no derivation uses, reachable or not.
class IdLimitReader final : public trace::TraceReader {
 public:
  explicit IdLimitReader(trace::TraceReader& inner)
      : inner_(&inner), limit_(inner.num_original()) {}

  [[nodiscard]] Var num_vars() const override { return inner_->num_vars(); }
  [[nodiscard]] ClauseId num_original() const override {
    return inner_->num_original();
  }

  bool next(trace::Record& out) override {
    if (!inner_->next(out)) return false;
    if (out.kind == trace::RecordKind::Derivation) {
      limit_ = std::max(limit_, out.id + 1);
    }
    return true;
  }

  void rewind() override {
    inner_->rewind();
    limit_ = inner_->num_original();
  }

  [[nodiscard]] ClauseId id_limit() const { return limit_; }

 private:
  trace::TraceReader* inner_;
  ClauseId limit_;
};

}  // namespace

std::size_t ProofDag::index_of(ClauseId id) const {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].id == id) return i;
  }
  return ~std::size_t{0};
}

ProofStats compute_stats(const ProofDag& dag) {
  ProofStats st;
  std::size_t derived_width_sum = 0;
  for (const auto& n : dag.nodes) {
    st.max_clause_width = std::max(st.max_clause_width, n.lits.size());
    st.depth = std::max(st.depth, n.depth);
    if (n.sources.empty()) {
      ++st.leaves;
    } else {
      ++st.derived;
      st.resolutions += n.sources.size() - 1;
      derived_width_sum += n.lits.size();
    }
  }
  st.avg_clause_width =
      st.derived == 0 ? 0.0
                      : static_cast<double>(derived_width_sum) /
                            static_cast<double>(st.derived);
  return st;
}

ProofDag extract_proof(const Formula& f, trace::TraceReader& reader) {
  ProofDag dag;
  dag.num_original = reader.num_original();
  DagBuilder builder(dag);
  IdLimitReader counted(reader);
  const checker::CheckResult result = checker::check_depth_first(
      f, counted, {.collect_core = false, .observer = &builder});
  if (!result.ok) throw ProofError(result.error);
  dag.root_id = dag.nodes.back().id = counted.id_limit();
  return dag;
}

}  // namespace satproof::proof
