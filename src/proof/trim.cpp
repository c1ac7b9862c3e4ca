#include "src/proof/trim.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

namespace satproof::proof {

TrimStats trim_trace(trace::TraceReader& in, trace::TraceWriter& out) {
  // Pass 1: structure only (ID + source lists, no literals).
  std::vector<ClauseId> ids;
  std::vector<std::size_t> src_offset{0};
  std::vector<ClauseId> src_pool;
  std::optional<ClauseId> final_id;
  struct TrailRec {
    Var var;
    bool value;
    ClauseId antecedent;  // kInvalidClauseId for assumptions
  };
  std::vector<TrailRec> trail;

  in.rewind();
  trace::Record rec;
  bool ended = false;
  while (!ended && in.next(rec)) {
    switch (rec.kind) {
      case trace::RecordKind::Derivation:
        if (!ids.empty() && rec.id <= ids.back()) {
          throw std::runtime_error(
              "trim_trace: derivation IDs must be strictly increasing");
        }
        ids.push_back(rec.id);
        src_pool.insert(src_pool.end(), rec.sources.begin(),
                        rec.sources.end());
        src_offset.push_back(src_pool.size());
        break;
      case trace::RecordKind::FinalConflict:
        final_id = rec.id;
        break;
      case trace::RecordKind::Level0:
        trail.push_back({rec.var, rec.value, rec.antecedent});
        break;
      case trace::RecordKind::Assumption:
        trail.push_back({rec.var, rec.value, kInvalidClauseId});
        break;
      case trace::RecordKind::End:
        ended = true;
        break;
    }
  }
  if (!ended) throw std::runtime_error("trim_trace: trace truncated");
  if (!final_id.has_value()) {
    throw std::runtime_error(
        "trim_trace: trace has no final conflicting clause");
  }

  const auto index_of = [&ids](ClauseId id) -> std::size_t {
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    if (it == ids.end() || *it != id) return ~std::size_t{0};
    return static_cast<std::size_t>(it - ids.begin());
  };

  // Backward reachability from the final conflict and trail antecedents.
  std::vector<bool> reachable(ids.size(), false);
  const auto seed = [&](ClauseId id) {
    const std::size_t idx = index_of(id);
    if (idx != ~std::size_t{0}) reachable[idx] = true;
  };
  seed(*final_id);
  for (const TrailRec& t : trail) {
    if (t.antecedent != kInvalidClauseId) seed(t.antecedent);
  }
  for (std::size_t i = ids.size(); i-- > 0;) {
    if (!reachable[i]) continue;
    for (std::size_t k = src_offset[i]; k < src_offset[i + 1]; ++k) {
      seed(src_pool[k]);
    }
  }

  // Re-emit.
  TrimStats stats;
  stats.derivations_before = ids.size();
  out.begin(in.num_vars(), in.num_original());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!reachable[i]) continue;
    ++stats.derivations_after;
    out.derivation(ids[i],
                   std::span<const ClauseId>(
                       src_pool.data() + src_offset[i],
                       src_offset[i + 1] - src_offset[i]));
  }
  out.final_conflict(*final_id);
  for (const TrailRec& t : trail) {
    if (t.antecedent == kInvalidClauseId) {
      out.assumption(t.var, t.value);
    } else {
      out.level0(t.var, t.value, t.antecedent);
    }
  }
  out.end();
  return stats;
}

}  // namespace satproof::proof
