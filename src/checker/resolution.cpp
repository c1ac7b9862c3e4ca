#include "src/checker/resolution.hpp"

#include <algorithm>

namespace satproof::checker {

SortedClause canonicalize(std::span<const Lit> lits) {
  SortedClause out(lits.begin(), lits.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

ResolveResult resolve(const SortedClause& a, const SortedClause& b,
                      SortedClause& out) {
  out.clear();
  ResolveResult res;

  // First find the clashing variable(s). Literal codes sort by variable
  // first, so opposite phases of one variable are adjacent across the two
  // sorted sequences and a single merge pass finds every clash.
  std::size_t i = 0, j = 0;
  Var pivot = kInvalidVar;
  while (i < a.size() && j < b.size()) {
    const Lit la = a[i], lb = b[j];
    if (la.var() == lb.var()) {
      if (la != lb) {
        if (pivot != kInvalidVar && pivot != la.var()) {
          res.status = ResolveStatus::MultiClash;
          return res;
        }
        pivot = la.var();
      }
      ++i;
      ++j;
    } else if (la < lb) {
      ++i;
    } else {
      ++j;
    }
  }
  if (pivot == kInvalidVar) {
    res.status = ResolveStatus::NoClash;
    return res;
  }
  // Each side must contain the pivot in exactly one phase; a clause holding
  // both phases is tautological and resolving "through" it would produce a
  // clause stronger than what is actually implied.
  for (const SortedClause* side : {&a, &b}) {
    int count = 0;
    for (const Lit lit : *side) count += lit.var() == pivot ? 1 : 0;
    if (count != 1) {
      res.status = ResolveStatus::MultiClash;
      return res;
    }
  }

  // Merge, dropping both phases of the pivot.
  out.reserve(a.size() + b.size() - 2);
  i = 0;
  j = 0;
  while (i < a.size() || j < b.size()) {
    Lit next;
    if (j >= b.size() || (i < a.size() && a[i] < b[j])) {
      next = a[i++];
    } else if (i >= a.size() || b[j] < a[i]) {
      next = b[j++];
    } else {  // equal literals
      next = a[i++];
      ++j;
    }
    if (next.var() == pivot) continue;
    out.push_back(next);
  }
  res.status = ResolveStatus::Ok;
  res.pivot = pivot;
  return res;
}

// ChainResolver's methods are defined inline in resolution.hpp: the replay
// hot loop makes one step() call per trace resolution, and keeping the
// kernel visible to its callers removes the per-call overhead that rivals
// the per-literal work on short-chain traces.

}  // namespace satproof::checker
