// Fixtures shared by several test binaries: the ladder trace (the shape
// of tools/gen_bigtrace), formulas respelled with the same clause sets,
// a trace copier and a span counter for Chrome traces.

#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/cnf/formula.hpp"
#include "src/trace/memory.hpp"

namespace satproof::test {

/// A trace of independent ladders joined at the end, built the way
/// tools/gen_bigtrace builds its traces.
struct LadderTrace {
  Formula formula;
  trace::MemoryTrace trace;
  std::vector<std::vector<ClauseId>> steps;  ///< derivation IDs per ladder
};

/// How ladder_trace ends and what it corrupts.
struct LadderOptions {
  /// Derivation IDs that cross a far-away implication first, which does
  /// not clash.
  std::set<ClauseId> corrupt;
  /// End on the trail instead of the join derivation: z is false by (~z),
  /// each top rung true by its ladder's last unit, and the join original
  /// is the final conflict. The final derivation then fetches ladder 15's
  /// cone first, then ladder 14's, and so on down to ladder 0's and (~z).
  bool trail_end = false;
  /// Midway, a derivation that no clause uses and whose sources do not
  /// clash.
  bool unreached_corruption = false;
  /// Seeds the walkers (xorshift; must not be 0).
  std::uint64_t seed = 1;
};

/// 16 ladders of 64 rungs. Ladder w has the unit (v_0) and the implications
/// up (~v_i | v_i+1) and down (~v_i+1 | v_i). A seeded walker per ladder
/// steps up or down 4 rungs at a time, each step deriving the unit of the
/// rung it lands on from its current unit and the 4 implications it
/// crossed. At the end every walker climbs to the top rung, the join
/// (~top_0 | ... | ~top_15 | z) resolves with each top unit into (z), and
/// (~z) is the final conflict. Every derivation is reachable and no two
/// ladders share a clause below the join.
inline LadderTrace ladder_trace(const LadderOptions& options = {}) {
  constexpr std::uint64_t kLadders = 16, kRungs = 64, kChain = 4;
  constexpr std::uint64_t kSteps = 48 * kLadders;
  constexpr std::uint64_t kPerLadder = 1 + 2 * (kRungs - 1);
  const auto var = [](std::uint64_t w, std::uint64_t i) {
    return static_cast<Var>(w * kRungs + i);
  };
  const auto up = [](std::uint64_t w, std::uint64_t i) -> ClauseId {
    return w * kPerLadder + 1 + i;
  };
  const auto down = [](std::uint64_t w, std::uint64_t i) -> ClauseId {
    return w * kPerLadder + 1 + (kRungs - 1) + i;
  };
  const Var z = var(kLadders, 0);
  LadderTrace out;
  out.formula = Formula(z + 1);
  std::vector<Lit> join;
  for (std::uint64_t w = 0; w < kLadders; ++w) {
    out.formula.add_clause({Lit::pos(var(w, 0))});
    for (std::uint64_t i = 0; i + 1 < kRungs; ++i) {
      out.formula.add_clause({Lit::neg(var(w, i)), Lit::pos(var(w, i + 1))});
    }
    for (std::uint64_t i = 0; i + 1 < kRungs; ++i) {
      out.formula.add_clause({Lit::neg(var(w, i + 1)), Lit::pos(var(w, i))});
    }
    join.push_back(Lit::neg(var(w, kRungs - 1)));
  }
  join.push_back(Lit::pos(z));
  const ClauseId id_join = out.formula.add_clause(join);
  const ClauseId id_not_z = out.formula.add_clause({Lit::neg(z)});

  trace::MemoryTraceWriter w;
  w.begin(out.formula.num_vars(), out.formula.num_clauses());
  std::vector<std::uint64_t> pos(kLadders, 0);
  std::vector<ClauseId> unit(kLadders);
  for (std::uint64_t l = 0; l < kLadders; ++l) unit[l] = l * kPerLadder;
  out.steps.resize(kLadders);
  ClauseId next_id = out.formula.num_clauses();
  const auto step = [&](std::uint64_t l, bool climb, std::uint64_t rungs) {
    std::vector<ClauseId> sources{unit[l]};
    for (std::uint64_t s = 0; s < rungs; ++s) {
      sources.push_back(climb ? up(l, pos[l]) : down(l, pos[l] - 1));
      pos[l] = climb ? pos[l] + 1 : pos[l] - 1;
    }
    if (options.corrupt.count(next_id) != 0) {
      sources[1] = up(l, (pos[l] + kRungs / 2) % (kRungs - 1));
    }
    w.derivation(next_id, sources);
    out.steps[l].push_back(next_id);
    unit[l] = next_id++;
  };
  std::uint64_t rng = options.seed;
  const auto next_random = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (std::uint64_t n = 0; n < kSteps; ++n) {
    if (options.unreached_corruption && n == kSteps / 2) {
      const std::vector<ClauseId> no_clash{up(0, 0), up(0, kRungs / 2)};
      w.derivation(next_id++, no_clash);
    }
    const std::uint64_t l = next_random() % kLadders;
    bool climb = (next_random() & 1) != 0;
    if (pos[l] + kChain > kRungs - 1) climb = false;
    if (pos[l] < kChain) climb = true;
    step(l, climb, kChain);
  }
  for (std::uint64_t l = 0; l < kLadders; ++l) {
    while (pos[l] < kRungs - 1) {
      step(l, true, std::min(kChain, kRungs - 1 - pos[l]));
    }
  }
  if (options.trail_end) {
    w.final_conflict(id_join);
    w.level0(z, false, id_not_z);
    for (std::uint64_t l = 0; l < kLadders; ++l) {
      w.level0(var(l, kRungs - 1), true, unit[l]);
    }
  } else {
    std::vector<ClauseId> sources{id_join};
    sources.insert(sources.end(), unit.begin(), unit.end());
    w.derivation(next_id, sources);
    w.final_conflict(id_not_z);
    w.level0(z, true, next_id);
  }
  w.end();
  out.trace = w.take();
  return out;
}

/// `f` with every clause reversed and its new first literal repeated at
/// the end: the same clause set, but no clause of two or more literals is
/// code-ascending, so a checker reads the originals from a canonicalized
/// copy.
inline Formula respelled(const Formula& f) {
  Formula out(f.num_vars());
  std::vector<Lit> lits;
  for (ClauseId id = 0; id < f.num_clauses(); ++id) {
    const std::span<const Lit> raw = f.clause(id);
    lits.assign(raw.rbegin(), raw.rend());
    if (!lits.empty()) lits.push_back(lits.front());
    out.add_clause(lits);
  }
  return out;
}

/// `f` with the literals of every clause in a seeded random order.
inline Formula shuffled(const Formula& f, std::uint64_t seed) {
  Formula out(f.num_vars());
  std::vector<Lit> lits;
  std::uint64_t rng = seed * 0x9e3779b97f4a7c15ull + 1;
  for (ClauseId id = 0; id < f.num_clauses(); ++id) {
    const std::span<const Lit> raw = f.clause(id);
    lits.assign(raw.begin(), raw.end());
    for (std::size_t i = lits.size(); i > 1; --i) {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      std::swap(lits[i - 1], lits[rng % i]);
    }
    out.add_clause(lits);
  }
  return out;
}

/// Writes `t` through `w`, record for record.
inline void write_trace(const trace::MemoryTrace& t, trace::TraceWriter& w) {
  w.begin(t.num_vars, t.num_original);
  for (const auto& d : t.derivations) w.derivation(d.id, d.sources);
  if (t.has_final) w.final_conflict(t.final_conflict);
  for (const auto& l : t.level0) {
    if (l.antecedent == kInvalidClauseId) {
      w.assumption(l.var, l.value);
    } else {
      w.level0(l.var, l.value, l.antecedent);
    }
  }
  if (t.finished) w.end();
}

/// Occurrences of spans called `name` in a Chrome trace.
inline std::size_t count_spans(const std::string& json, const std::string& name) {
  const std::string needle = "\"name\":\"" + name + "\"";
  std::size_t n = 0;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

}  // namespace satproof::test
