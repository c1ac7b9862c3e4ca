#include "src/checker/drup.hpp"

#include <algorithm>
#include <istream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/checker/resolution.hpp"
#include "src/obs/trace.hpp"
#include "src/util/arena.hpp"
#include "src/util/line_scanner.hpp"

namespace satproof::checker {

namespace {

/// Hash of a canonical clause, for deletion lookup by content.
std::size_t clause_hash(const SortedClause& c) {
  std::size_t h = 0x9e3779b97f4a7c15ULL;
  for (const Lit lit : c) {
    h ^= lit.code() + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

/// Propagation engine with clause deletion: watched literals over live
/// clauses, a persistent top-level prefix rebuilt lazily after deletions,
/// and per-check rollback.
class DrupEngine {
 public:
  explicit DrupEngine(Var num_vars)
      : assign_(num_vars, LBool::Undef), watches_(2 * num_vars) {}

  void add_clause(const SortedClause& lits) {
    const std::uint32_t index = static_cast<std::uint32_t>(clauses_.size());
    // Clauses live in the arena; deleted clauses release their block, so a
    // proof with interleaved additions and deletions recycles space.
    const util::ClauseArena::Ref ref = arena_.put(lits);
    clauses_.push_back({ref, true});
    by_hash_.emplace(clause_hash(lits), index);
    const std::span<Lit> stored = arena_.mutable_view(ref);
    if (stored.empty()) {
      has_empty_ = true;
      return;
    }
    if (stored.size() == 1) {
      units_.push_back(index);
      if (!prefix_dirty_) settle_clause(index);
      return;
    }
    // Watch two non-false literals where possible; a clause that is unit
    // (or conflicting) under the persistent prefix is settled into the
    // prefix instead, so the two-watch invariant holds for every live
    // multi-literal clause. (After a prefix rebuild all assignments reset,
    // so any watch positions become valid again.)
    if (!prefix_dirty_) {
      std::size_t non_false = 0;
      for (std::size_t i = 0; i < stored.size() && non_false < 2; ++i) {
        if (value(stored[i]) != LBool::False) {
          std::swap(stored[non_false], stored[i]);
          ++non_false;
        }
      }
    }
    watches_[(~stored[0]).code()].push_back(index);
    watches_[(~stored[1]).code()].push_back(index);
    if (!prefix_dirty_) settle_clause(index);
  }

  /// Deletes one live clause with exactly these literals (as a set;
  /// `lits` canonical); returns false if none exists.
  bool delete_clause(const SortedClause& lits) {
    const auto [lo, hi] = by_hash_.equal_range(clause_hash(lits));
    for (auto it = lo; it != hi; ++it) {
      Clause& c = clauses_[it->second];
      // The engine reorders literals while propagating; compare as sets.
      if (c.live && canonicalize(arena_.view(c.ref)) == lits) {
        c.live = false;
        // Dead clauses are never read again (every access is guarded by
        // `live`), so the block can back a future addition.
        arena_.release(c.ref);
        by_hash_.erase(it);
        // Top-level implications may have depended on this clause.
        prefix_dirty_ = true;
        return true;
      }
    }
    return false;
  }

  /// RUP check of `lits` against the current live database.
  [[nodiscard]] bool rup_check(const SortedClause& lits,
                               std::uint64_t& propagations) {
    if (prefix_dirty_) rebuild_prefix(propagations);
    if (has_conflict_ || has_empty_) return true;
    bool conflict = false;
    for (const Lit lit : lits) {
      if (!enqueue(~lit)) {
        conflict = true;
        break;
      }
    }
    if (!conflict) conflict = propagate(propagations);
    while (trail_.size() > persistent_size_) {
      assign_[trail_.back().var()] = LBool::Undef;
      trail_.pop_back();
    }
    qhead_ = persistent_size_;
    return conflict;
  }

 private:
  struct Clause {
    util::ClauseArena::Ref ref;
    bool live;
  };

  [[nodiscard]] LBool value(Lit p) const {
    const LBool v = assign_[p.var()];
    if (v == LBool::Undef) return LBool::Undef;
    return p.negated() ? ~v : v;
  }

  bool enqueue(Lit p) {
    const LBool v = value(p);
    if (v == LBool::False) return false;
    if (v == LBool::True) return true;
    assign_[p.var()] = p.negated() ? LBool::False : LBool::True;
    trail_.push_back(p);
    return true;
  }

  /// Extends the persistent prefix with the effects of a new clause.
  void settle_clause(std::uint32_t index) {
    const std::span<const Lit> lits = arena_.view(clauses_[index].ref);
    if (lits.empty()) return;
    // Unit under the prefix?
    Lit unassigned = Lit::invalid();
    std::size_t free_count = 0;
    for (const Lit lit : lits) {
      const LBool v = value(lit);
      if (v == LBool::True) return;  // satisfied: nothing to settle
      if (v == LBool::Undef) {
        unassigned = lit;
        ++free_count;
        if (free_count > 1) return;  // two free literals: watches handle it
      }
    }
    std::uint64_t sink = 0;
    if (free_count == 0) {
      has_conflict_ = true;
    } else if (!enqueue(unassigned) || propagate(sink)) {
      has_conflict_ = true;
    }
    persistent_size_ = trail_.size();
    qhead_ = persistent_size_;
  }

  /// Recomputes the persistent prefix from scratch (after deletions).
  void rebuild_prefix(std::uint64_t& propagations) {
    for (const Lit lit : trail_) assign_[lit.var()] = LBool::Undef;
    trail_.clear();
    qhead_ = 0;
    has_conflict_ = false;
    bool conflict = false;
    for (const std::uint32_t ui : units_) {
      if (clauses_[ui].live && !enqueue(arena_.view(clauses_[ui].ref)[0])) {
        conflict = true;
        break;
      }
    }
    if (!conflict) conflict = propagate(propagations);
    has_conflict_ = conflict;
    persistent_size_ = trail_.size();
    qhead_ = persistent_size_;
    prefix_dirty_ = false;
  }

  bool propagate(std::uint64_t& propagations) {
    while (qhead_ < trail_.size()) {
      const Lit p = trail_[qhead_++];
      ++propagations;
      auto& ws = watches_[p.code()];
      std::size_t i = 0, j = 0;
      while (i < ws.size()) {
        const std::uint32_t ci = ws[i];
        Clause& entry = clauses_[ci];
        if (!entry.live) {
          ++i;  // drop the stale watcher
          continue;
        }
        const std::span<Lit> c = arena_.mutable_view(entry.ref);
        const Lit false_lit = ~p;
        if (c[0] == false_lit) std::swap(c[0], c[1]);
        ++i;
        if (value(c[0]) == LBool::True) {
          ws[j++] = ci;
          continue;
        }
        bool moved = false;
        for (std::size_t k = 2; k < c.size(); ++k) {
          if (value(c[k]) != LBool::False) {
            std::swap(c[1], c[k]);
            watches_[(~c[1]).code()].push_back(ci);
            moved = true;
            break;
          }
        }
        if (moved) continue;
        ws[j++] = ci;
        if (!enqueue(c[0])) {
          while (i < ws.size()) ws[j++] = ws[i++];
          ws.resize(j);
          return true;
        }
      }
      ws.resize(j);
    }
    return false;
  }

  std::vector<LBool> assign_;
  std::vector<std::vector<std::uint32_t>> watches_;
  util::ClauseArena arena_;
  std::vector<Clause> clauses_;
  std::vector<std::uint32_t> units_;
  std::unordered_multimap<std::size_t, std::uint32_t> by_hash_;
  std::vector<Lit> trail_;
  std::size_t qhead_ = 0;
  std::size_t persistent_size_ = 0;
  bool prefix_dirty_ = false;
  bool has_conflict_ = false;
  bool has_empty_ = false;
};

}  // namespace

DrupProof read_drup(std::istream& proof, Var num_vars) {
  DrupProof out;
  util::LineScanner scanner(proof);
  std::string_view text;
  std::vector<Lit> raw;
  while (scanner.next(text)) {
    if (text.empty() || text[0] == 'c') continue;
    util::TokenCursor ls(text);
    DrupStep step;
    util::TokenCursor after_first = ls;
    if (after_first.next_word() == "d") {
      step.deletion = true;
      ls = after_first;
    }
    std::int64_t d = 0;
    bool terminated = false;
    std::uint64_t undeclared = 0;  // first variable beyond num_vars, if any
    raw.clear();
    while (ls.next(d)) {
      if (d == 0) {
        terminated = true;
        break;
      }
      const std::uint64_t v = util::magnitude(d);
      if (v > num_vars) {
        if (undeclared == 0) undeclared = v;
        continue;
      }
      raw.push_back(Lit::from_dimacs(d));
    }
    if (!terminated) {
      out.error = "DRUP line not terminated by 0: '" + std::string(text) + "'";
      return out;
    }
    if (undeclared != 0) {
      if (!step.deletion) {
        out.error = "DRUP added clause uses undeclared variable " +
                    std::to_string(undeclared) + " (the formula has " +
                    std::to_string(num_vars) + "): '" + std::string(text) +
                    "'";
        return out;
      }
      // No clause in the database mentions the variable, so this
      // deletion fails when replay reaches it.
      step.absent = true;
    } else {
      step.lits = canonicalize(raw);
    }
    out.steps.push_back(std::move(step));
  }
  return out;
}

DrupCheckResult check_drup(const Formula& f, std::istream& proof) {
  DrupCheckResult result;

  // Read the whole proof first; the engine is sized from the formula
  // alone, since every added clause stays within its variables.
  obs::Span parse_span_holder("parse");
  DrupProof parsed = read_drup(proof, f.num_vars());
  parse_span_holder.finish();
  if (!parsed.error.empty()) {
    result.error = std::move(parsed.error);
    return result;
  }

  DrupEngine engine(f.num_vars());
  {
    obs::Span span("index");
    for (ClauseId id = 0; id < f.num_clauses(); ++id) {
      const SortedClause canon = canonicalize(f.clause(id));
      if (!is_tautology(canon)) engine.add_clause(canon);
    }
  }

  obs::Span replay_span("replay");
  for (const DrupStep& line : parsed.steps) {
    if (line.deletion) {
      if (line.absent || !engine.delete_clause(line.lits)) {
        result.error = "deletion of a clause not in the database";
        return result;
      }
      ++result.deletions;
      continue;
    }
    if (!engine.rup_check(line.lits, result.propagations)) {
      result.error = "added clause is not RUP at its position in the proof";
      return result;
    }
    ++result.clauses_checked;
    if (line.lits.empty()) {
      result.ok = true;  // empty clause verified: UNSAT proven
      return result;
    }
    engine.add_clause(line.lits);
  }
  result.error = "proof ended without deriving the empty clause";
  return result;
}

}  // namespace satproof::checker
