#include "src/solver/solver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/obs/trace.hpp"

namespace satproof::solver {

namespace {

/// The Luby "reluctant doubling" sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8...
/// luby(i) for 0-based i.
std::uint64_t luby(std::uint64_t i) {
  std::uint64_t size = 1, seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i %= size;
  }
  return std::uint64_t{1} << seq;
}

}  // namespace

Solver::Solver(SolverOptions options)
    : options_(options), rng_(options.random_seed) {}

void Solver::add_formula(const Formula& f) {
  while (num_vars() < f.num_vars()) new_var();
  for (ClauseId id = 0; id < f.num_clauses(); ++id) {
    add_clause(f.clause(id));
  }
}

Var Solver::new_var() {
  const Var v = static_cast<Var>(assign_.size());
  assign_.push_back(LBool::Undef);
  lit_value_.push_back(LBool::Undef);
  lit_value_.push_back(LBool::Undef);
  level_.push_back(0);
  antecedent_.push_back(kInvalidSlot);
  trail_pos_.push_back(0);
  saved_phase_.push_back(options_.default_phase);
  seen_.push_back(false);
  in_clause_.push_back(false);
  watches_.emplace_back();
  watches_.emplace_back();
  order_.grow_to(v + 1);
  return v;
}

ClauseId Solver::add_clause(std::span<const Lit> lits) {
  if (external_ids_) {
    throw std::logic_error(
        "Solver: use add_clause_with_id after begin_external_ids");
  }
  const ClauseId id = next_id_;
  add_clause_internal(lits, id);
  num_original_ = next_id_;
  return id;
}

void Solver::begin_external_ids(ClauseId num_original) {
  if (next_id_ != 0 || solved_) {
    throw std::logic_error(
        "Solver: begin_external_ids requires a fresh solver");
  }
  external_ids_ = true;
  num_original_ = num_original;
}

void Solver::add_clause_with_id(std::span<const Lit> lits, ClauseId id) {
  if (!external_ids_) {
    throw std::logic_error(
        "Solver: add_clause_with_id requires begin_external_ids");
  }
  if (id < next_id_) {
    throw std::logic_error(
        "Solver: explicit clause IDs must be strictly increasing");
  }
  next_id_ = id;  // add_clause_internal advances past it
  add_clause_internal(lits, id);
}

void Solver::reserve_clause_ids(ClauseId next_id) {
  if (!external_ids_) {
    throw std::logic_error(
        "Solver: reserve_clause_ids requires begin_external_ids");
  }
  next_id_ = std::max(next_id_, next_id);
}

void Solver::add_clause_internal(std::span<const Lit> lits, ClauseId id) {
  if (solved_) throw std::logic_error("Solver: add_clause after solve()");
  for (const Lit lit : lits) {
    while (lit.var() >= num_vars()) new_var();
  }
  next_id_ = id + 1;

  // Canonicalize the stored copy: sorted, duplicate-free. The trace refers
  // to clauses by ID and the checker treats clauses as literal sets, so
  // this is semantics-preserving.
  std::vector<Lit> canon(lits.begin(), lits.end());
  std::sort(canon.begin(), canon.end());
  canon.erase(std::unique(canon.begin(), canon.end()), canon.end());
  bool tautology = false;
  for (std::size_t i = 0; i + 1 < canon.size(); ++i) {
    if (canon[i].var() == canon[i + 1].var()) {
      tautology = true;
      break;
    }
  }

  const ClauseSlot slot = db_.alloc(canon, id, /*learned=*/false);
  if (tautology) {
    // A tautological clause is permanently satisfied: it never propagates,
    // never conflicts, and can never serve as an antecedent. Keep it in the
    // database (it owns an ID) but do not watch it.
    return;
  }
  if (canon.empty()) {
    if (empty_clause_id_ == kInvalidClauseId) empty_clause_id_ = id;
  } else if (canon.size() == 1) {
    pending_units_.push_back(slot);
  } else {
    attach(slot);
  }
}

void Solver::attach(ClauseSlot slot) {
  const ClauseRef ref = db_[slot].ref;
  const std::span<const Lit> c = db_.lits_at(ref);
  watches_[(~c[0]).code()].push_back({ref, c[1]});
  watches_[(~c[1]).code()].push_back({ref, c[0]});
}

void Solver::detach(ClauseSlot slot) {
  const ClauseRef ref = db_[slot].ref;
  const std::span<const Lit> c = db_.lits_at(ref);
  for (const Lit w : {c[0], c[1]}) {
    auto& list = watches_[(~w).code()];
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].ref == ref) {
        list[i] = list.back();
        list.pop_back();
        break;
      }
    }
  }
}

void Solver::assign(Lit p, ClauseSlot antecedent) {
  const Var v = p.var();
  // A repeated assignment would silently corrupt the trail and, with it,
  // the emitted trace; fail loudly instead (cost: one predictable branch).
  if (assign_[v] != LBool::Undef) {
    throw std::logic_error("Solver::assign: variable x" + std::to_string(v) +
                           " is already assigned");
  }
  assign_[v] = p.negated() ? LBool::False : LBool::True;
  lit_value_[p.code()] = LBool::True;
  lit_value_[(~p).code()] = LBool::False;
  level_[v] = decision_level();
  antecedent_[v] = antecedent;
  trail_pos_[v] = static_cast<std::uint32_t>(trail_.size());
  trail_.push_back(p);
}

void Solver::backtrack(std::uint32_t target_level) {
  if (decision_level() <= target_level) return;
  const std::size_t bound = trail_lim_[target_level];
  for (std::size_t i = trail_.size(); i-- > bound;) {
    const Lit p = trail_[i];
    const Var v = p.var();
    saved_phase_[v] = assign_[v] == LBool::True;
    assign_[v] = LBool::Undef;
    lit_value_[p.code()] = LBool::Undef;
    lit_value_[(~p).code()] = LBool::Undef;
    antecedent_[v] = kInvalidSlot;
    order_.insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(target_level);
  qhead_ = trail_.size();
}

ClauseSlot Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    // A moved watch goes to another list (its new literal is not false;
    // ~p is), so this list's storage stays put while it is compacted in
    // place.
    std::vector<Watcher>& ws = watches_[p.code()];
    const Lit false_lit = ~p;
    Watcher* i = ws.data();
    Watcher* j = i;
    Watcher* const end = i + ws.size();
    while (i != end) {
      const Watcher w = *i;
      if (value(w.blocker) == LBool::True) {
        *j++ = *i++;
        continue;
      }
      const std::span<Lit> c = db_.lits_at(w.ref);
      if (c[0] == false_lit) std::swap(c[0], c[1]);
      ++i;
      const Lit first = c[0];
      if (first != w.blocker && value(first) == LBool::True) {
        *j++ = {w.ref, first};
        continue;
      }
      bool moved = false;
      for (std::size_t k = 2; k < c.size(); ++k) {
        if (value(c[k]) != LBool::False) {
          std::swap(c[1], c[k]);
          watches_[(~c[1]).code()].push_back({w.ref, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Clause is unit or conflicting under the current assignment.
      *j++ = {w.ref, first};
      if (value(first) == LBool::False) {
        j = std::copy(i, end, j);
        ws.resize(static_cast<std::size_t>(j - ws.data()));
        qhead_ = trail_.size();
        return db_.slot_at(w.ref);
      }
      assign(first, db_.slot_at(w.ref));
    }
    ws.resize(static_cast<std::size_t>(j - ws.data()));
  }
  return kInvalidSlot;
}

Solver::DecideOutcome Solver::decide() {
  // Establish assumption levels first (one assumption per decision level).
  while (decision_level() < assumptions_.size()) {
    const Lit p = assumptions_[decision_level()];
    if (value(p) == LBool::True) {
      // Already implied: dedicate an empty pseudo-level so levels keep
      // lining up with assumption indices.
      trail_lim_.push_back(trail_.size());
      continue;
    }
    if (value(p) == LBool::False) return DecideOutcome::AssumptionFailed;
    ++stats_.decisions;
    trail_lim_.push_back(trail_.size());
    stats_.max_decision_level =
        std::max<std::uint64_t>(stats_.max_decision_level, decision_level());
    assign(p, kInvalidSlot);
    return DecideOutcome::Decided;
  }

  Var v = kInvalidVar;
  if (options_.random_decision_freq > 0.0 &&
      rng_.next_bool(options_.random_decision_freq)) {
    const Var cand = static_cast<Var>(rng_.next_below(num_vars()));
    if (assign_[cand] == LBool::Undef) v = cand;
  }
  while (v == kInvalidVar) {
    if (order_.empty()) return DecideOutcome::AllAssigned;
    const Var cand = order_.pop_max();
    if (assign_[cand] == LBool::Undef) v = cand;
  }
  ++stats_.decisions;
  trail_lim_.push_back(trail_.size());
  stats_.max_decision_level =
      std::max<std::uint64_t>(stats_.max_decision_level, decision_level());
  assign(Lit(v, !saved_phase_[v]), kInvalidSlot);
  return DecideOutcome::Decided;
}

void Solver::compute_failed_assumptions(Lit p) {
  // Which assumptions does the implication of ~p rest on? Mark the
  // antecedent cone of var(p) down the trail; decisions hit along the way
  // are exactly the responsible assumptions (level-0 implications carry no
  // assumption dependency and are skipped).
  failed_assumptions_.clear();
  failed_assumptions_.push_back(p);
  std::vector<Var> to_clear;
  seen_[p.var()] = true;
  to_clear.push_back(p.var());
  for (std::size_t i = trail_.size(); i-- > 0;) {
    const Var v = trail_[i].var();
    if (!seen_[v]) continue;
    if (antecedent_[v] == kInvalidSlot) {
      if (v != p.var()) failed_assumptions_.push_back(trail_[i]);
      continue;
    }
    for (const Lit lit : db_.lits(antecedent_[v])) {
      const Var u = lit.var();
      if (u == v || level_[u] == 0 || seen_[u]) continue;
      seen_[u] = true;
      to_clear.push_back(u);
    }
  }
  for (const Var v : to_clear) seen_[v] = false;
}

void Solver::handle_failed_assumption(Lit p) {
  compute_failed_assumptions(p);
  if (trace_ == nullptr) return;
  // The proof of "formula refutes this assumption subset" starts from the
  // antecedent that implied ~p; the checker resolves its implied literals
  // away and is left with negated assumptions only.
  const ClauseSlot ante = antecedent_[p.var()];
  trace_->final_conflict(db_[ante].id);
  for (const Lit q : trail_) {
    const Var v = q.var();
    if (antecedent_[v] != kInvalidSlot) {
      trace_->level0(v, !q.negated(), db_[antecedent_[v]].id);
    } else {
      trace_->assumption(v, !q.negated());
    }
  }
  // The failed assumption itself: its variable is implied (to the opposite
  // value) on the trail, so only the assumed polarity is recorded here.
  trace_->assumption(p.var(), !p.negated());
  trace_->end();
}

void Solver::bump_clause(ClauseSlot slot) {
  DbClause& c = db_[slot];
  c.activity += static_cast<float>(clause_inc_);
  if (c.activity > 1e20f) {
    for (const ClauseSlot s : db_.live_slots()) {
      db_[s].activity *= 1e-20f;
    }
    clause_inc_ *= 1e-20;
  }
}

void Solver::analyze(ClauseSlot conflict) {
  AnalysisResult& res = analysis_;
  res.learned.clear();
  res.sources.clear();
  const bool want_sources = trace_ != nullptr;
  const bool eliminate0 = options_.eliminate_level0_lits;
  std::vector<Lit>& others = others_;
  std::vector<Lit>& level0 = level0_;
  std::vector<Var>& to_clear = to_clear_;
  others.clear();
  level0.clear();
  to_clear.clear();
  std::uint64_t resolutions = 0;

  if (want_sources) res.sources.push_back(db_[conflict].id);

  // Phase 1 (Fig. 2 of the paper): resolve the conflicting clause with the
  // antecedents of its current-level variables in reverse chronological
  // order until exactly one current-level literal remains (the 1UIP).
  std::uint32_t path_count = 0;
  Lit p = Lit::invalid();
  std::size_t idx = trail_.size();
  ClauseSlot cur = conflict;
  while (true) {
    if (db_[cur].learned) bump_clause(cur);
    for (const Lit lit : db_.lits(cur)) {
      const Var v = lit.var();
      if (p != Lit::invalid() && v == p.var()) continue;  // the pivot
      if (seen_[v]) continue;
      seen_[v] = true;
      to_clear.push_back(v);
      order_.bump(v);
      if (level_[v] == decision_level()) {
        ++path_count;
      } else if (level_[v] > 0 || !eliminate0) {
        others.push_back(lit);
      } else {
        level0.push_back(lit);
      }
    }
    do {
      --idx;
    } while (!seen_[trail_[idx].var()]);
    p = trail_[idx];
    seen_[p.var()] = false;
    --path_count;
    if (path_count == 0) break;
    cur = antecedent_[p.var()];
    ++resolutions;
    if (want_sources) res.sources.push_back(db_[cur].id);
  }

  // Phase 2: resolve away level-0 literals with their antecedents, again in
  // reverse chronological order so every step is a valid single-pivot
  // resolution. These extra steps go into the trace too, so the checker can
  // replay the learned clause exactly (SolverOptions::eliminate_level0_lits).
  if (eliminate0 && !level0.empty()) {
    // A max-heap on trail position (std::priority_queue's algorithm, on a
    // reused buffer).
    auto& queue = level0_heap_;
    const auto push = [&queue](std::uint32_t pos, Lit l) {
      queue.emplace_back(pos, l);
      std::push_heap(queue.begin(), queue.end());
    };
    queue.clear();
    for (const Lit lit : level0) push(trail_pos_[lit.var()], lit);
    while (!queue.empty()) {
      std::pop_heap(queue.begin(), queue.end());
      const Lit lit = queue.back().second;
      queue.pop_back();
      const Var v = lit.var();
      const ClauseSlot ante = antecedent_[v];
      ++resolutions;
      ++stats_.level0_resolutions;
      if (want_sources) res.sources.push_back(db_[ante].id);
      for (const Lit l2 : db_.lits(ante)) {
        const Var v2 = l2.var();
        if (v2 == v || seen_[v2]) continue;
        seen_[v2] = true;
        to_clear.push_back(v2);
        push(trail_pos_[v2], l2);
      }
    }
  }

  for (const Var v : to_clear) seen_[v] = false;

  // Phase 3 (optional): conflict-clause minimization. A literal whose
  // antecedent's remaining literals all occur in the clause can be resolved
  // away without adding anything — one extra recorded resolution per
  // removal keeps the trace replayable. Removals are checked against the
  // *live* literal set (a removal can only disable later removals, never
  // enable them), so the recorded source order replays exactly.
  if (options_.minimize_learned && !others.empty()) {
    for (const Lit lit : others) in_clause_[lit.var()] = true;
    std::vector<Lit>& kept = kept_;
    kept.clear();
    for (const Lit lit : others) {
      const Var v = lit.var();
      const ClauseSlot ante = antecedent_[v];
      bool redundant = ante != kInvalidSlot;
      if (redundant) {
        for (const Lit l2 : db_.lits(ante)) {
          if (l2.var() != v && !in_clause_[l2.var()]) {
            redundant = false;
            break;
          }
        }
      }
      if (redundant) {
        in_clause_[v] = false;
        ++resolutions;
        ++stats_.minimized_literals;
        if (want_sources) res.sources.push_back(db_[ante].id);
      } else {
        kept.push_back(lit);
      }
    }
    for (const Lit lit : kept) in_clause_[lit.var()] = false;
    others.swap(kept);
  }

  // Assemble the asserting clause: the flipped UIP literal first, then the
  // lower-level literals with the deepest one in the watch position 1.
  res.learned.push_back(~p);
  std::uint32_t back_level = 0;
  std::size_t deepest = 0;
  for (std::size_t i = 0; i < others.size(); ++i) {
    res.learned.push_back(others[i]);
    const std::uint32_t lvl = level_[others[i].var()];
    if (lvl > back_level) {
      back_level = lvl;
      deepest = i + 1;
    }
  }
  // deepest == 0 means every other literal sits at level 0 (possible only
  // when level-0 elimination is off): nothing outranks position 1, and
  // swapping would displace the asserting literal from position 0.
  if (res.learned.size() > 1 && deepest != 0) {
    std::swap(res.learned[1], res.learned[deepest]);
  }
  res.backtrack_level = back_level;
  res.reuse_conflict = resolutions == 0;
}

bool Solver::clause_locked(ClauseSlot slot) const {
  for (const Lit lit : db_.lits(slot)) {
    if (value(lit) == LBool::True && antecedent_[lit.var()] == slot) {
      return true;
    }
  }
  return false;
}

void Solver::reduce_learned_db() {
  obs::Span span("reduce_db");
  std::vector<ClauseSlot> learned;
  for (const ClauseSlot s : db_.live_slots()) {
    if (db_[s].learned) learned.push_back(s);
  }
  std::sort(learned.begin(), learned.end(), [this](ClauseSlot a, ClauseSlot b) {
    return db_[a].activity < db_[b].activity;
  });
  const std::size_t target = learned.size() / 2;
  std::size_t removed = 0;
  for (const ClauseSlot s : learned) {
    if (removed >= target) break;
    // The paper (Section 2.1): clauses that are antecedents of currently
    // assigned variables must be kept, as they may appear in a future
    // resolution; binary clauses are cheap and valuable, keep them too.
    if (db_.lits(s).size() <= 2 || clause_locked(s)) continue;
    detach(s);
    if (drup_ != nullptr) drup_->delete_clause(db_.lits(s));
    db_.free(s);
    ++removed;
    ++stats_.deleted_clauses;
  }
  if (db_.needs_compaction()) compact_arena();
}

void Solver::compact_arena() {
  // Compaction moves clauses but keeps their slots: park each watcher on
  // its clause's slot, compact, then point it at the slot's new ref. The
  // lists are rewritten in place, so the watch order is unchanged.
  for (auto& list : watches_) {
    for (Watcher& w : list) w.ref = db_.slot_at(w.ref);
  }
  db_.compact();
  for (auto& list : watches_) {
    for (Watcher& w : list) w.ref = db_[w.ref].ref;
  }
}

void Solver::emit_unsat_trace(ClauseSlot conflict) {
  if (drup_ != nullptr) drup_->empty_clause();
  if (trace_ == nullptr) return;
  // Section 3.1 of the paper, items 2 and 3: record one final conflicting
  // clause, then every level-0 assignment with its antecedent, in
  // chronological order.
  trace_->final_conflict(db_[conflict].id);
  for (const Lit p : trail_) {
    trace_->level0(p.var(), !p.negated(), db_[antecedent_[p.var()]].id);
  }
  trace_->end();
}

SolveResult Solver::solve(std::span<const Lit> assumptions) {
  if (solved_) throw std::logic_error("Solver: solve() is single-shot");
  solved_ = true;
  obs::Span span("solve");

  assumptions_.assign(assumptions.begin(), assumptions.end());
  for (const Lit p : assumptions_) {
    if (p == Lit::invalid()) {
      throw std::invalid_argument("Solver: invalid assumption literal");
    }
    while (p.var() >= num_vars()) new_var();
  }
  {
    std::vector<bool> assumed_var(num_vars(), false);
    for (const Lit p : assumptions_) {
      if (assumed_var[p.var()]) {
        throw std::invalid_argument(
            "Solver: assumptions must be over distinct variables");
      }
      assumed_var[p.var()] = true;
    }
  }

  // In external-ID mode the trace header belongs to whoever assigned the
  // IDs (the preprocessor), and has been written already.
  if (trace_ != nullptr && !external_ids_) {
    trace_->begin(num_vars(), num_original_);
  }

  auto finish = [this](SolveResult r) {
    stats_.peak_clause_bytes = db_.mem().peak_bytes();
    return r;
  };

  // Preprocessing (Fig. 1 of the paper): assign unit clauses and run BCP at
  // decision level 0 before any branching.
  if (empty_clause_id_ != kInvalidClauseId) {
    if (trace_ != nullptr) {
      trace_->final_conflict(empty_clause_id_);
      trace_->end();
    }
    if (drup_ != nullptr) drup_->empty_clause();
    return finish(SolveResult::Unsatisfiable);
  }
  for (const ClauseSlot slot : pending_units_) {
    const Lit unit = db_.lits(slot)[0];
    if (value(unit) == LBool::False) {
      // The unit clause's only literal is false: the clause itself is the
      // conflicting clause at level 0.
      emit_unsat_trace(slot);
      return finish(SolveResult::Unsatisfiable);
    }
    if (value(unit) == LBool::Undef) assign(unit, slot);
  }
  {
    const ClauseSlot confl = propagate();
    if (confl != kInvalidSlot) {
      emit_unsat_trace(confl);
      return finish(SolveResult::Unsatisfiable);
    }
  }

  std::uint64_t max_learned = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(static_cast<double>(num_original_) *
                                 options_.learned_size_factor),
      4000);
  std::uint64_t restart_limit = options_.restart_first;
  std::uint64_t conflicts_since_restart = 0;

  while (true) {
    const ClauseSlot confl = propagate();
    if (confl != kInvalidSlot) {
      ++stats_.conflicts;
      ++conflicts_since_restart;
      if (decision_level() == 0) {
        emit_unsat_trace(confl);
        return finish(SolveResult::Unsatisfiable);
      }
      analyze(confl);
      const AnalysisResult& res = analysis_;
      backtrack(res.backtrack_level);
      ClauseSlot asserting_slot;
      if (res.reuse_conflict) {
        // The conflicting clause was already asserting: no resolution
        // happened, no clause is learned, and the conflicting clause itself
        // becomes the antecedent. Re-point its watches at the asserting
        // literal and the deepest remaining literal so the two-watch
        // invariant holds below the backtrack level.
        asserting_slot = confl;
        const std::span<Lit> c = db_.lits(confl);
        if (c.size() >= 2) {
          detach(confl);
          auto it = std::find(c.begin(), c.end(), res.learned[0]);
          std::iter_swap(c.begin(), it);
          std::size_t deepest = 1;
          for (std::size_t k = 2; k < c.size(); ++k) {
            if (level_[c[k].var()] > level_[c[deepest].var()]) {
              deepest = k;
            }
          }
          std::swap(c[1], c[deepest]);
          attach(confl);
        }
      } else {
        const ClauseId id = next_id_++;
        asserting_slot = db_.alloc(res.learned, id, /*learned=*/true);
        if (res.learned.size() >= 2) attach(asserting_slot);
        bump_clause(asserting_slot);
        ++stats_.learned_clauses;
        stats_.learned_literals += res.learned.size();
        if (trace_ != nullptr) trace_->derivation(id, res.sources);
        if (drup_ != nullptr) drup_->add_clause(res.learned);
      }
      assign(res.learned[0], asserting_slot);
      order_.decay(options_.var_decay);
      clause_inc_ /= options_.clause_decay;
      if (options_.conflict_budget != 0 &&
          stats_.conflicts >= options_.conflict_budget) {
        if (trace_ != nullptr) trace_->end();
        return finish(SolveResult::Unknown);
      }
      continue;
    }

    if (options_.enable_clause_deletion &&
        db_.num_learned() >= max_learned) {
      reduce_learned_db();
      max_learned = static_cast<std::uint64_t>(
          static_cast<double>(max_learned) * options_.learned_growth);
    }

    if (options_.enable_restarts &&
        conflicts_since_restart >= restart_limit) {
      conflicts_since_restart = 0;
      ++stats_.restarts;
      if (options_.restart_schedule ==
          SolverOptions::RestartSchedule::Geometric) {
        // Growing the restart period is what keeps the solver terminating
        // (paper, proof of Proposition 1).
        restart_limit = static_cast<std::uint64_t>(
            static_cast<double>(restart_limit) * options_.restart_inc);
      } else {
        restart_limit = options_.restart_first * luby(stats_.restarts);
      }
      backtrack(0);
      continue;
    }

    switch (decide()) {
      case DecideOutcome::Decided:
        break;
      case DecideOutcome::AllAssigned:
        // No free variable and no conflict: every clause is satisfied
        // (and every assumption holds — they were decided first).
        model_ = assign_;
        if (trace_ != nullptr) trace_->end();
        return finish(SolveResult::Satisfiable);
      case DecideOutcome::AssumptionFailed: {
        const Lit p = assumptions_[decision_level()];
        handle_failed_assumption(p);
        return finish(SolveResult::Unsatisfiable);
      }
    }
  }
}

}  // namespace satproof::solver
