#include "src/checker/rup_engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "src/checker/common.hpp"

namespace satproof::checker {

namespace {

void check_room(std::uint32_t clauses) {
  if (clauses == RupProof::kMaxClauses) {
    throw std::length_error("RUP replay: more than " +
                            std::to_string(RupProof::kMaxClauses) +
                            " clauses");
  }
}

/// Unit-propagation engine for reverse unit propagation (RUP) checks.
///
/// Clauses are numbered in the order they are added, from 0, and deleted by
/// number. Every watcher carries a blocker literal, so a watcher whose
/// blocker is true is skipped without touching the clause; binary clauses
/// are watched inline (the blocker is the other literal) and never touched
/// at all. Values live in one array indexed by literal code. A deleted
/// clause is unwatched before the next propagation, so propagation only
/// ever meets live clauses: each deletion since the last check is
/// unwatched in its two lists, or, when those lists hold more watchers than
/// the whole database, one sweep over every list drops them all.
///
/// Literals implied at the top level accumulate on a persistent trail
/// prefix; each check assumes the negated clause on top of it, propagates
/// and rolls back. A deletion may retract top-level implications, so it
/// marks the prefix stale, and the next check rebuilds it from the live
/// unit clauses.
///
/// The technique follows the usual watched-literal propagation of CDCL
/// solvers, but the engine shares no code with the solver it checks.
class RupEngine {
 public:
  explicit RupEngine(Var num_vars);

  /// Adds a clause as the next clause number. `lits` must be
  /// duplicate-free, over variables below `num_vars`.
  void add_clause(std::span<const Lit> lits);

  /// Removes live clause `number` from the database.
  void delete_clause(std::uint32_t number);

  /// True when assuming the negation of `lits` propagates to a conflict
  /// with the live database. Adds the propagations it performs.
  [[nodiscard]] bool rup_check(std::span<const Lit> lits,
                               std::uint64_t& propagations);

 private:
  /// One watch-list entry: the clause number shifted left once, with the
  /// low bit set for a binary clause, and a literal of the clause whose
  /// truth satisfies it.
  struct Watch {
    std::uint32_t tagged = 0;
    Lit blocker;
  };
  struct Clause {
    std::size_t offset = 0;  ///< into lits_
    std::uint32_t size = 0;
    bool live = true;
  };

  [[nodiscard]] std::int8_t value(Lit p) const { return values_[p.code()]; }
  void assign(Lit p);
  /// Assigns `p` unless it is already true; false when `p` is false.
  bool enqueue(Lit p);
  void watch(std::uint32_t number, Lit watched, Lit blocker, bool binary);
  void unwatch(std::uint32_t number, Lit watched);
  /// Removes the watchers of every clause deleted since the last call.
  void flush_deletions();
  /// Extends the persistent prefix with the effect of clause `number`.
  void settle_clause(std::uint32_t number);
  void rebuild_prefix(std::uint64_t& propagations);
  /// Propagates the trail from qhead_; true on a conflict.
  bool propagate(std::uint64_t& propagations);
  void roll_back(std::size_t size);

  std::vector<std::int8_t> values_;  ///< by Lit::code(): 1 true, -1 false
  std::vector<std::vector<Watch>> watches_;  ///< visited when the key is set
  std::vector<Lit> lits_;
  std::vector<Clause> clauses_;
  std::vector<std::uint32_t> units_;  ///< numbers of unit clauses
  std::size_t watched_ = 0;           ///< live clauses of two or more literals
  std::vector<std::uint32_t> unwatched_;  ///< deleted, still watched
  std::size_t unwatch_cost_ = 0;  ///< watchers in their lists at deletion
  std::vector<Lit> trail_;
  std::size_t qhead_ = 0;
  std::size_t persistent_size_ = 0;  ///< trail prefix that never rolls back
  bool prefix_dirty_ = false;        ///< a deletion may have retracted it
  bool has_conflict_ = false;        ///< the prefix itself conflicts
  bool has_empty_ = false;           ///< an empty clause was added
};

RupEngine::RupEngine(Var num_vars)
    : values_(2 * static_cast<std::size_t>(num_vars), 0),
      watches_(2 * static_cast<std::size_t>(num_vars)) {}

void RupEngine::assign(Lit p) {
  values_[p.code()] = 1;
  values_[(~p).code()] = -1;
  trail_.push_back(p);
}

bool RupEngine::enqueue(Lit p) {
  const std::int8_t v = value(p);
  if (v == 0) assign(p);
  return v >= 0;
}

void RupEngine::watch(std::uint32_t number, Lit watched, Lit blocker,
                      bool binary) {
  watches_[(~watched).code()].push_back(
      {number << 1 | static_cast<std::uint32_t>(binary), blocker});
}

void RupEngine::unwatch(std::uint32_t number, Lit watched) {
  std::vector<Watch>& ws = watches_[(~watched).code()];
  const auto it = std::find_if(ws.begin(), ws.end(), [number](Watch w) {
    return w.tagged >> 1 == number;
  });
  *it = ws.back();
  ws.pop_back();
}

void RupEngine::add_clause(std::span<const Lit> lits) {
  const auto number = static_cast<std::uint32_t>(clauses_.size());
  clauses_.push_back(
      {lits_.size(), static_cast<std::uint32_t>(lits.size()), true});
  lits_.insert(lits_.end(), lits.begin(), lits.end());
  Lit* const c = lits_.data() + clauses_.back().offset;
  const bool settle = !prefix_dirty_ && !has_conflict_;
  switch (lits.size()) {
    case 0:
      has_empty_ = true;
      return;
    case 1:
      units_.push_back(number);
      break;
    case 2:
      ++watched_;
      watch(number, c[0], c[1], true);
      watch(number, c[1], c[0], true);
      break;
    default:
      // Watch two non-false literals where there are two, so the watch
      // invariant holds under the prefix; a clause that is unit or
      // conflicting under it is settled into the prefix below.
      if (settle) {
        std::size_t non_false = 0;
        for (std::size_t i = 0; i < lits.size() && non_false < 2; ++i) {
          if (value(c[i]) >= 0) std::swap(c[non_false++], c[i]);
        }
      }
      ++watched_;
      watch(number, c[0], c[1], false);
      watch(number, c[1], c[0], false);
      break;
  }
  if (settle) settle_clause(number);
}

void RupEngine::delete_clause(std::uint32_t number) {
  Clause& clause = clauses_[number];
  clause.live = false;
  if (clause.size >= 2) {
    const Lit* c = lits_.data() + clause.offset;
    unwatch_cost_ += watches_[(~c[0]).code()].size() +
                     watches_[(~c[1]).code()].size();
    unwatched_.push_back(number);
    --watched_;
  }
  // Top-level implications may have depended on this clause.
  prefix_dirty_ = true;
}

void RupEngine::flush_deletions() {
  if (unwatch_cost_ < 2 * watched_ + watches_.size()) {
    for (const std::uint32_t number : unwatched_) {
      const Lit* c = lits_.data() + clauses_[number].offset;
      unwatch(number, c[0]);
      unwatch(number, c[1]);
    }
  } else {
    for (std::vector<Watch>& ws : watches_) {
      std::erase_if(ws, [this](Watch w) {
        return !clauses_[w.tagged >> 1].live;
      });
    }
  }
  unwatched_.clear();
  unwatch_cost_ = 0;
}

bool RupEngine::rup_check(std::span<const Lit> lits,
                          std::uint64_t& propagations) {
  if (prefix_dirty_) {
    flush_deletions();
    rebuild_prefix(propagations);
  }
  if (has_conflict_ || has_empty_) return true;
  bool conflict = false;
  for (const Lit lit : lits) {
    if (!enqueue(~lit)) {
      conflict = true;
      break;
    }
  }
  if (!conflict) conflict = propagate(propagations);
  roll_back(persistent_size_);
  return conflict;
}

void RupEngine::roll_back(std::size_t size) {
  while (trail_.size() > size) {
    const Lit p = trail_.back();
    values_[p.code()] = 0;
    values_[(~p).code()] = 0;
    trail_.pop_back();
  }
  qhead_ = size;
}

void RupEngine::settle_clause(std::uint32_t number) {
  const Clause& clause = clauses_[number];
  const Lit* c = lits_.data() + clause.offset;
  Lit unassigned = Lit::invalid();
  std::size_t free_count = 0;
  for (std::uint32_t i = 0; i < clause.size; ++i) {
    const std::int8_t v = value(c[i]);
    if (v > 0) return;  // satisfied: nothing to settle
    if (v == 0) {
      unassigned = c[i];
      if (++free_count > 1) return;  // two free literals: watches handle it
    }
  }
  std::uint64_t sink = 0;
  if (free_count == 0) {
    has_conflict_ = true;
  } else {
    assign(unassigned);
    if (propagate(sink)) has_conflict_ = true;
  }
  persistent_size_ = trail_.size();
  qhead_ = persistent_size_;
}

void RupEngine::rebuild_prefix(std::uint64_t& propagations) {
  roll_back(0);
  has_conflict_ = false;
  bool conflict = false;
  for (const std::uint32_t number : units_) {
    const Clause& unit = clauses_[number];
    if (unit.live && !enqueue(lits_[unit.offset])) {
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

bool RupEngine::propagate(std::uint64_t& propagations) {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    const Lit false_lit = ~p;
    ++propagations;
    std::vector<Watch>& ws = watches_[p.code()];
    Watch* i = ws.data();
    Watch* j = i;
    Watch* const end = i + ws.size();
    bool conflict = false;
    while (i != end) {
      const Watch w = *i++;
      if (value(w.blocker) > 0) {
        *j++ = w;
        continue;
      }
      if (w.tagged & 1) {
        // Binary clause: the blocker is the other literal.
        *j++ = w;
        if (value(w.blocker) < 0) {
          conflict = true;
          break;
        }
        assign(w.blocker);
        continue;
      }
      const Clause& clause = clauses_[w.tagged >> 1];
      Lit* const c = lits_.data() + clause.offset;
      if (c[0] == false_lit) std::swap(c[0], c[1]);
      const Lit first = c[0];
      const Watch kept{w.tagged, first};
      if (first != w.blocker && value(first) > 0) {
        *j++ = kept;
        continue;
      }
      bool moved = false;
      for (std::uint32_t k = 2; k < clause.size; ++k) {
        if (value(c[k]) >= 0) {
          c[1] = c[k];
          c[k] = false_lit;
          watches_[(~c[1]).code()].push_back(kept);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      *j++ = kept;
      if (value(first) < 0) {
        conflict = true;
        break;
      }
      assign(first);
    }
    while (i != end) *j++ = *i++;
    ws.resize(static_cast<std::size_t>(j - ws.data()));
    if (conflict) return true;
  }
  return false;
}

/// One worker's share of replay_rup: replays `proof` on a fresh engine and
/// checks the lemmas of every `workers`-th block from block `worker`, until
/// it reaches the earliest failure any worker has found.
void replay_share(const RupProof& proof, unsigned worker, unsigned workers,
                  std::vector<std::uint64_t>& propagations,
                  std::atomic<std::size_t>& first_failure) {
  RupEngine engine(proof.num_vars);
  for (std::uint32_t n = 0; n < proof.num_original; ++n) {
    engine.add_clause(proof.clause(n));
  }
  std::size_t lemma = 0;
  for (std::size_t s = 0; s < proof.steps.size() && s < first_failure; ++s) {
    const RupStep step = proof.steps[s];
    if (step.deletion) {
      engine.delete_clause(step.clause);
      continue;
    }
    const std::span<const Lit> lits = proof.clause(step.clause);
    if ((lemma / kRupBlock) % workers == worker &&
        !engine.rup_check(lits, propagations[lemma])) {
      std::size_t seen = first_failure;
      while (s < seen && !first_failure.compare_exchange_weak(seen, s)) {
      }
      return;
    }
    engine.add_clause(lits);
    ++lemma;
  }
}

}  // namespace

std::uint32_t RupProof::add(std::span<const Lit> clause_lits) {
  check_room(num_clauses());
  lits.insert(lits.end(), clause_lits.begin(), clause_lits.end());
  starts.push_back(lits.size());
  return num_clauses() - 1;
}

void RupProof::add_originals(const Formula& f) {
  const CanonicalOriginals originals(f);
  for (ClauseId id = 0; id < originals.num_clauses(); ++id) {
    if (!originals.tautology(id)) add(originals.clause(id));
  }
  num_original = num_clauses();
}

RupReplayResult replay_rup(const RupProof& proof, unsigned jobs) {
  // The step of each lemma, by lemma index.
  std::vector<std::size_t> lemma_steps;
  for (std::size_t s = 0; s < proof.steps.size(); ++s) {
    if (!proof.steps[s].deletion) lemma_steps.push_back(s);
  }
  const std::size_t blocks = (lemma_steps.size() + kRupBlock - 1) / kRupBlock;
  if (jobs == 0) jobs = std::thread::hardware_concurrency();
  const auto workers = static_cast<unsigned>(
      std::max<std::size_t>(1, std::min<std::size_t>(jobs, blocks)));

  // Each lemma's propagations, written by the one worker that checks it.
  std::vector<std::uint64_t> propagations(lemma_steps.size(), 0);
  std::atomic<std::size_t> first_failure{proof.steps.size()};
  std::vector<std::exception_ptr> errors(workers);
  const auto run = [&](unsigned worker) {
    try {
      replay_share(proof, worker, workers, propagations, first_failure);
    } catch (...) {
      errors[worker] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;
    for (unsigned w = 1; w < workers; ++w) threads.emplace_back(run, w);
    run(0);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  RupReplayResult result;
  result.failed_step = first_failure;
  for (std::size_t k = 0;
       k < lemma_steps.size() && lemma_steps[k] <= result.failed_step; ++k) {
    result.propagations += propagations[k];
  }
  return result;
}

}  // namespace satproof::checker
