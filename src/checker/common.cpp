#include "src/checker/common.hpp"

#include <algorithm>
#include <limits>
#include <new>

#include "src/obs/trace.hpp"

namespace satproof::checker {

namespace {

std::string lit_str(Lit lit) { return to_string(lit); }

/// True when `lits` is strictly ascending: sorted, no literal repeated.
bool is_canonical(ClauseView lits) {
  for (std::size_t i = 1; i < lits.size(); ++i) {
    if (!(lits[i - 1] < lits[i])) return false;
  }
  return true;
}

}  // namespace

void DerivationIndex::reset(ClauseId num_original) {
  num_original_ = num_original;
  pool_.clear();
  committed_ = 0;
  entries_.clear();
  max_id_ = 0;
  num_records_ = 0;
}

void DerivationIndex::reserve_sources(std::uint64_t n) {
  // commit() rejects a pool beyond 2^32 sources, so reserve no more.
  n = std::min<std::uint64_t>(n, std::numeric_limits<std::uint32_t>::max());
  try {
    pool_.reserve(pool_.size() + static_cast<std::size_t>(n));
  } catch (const std::bad_alloc&) {
    // No address space for the bound: the pool grows as it fills.
  }
}

std::size_t DerivationIndex::commit(const trace::Record& rec) {
  const ClauseId id = rec.id;
  const std::size_t num_sources = pool_.size() - committed_;
  if (id < num_original_) {
    throw CheckFailure("derivation " + std::to_string(id) +
                       " reuses an original clause ID");
  }
  if (num_sources < 2) {
    throw CheckFailure("derivation " + std::to_string(id) +
                       " has fewer than two resolve sources");
  }
  for (const ClauseId s : rec.sources) {
    if (s >= id) {
      throw CheckFailure(
          "derivation " + std::to_string(id) + " references source " +
          std::to_string(s) +
          " that does not precede it; derivations must be acyclic");
    }
  }
  const ClauseId ord = id - num_original_;
  if (ord < entries_.size() && entries_[ord].len != 0) {
    throw CheckFailure("clause " + std::to_string(id) + " is derived twice");
  }
  if (pool_.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw CheckFailure("trace too large: derivation source pool exceeds 2^32");
  }
  // Sources precede `id` (checked above, or by the reader), so this bounds
  // them too and their narrowing in the pool was lossless.
  if (id > std::numeric_limits<std::uint32_t>::max()) {
    throw CheckFailure("trace too large: clause IDs exceed 2^32");
  }
  if (ord >= entries_.size()) entries_.resize(ord + 1);
  entries_[ord] = {static_cast<std::uint32_t>(committed_),
                   static_cast<std::uint32_t>(num_sources)};
  committed_ = pool_.size();
  max_id_ = std::max(max_id_, id);
  ++num_records_;
  return num_sources;
}

void DerivationIndex::throw_never_derived(ClauseId id) {
  throw CheckFailure("clause " + std::to_string(id) +
                     " is referenced but never derived in the trace");
}

std::string derivation_failure(ClauseId id, ClauseId source, std::size_t step,
                               ResolveStatus status) {
  return "derivation of clause " + std::to_string(id) +
         ": resolving with source " + std::to_string(source) + " (step " +
         std::to_string(step) + ") failed: " +
         (status == ResolveStatus::NoClash ? "no clashing variable"
                                           : "more than one clashing variable");
}

std::string tautological_original(ClauseId id) {
  return "original clause " + std::to_string(id) +
         " is tautological and cannot be a resolution source";
}

CanonicalOriginals::CanonicalOriginals(const Formula& f) : formula_(&f) {
  const std::size_t n = f.num_clauses();
  for (ClauseId id = 0; id < n; ++id) {
    ClauseView lits = formula_->clause(id);
    if (formula_ == &f && !is_canonical(lits)) {
      // The clauses before `id` read the same in the copy.
      copy_ = f;
      copy_.canonicalize();
      formula_ = &copy_;
      lits = copy_.clause(id);
    }
    if (is_tautology(lits)) {
      if (tautologies_.empty()) tautologies_.assign(n, 0);
      tautologies_[id] = 1;
    }
  }
}

ClauseId require_final_conflict(const std::optional<ClauseId>& final_id) {
  if (!final_id.has_value()) {
    throw CheckFailure(
        "trace has no final conflicting clause; it does not claim "
        "unsatisfiability");
  }
  return *final_id;
}

void check_derivation_record(const trace::Record& rec, std::size_t num_sources,
                             ClauseId num_original,
                             std::optional<ClauseId>& last_id) {
  if (rec.id < num_original) {
    throw CheckFailure("derivation " + std::to_string(rec.id) +
                       " reuses an original clause ID");
  }
  if (last_id.has_value() && rec.id <= *last_id) {
    throw CheckFailure("derivation IDs must be strictly increasing (clause " +
                       std::to_string(rec.id) + " after " +
                       std::to_string(*last_id) + ")");
  }
  if (num_sources < 2) {
    throw CheckFailure("derivation " + std::to_string(rec.id) +
                       " has fewer than two resolve sources");
  }
  for (const ClauseId s : rec.sources) {
    if (s >= rec.id) {
      throw CheckFailure("derivation " + std::to_string(rec.id) +
                         " references source " + std::to_string(s) +
                         " that does not precede it");
    }
  }
  last_id = rec.id;
}

ClauseId load_full_trace(trace::TraceReader& reader,
                         DerivationIndex& derivations, Level0Table& level0,
                         util::MemTracker& mem, CheckStats& stats) {
  // Parsing and derivation-index construction share this streaming loop,
  // so one span covers both; backends add their own index/replay spans.
  // The reader decodes each source once, into its final pool slot.
  obs::Span span("parse");
  reader.rewind();
  if (const auto bytes = reader.remaining_bytes()) {
    derivations.reserve_sources(*bytes);
  }
  const TraceScan scan = scan_trace(
      reader, level0, &derivations.pool(), [&](const trace::Record& rec) {
        mem.add(derivation_record_bytes(derivations.commit(rec)));
        ++stats.total_derivations;
      });
  mem.add(scan.trail_records * 16);
  return require_final_conflict(scan.final_id);
}

Level0Table::Level0Table(Var num_vars) : entries_(num_vars) {}

void Level0Table::reset(Var num_vars) {
  entries_.assign(num_vars, Entry{});
  count_ = 0;
  num_assumed_ = 0;
}

CheckMemory::CheckMemory() : store_(lane(0).arena) {}

CheckMemory& CheckMemory::this_thread() {
  thread_local CheckMemory memory;
  return memory;
}

void CheckMemory::set_binary_tier(bool on) {
  binary_tier_ = on;
  for (Lane& l : lanes_) l.arena.set_binary_tier(on);
}

CheckMemory::Lane& CheckMemory::lane(std::size_t i) {
  while (lanes_.size() <= i) {
    lanes_.emplace_back().arena.set_binary_tier(binary_tier_);
  }
  Lane& l = lanes_[i];
  l.arena.reset();
  l.round.clear();
  l.stack.clear();
  return l;
}

std::span<std::atomic<const Lit*>> CheckMemory::slots(std::size_t n) {
  if (n > slots_capacity_) {
    slots_.reset();  // free the old table before mapping the larger one
    slots_ = std::make_unique<std::atomic<const Lit*>[]>(n);
    slots_capacity_ = n;
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      slots_[i].store(nullptr, std::memory_order_relaxed);
    }
  }
  return {slots_.get(), n};
}

ClauseStore& CheckMemory::store() {
  store_.reset();
  return store_;
}

CheckMemoryLease::CheckMemoryLease(CheckMemory* requested)
    : memory_(requested != nullptr ? requested : &CheckMemory::this_thread()) {
  if (memory_->in_use_.exchange(true, std::memory_order_acquire)) {
    private_ = std::make_unique<CheckMemory>();
    memory_ = private_.get();
    memory_->in_use_.store(true, std::memory_order_relaxed);
  }
}

CheckMemoryLease::~CheckMemoryLease() {
  if (private_ == nullptr) {
    memory_->in_use_.store(false, std::memory_order_release);
  }
}

void Level0Table::add(Var var, bool value, ClauseId antecedent) {
  if (var >= entries_.size()) {
    throw CheckFailure("level-0 record assigns variable x" +
                       std::to_string(var) + " beyond the declared range");
  }
  Entry& e = entries_[var];
  if (e.assigned) {
    throw CheckFailure("level-0 record assigns variable x" +
                       std::to_string(var) + " twice");
  }
  e.assigned = true;
  e.value = value;
  e.antecedent = antecedent;
  e.order = static_cast<std::uint32_t>(count_++);
}

void Level0Table::add_assumption(Var var, bool value) {
  if (var >= entries_.size()) {
    throw CheckFailure("assumption record names variable x" +
                       std::to_string(var) + " beyond the declared range");
  }
  Entry& e = entries_[var];
  if (e.assumed) {
    throw CheckFailure("variable x" + std::to_string(var) + " assumed twice");
  }
  e.assumed = true;
  e.assumed_value = value;
  ++num_assumed_;
  if (!e.assigned) {
    // An assumption decision: it occupies a trail slot of its own.
    e.assigned = true;
    e.value = value;
    e.antecedent = kInvalidClauseId;
    e.order = static_cast<std::uint32_t>(count_++);
  }
}

LBool Level0Table::lit_value(Lit lit) const {
  const Var v = lit.var();
  if (v >= entries_.size() || !entries_[v].assigned) return LBool::Undef;
  const bool val = lit.negated() ? !entries_[v].value : entries_[v].value;
  return val ? LBool::True : LBool::False;
}

namespace {

// The antecedent check behind both check_antecedent overloads. Returns ""
// when `clause` is a valid antecedent of `var`, else the diagnostic minus
// the clause's name, so a caller builds that name only on failure.
std::string antecedent_defect(ClauseView clause, Var var,
                              const Level0Table& table) {
  // The antecedent must be unit under the prefix of the level-0 trail that
  // precedes `var`'s assignment, with `var`'s literal as the unit literal.
  bool found_unit = false;
  for (const Lit lit : clause) {
    if (lit.var() == var) {
      if (table.lit_value(lit) != LBool::True) {
        return " contains " + lit_str(lit) +
               ", the opposite phase of the implied literal of x" +
               std::to_string(var);
      }
      found_unit = true;
      continue;
    }
    const LBool v = table.lit_value(lit);
    if (v == LBool::Undef) {
      return " is not a valid antecedent of x" + std::to_string(var) +
             ": literal " + lit_str(lit) + " is unassigned at level 0";
    }
    if (v == LBool::True) {
      return " is not a valid antecedent of x" + std::to_string(var) +
             ": literal " + lit_str(lit) +
             " is true, so the clause never became unit";
    }
    if (table.order(lit.var()) >= table.order(var)) {
      return " is not a valid antecedent of x" + std::to_string(var) +
             ": literal " + lit_str(lit) + " was assigned after x" +
             std::to_string(var);
    }
  }
  if (!found_unit) {
    return " does not contain variable x" + std::to_string(var) +
           ", so it cannot be its antecedent";
  }
  return {};
}

}  // namespace

void check_antecedent(ClauseView clause, Var var, const Level0Table& table,
                      const std::string& what) {
  const std::string defect = antecedent_defect(clause, var, table);
  if (!defect.empty()) throw CheckFailure(what + defect);
}

void check_antecedent(ClauseView clause, Var var, const Level0Table& table,
                      ClauseId ante_id) {
  const std::string defect = antecedent_defect(clause, var, table);
  if (!defect.empty()) {
    throw CheckFailure("antecedent clause " + std::to_string(ante_id) +
                       " of x" + std::to_string(var) + defect);
  }
}

SortedClause derive_final_clause(ClauseId final_id, const ClauseFetcher& fetch,
                                 const Level0Table& table, CheckStats& stats,
                                 std::vector<ClauseId>* used_antecedents,
                                 const PendingHook* before_fetch) {
  if (used_antecedents != nullptr) used_antecedents->clear();
  ChainResolver chain;
  chain.reserve_vars(table.num_vars());
  // The resolvable literals of the running clause (false, and implied:
  // assumption decisions have no antecedent and stay in the clause), as a
  // max-heap of order << 32 | literal code. Its top is the reverse
  // chronological choice of Fig. 2's choose_literal. Trail orders are
  // distinct per variable and only the false phase is pushed, so the top
  // is unique. Each literal is pushed once, when it enters the clause, and
  // leaves only as the chosen pivot, so the whole derivation costs
  // O(|trail| log |trail| + total antecedent length).
  std::vector<std::uint64_t> heap;
  const auto enter = [&](Lit lit) {
    const Var v = lit.var();
    if (table.lit_value(lit) != LBool::False || !table.implied(v)) return;
    heap.push_back(static_cast<std::uint64_t>(table.order(v)) << 32 |
                   lit.code());
    std::push_heap(heap.begin(), heap.end());
  };
  {
    const ClauseView final_clause = fetch(final_id);
    for (const Lit lit : final_clause) {
      const LBool v = table.lit_value(lit);
      if (v == LBool::Undef) {
        throw CheckFailure("final clause " + std::to_string(final_id) +
                           ": literal " + lit_str(lit) +
                           " has no final-trail assignment");
      }
      // A true literal is only legitimate over an assumed variable (the
      // failed assumption was implied to its opposite value).
      if (v == LBool::True && !table.is_assumed(lit.var())) {
        throw CheckFailure(
            "final clause " + std::to_string(final_id) +
            " is not conflicting: literal " + lit_str(lit) +
            " is true and its variable is not an assumption");
      }
    }
    chain.start(final_clause);
    for (const Lit lit : chain.lits()) enter(lit);
  }

  std::size_t steps = 0;
  const std::size_t max_steps = table.size() + 1;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    const Lit chosen =
        Lit::from_code(static_cast<std::uint32_t>(heap.back()));
    heap.pop_back();
    if (++steps > max_steps) {
      throw CheckFailure(
          "final-clause derivation did not terminate within the trail "
          "length; the antecedent chain is circular");
    }
    const Var v = chosen.var();
    const ClauseId ante_id = table.antecedent(v);
    if (before_fetch != nullptr) (*before_fetch)(ante_id, heap);
    const ClauseView ante = fetch(ante_id);
    check_antecedent(ante, v, table, ante_id);
    if (used_antecedents != nullptr) used_antecedents->push_back(ante_id);
    // step() swaps the last literal into the pivot's slot and appends the
    // literals it adds, so the new ones are exactly the tail from
    // size - 1 on.
    const std::size_t kept = chain.lits().size() - 1;
    const ResolveResult r = chain.step(ante);
    ++stats.resolutions;
    if (r.status != ResolveStatus::Ok) {
      throw CheckFailure(
          "resolution of the running clause with antecedent " +
          std::to_string(ante_id) + " failed: " +
          (r.status == ResolveStatus::NoClash ? "no clashing variable"
                                              : "more than one clashing variable"));
    }
    for (const Lit lit : chain.lits().subspan(kept)) {
      if (!table.assigned(lit.var())) {
        throw CheckFailure("literal " + lit_str(lit) +
                           " in the derivation has no final-trail assignment");
      }
      enter(lit);
    }
  }

  SortedClause remaining = chain.take();
  std::sort(remaining.begin(), remaining.end());
  if (!table.has_assumptions() && !remaining.empty()) {
    throw CheckFailure(
        "final-clause derivation stopped at a non-empty clause with no "
        "assumptions recorded; literal " + lit_str(remaining.front()) +
        " cannot be resolved away");
  }
  return remaining;
}

void validate_assumption_clause(const SortedClause& clause,
                                const Level0Table& table) {
  for (const Lit lit : clause) {
    const Var v = lit.var();
    if (!table.is_assumed(v)) {
      throw CheckFailure("derived final clause contains " + lit_str(lit) +
                         ", whose variable is not a recorded assumption");
    }
    // The literal must be the *negation* of the assumed literal.
    if (lit != Lit(v, table.assumed_value(v))) {
      throw CheckFailure("derived final clause contains " + lit_str(lit) +
                         ", which has the same polarity as the assumption "
                         "on x" + std::to_string(v) +
                         " and therefore refutes nothing");
    }
  }
}

void check_header(const Formula& f, Var trace_vars, ClauseId trace_original) {
  if (trace_original != f.num_clauses()) {
    throw CheckFailure(
        "trace header declares " + std::to_string(trace_original) +
        " original clauses but the formula has " +
        std::to_string(f.num_clauses()) +
        "; the solver and checker disagree on clause IDs");
  }
  if (trace_vars < f.num_vars()) {
    throw CheckFailure("trace header declares fewer variables (" +
                       std::to_string(trace_vars) + ") than the formula (" +
                       std::to_string(f.num_vars()) + ")");
  }
}

}  // namespace satproof::checker
