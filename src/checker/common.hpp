#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/checker/resolution.hpp"
#include "src/cnf/formula.hpp"
#include "src/trace/events.hpp"
#include "src/util/arena.hpp"
#include "src/util/mem_tracker.hpp"

namespace satproof::checker {

/// Counters shared by both checker implementations; the raw material of the
/// paper's Table 2.
struct CheckStats {
  /// Derivation records in the trace (learned clauses the solver reported).
  std::uint64_t total_derivations = 0;
  /// Learned clauses whose literals were actually constructed. For the
  /// depth-first checker this is the "Num. Cls Built" column (19-90% of the
  /// total in the paper); the breadth-first checker always builds all.
  std::uint64_t clauses_built = 0;
  /// Individual resolution steps performed (including the final
  /// empty-clause derivation).
  std::uint64_t resolutions = 0;
  /// Peak accounted memory: clauses held plus, for the depth-first checker,
  /// the in-memory trace (Section 3.2: "the checker needs to read in the
  /// entire trace file into main memory").
  std::size_t peak_mem_bytes = 0;
  /// Distinct original clauses used by the proof (depth-first only); the
  /// size of the unsatisfiable core of Table 3.
  std::uint64_t core_original_clauses = 0;
  /// Clause-arena traffic: cumulative bytes handed out, cumulative bytes
  /// served from free lists instead of fresh space, and the high-water
  /// mark of live clause bytes. Deterministic for a given trace regardless
  /// of backend parallelism (the depth-first checker sums its lanes).
  std::size_t arena_allocated_bytes = 0;
  std::size_t arena_recycled_bytes = 0;
  std::size_t arena_peak_bytes = 0;
};

/// Outcome of a checking run.
struct CheckResult {
  /// True when the trace constitutes a valid resolution proof of
  /// unsatisfiability of the formula.
  bool ok = false;
  /// Diagnostic for the first failed check ("as much information as
  /// possible about the failure to help debug the solver", Section 3.2).
  std::string error;
  CheckStats stats;
  /// Depth-first with collect_core: sorted IDs of the original clauses that
  /// appear as leaves of the resolution proof — an unsatisfiable core.
  std::vector<ClauseId> core;
  /// For traces of UNSAT-under-assumptions runs: the validated derived
  /// clause, whose literals are all negations of assumed literals (the
  /// formula implies it, refuting that assumption subset). Empty for
  /// unconditional unsatisfiability proofs.
  std::vector<Lit> failed_assumption_clause;

  /// Convenience: true iff the check succeeded.
  explicit operator bool() const { return ok; }
};

/// Failure raised internally by checker components; converted into a
/// CheckResult with ok == false at the API boundary.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// ID-addressed clause storage shared by the replay backends: a
/// ClauseArena for the literal blocks plus a flat, ID-indexed ref table
/// (replacing the per-backend std::unordered_map<ClauseId, SortedClause>).
/// IDs are solver-assigned and dense (originals first, then one fresh ID
/// per learned clause), so a flat table is both smaller and faster than a
/// hash map: contains/view are two array loads, no hashing, no node
/// chasing.
class ClauseStore {
 public:
  /// Stores clauses in `arena`, which must outlive the store.
  explicit ClauseStore(util::ClauseArena& arena) : arena_(&arena) {}

  ClauseStore(const ClauseStore&) = delete;
  ClauseStore& operator=(const ClauseStore&) = delete;

  /// Forgets every clause, keeping the arena's chunks and the ref table's
  /// capacity (see util::ClauseArena::reset).
  void reset() {
    arena_->reset();
    refs_.clear();
  }

  [[nodiscard]] bool contains(ClauseId id) const {
    return id < refs_.size() && refs_[id] != util::ClauseArena::kNullRef;
  }

  /// View of the stored clause; `id` must be contains().
  [[nodiscard]] ClauseView view(ClauseId id) const {
    return arena_->view(refs_[id]);
  }

  /// Copies `lits` into the arena under `id` (which must not be stored).
  void put(ClauseId id, ClauseView lits) {
    if (id >= refs_.size()) {
      refs_.resize(id + 1, util::ClauseArena::kNullRef);
    }
    refs_[id] = arena_->put(lits);
  }

  /// Releases `id`'s block for reuse; `id` must be contains().
  void release(ClauseId id) {
    arena_->release(refs_[id]);
    refs_[id] = util::ClauseArena::kNullRef;
  }

  [[nodiscard]] const util::ClauseArena& arena() const { return *arena_; }

 private:
  util::ClauseArena* arena_;
  std::vector<util::ClauseArena::Ref> refs_;
};

/// Accounted footprint of one loaded derivation record: the source IDs in
/// the pool (stored narrowed to 32 bits — see DerivationIndex) plus the
/// per-record index entry. The depth-first checker accounts its loaded
/// trace with it, and the window checker measures its window budget in it.
[[nodiscard]] constexpr std::size_t derivation_record_bytes(
    std::size_t num_sources) {
  return num_sources * sizeof(std::uint32_t) + 8;
}

/// The derivation DAG of a trace for the whole-trace checker
/// (depth-first): source lists packed into one pool, indexed by a flat
/// ordinal-indexed table (ordinal = id - num_original). A reader decodes
/// each derivation's sources straight onto the end of the pool
/// (TraceReader::next_into), and commit() then validates the record, with
/// the same diagnostics the checkers have always produced, and indexes it.
///
/// The pool stores source IDs narrowed to 32 bits: the pool itself is
/// capped at 2^32 entries and every source precedes its consumer, so IDs
/// beyond 2^32 would blow the cap anyway — the trace is rejected as too
/// large first. Halving the per-source footprint matters because the
/// loaded trace rivals the memoized clauses for the depth-first checker's
/// peak (Section 3.2 reads the entire trace into main memory).
class DerivationIndex {
 public:
  explicit DerivationIndex(ClauseId num_original)
      : num_original_(num_original) {}

  /// Empties the index for a trace with `num_original` originals, keeping
  /// the pool's and the entries' capacity.
  void reset(ClauseId num_original);

  /// Reserves pool room for `n` more sources in one allocation. It
  /// reserves address space only: pages become resident as sources are
  /// written. A reservation the allocator refuses is skipped, and the
  /// pool grows as it fills instead.
  void reserve_sources(std::uint64_t n);

  /// The pool a reader appends each derivation's sources to.
  [[nodiscard]] std::vector<std::uint32_t>& pool() { return pool_; }

  /// Validates and indexes derivation `rec`, whose sources are the pool
  /// entries appended since the last commit (and, when not empty,
  /// rec.sources at full width; see TraceReader::next_into). Returns the
  /// number of sources. Throws CheckFailure on an original-ID reuse, fewer
  /// than two sources, a non-preceding source, a duplicate derivation, or
  /// a pool or ID beyond 32 bits.
  std::size_t commit(const trace::Record& rec);

  [[nodiscard]] bool contains(ClauseId id) const {
    if (id < num_original_) return false;
    const ClauseId ord = id - num_original_;
    return ord < entries_.size() && entries_[ord].len != 0;
  }

  /// Source list of `id` (32-bit IDs; they widen losslessly to ClauseId).
  /// Throws CheckFailure ("referenced but never derived") when absent.
  /// Inline: the replay loop calls this once per derivation (plan, fold,
  /// prefetch), so the lookup must reduce to two loads and a compare.
  [[nodiscard]] std::span<const std::uint32_t> sources_of(ClauseId id) const {
    if (!contains(id)) throw_never_derived(id);
    const Entry& e = entries_[id - num_original_];
    return {pool_.data() + e.begin, e.len};
  }

  /// Highest derived ID seen (0 when empty — check num_records() first).
  [[nodiscard]] ClauseId max_id() const { return max_id_; }
  [[nodiscard]] ClauseId num_original() const { return num_original_; }
  /// One past the highest clause ID a replay can store: the size of an
  /// ID-indexed table over originals and derivations.
  [[nodiscard]] std::size_t id_limit() const {
    return std::max<ClauseId>(num_original_,
                              num_records_ != 0 ? max_id_ + 1 : 0);
  }
  [[nodiscard]] std::uint64_t num_records() const { return num_records_; }

  /// Throws sources_of()'s CheckFailure for `id`.
  [[noreturn]] static void throw_never_derived(ClauseId id);

 private:
  struct Entry {
    std::uint32_t begin = 0;  ///< offset into pool_
    std::uint32_t len = 0;    ///< 0 = not derived (real records have >= 2)
  };

  ClauseId num_original_;
  std::vector<std::uint32_t> pool_;
  std::size_t committed_ = 0;   ///< pool_ entries of committed records
  std::vector<Entry> entries_;  ///< by ordinal
  ClauseId max_id_ = 0;
  std::uint64_t num_records_ = 0;
};

/// Diagnostic for a failed resolution step while replaying the derivation
/// of clause `id`: step `step` resolved against `source` with `status`.
[[nodiscard]] std::string derivation_failure(ClauseId id, ClauseId source,
                                             std::size_t step,
                                             ResolveStatus status);

[[nodiscard]] std::string tautological_original(ClauseId id);

/// A formula's original clauses in canonical form (sorted by code,
/// duplicate-free), the one way every replay backend and the RUP engine
/// read them. Built once per check, in one pass over the formula. When
/// every clause is already canonical (run_check canonicalizes the formula
/// it parses) the clauses are read in place; only a formula that is not
/// gets a private canonicalized copy, which, like the caller's formula, is
/// not counted in peak_mem_bytes. The same pass records which originals
/// are tautologies, one byte per clause and nothing when there are none,
/// so a fetch never scans a clause.
class CanonicalOriginals {
 public:
  explicit CanonicalOriginals(const Formula& f);

  // formula_ may point into this object.
  CanonicalOriginals(const CanonicalOriginals&) = delete;
  CanonicalOriginals& operator=(const CanonicalOriginals&) = delete;

  /// Original clause `id`, canonical; `id` must be below num_clauses().
  [[nodiscard]] ClauseView clause(ClauseId id) const {
    return formula_->clause(id);
  }

  /// True when original clause `id` has a variable in both phases.
  [[nodiscard]] bool tautology(ClauseId id) const {
    return !tautologies_.empty() && tautologies_[id] != 0;
  }

  /// Original clause `id` as a resolve source. Throws CheckFailure with
  /// tautological_original(id) when it is a tautology. Inline: BF and
  /// window call it once per original-clause fetch, millions of times on
  /// a long trace.
  [[nodiscard]] ClauseView source(ClauseId id) const {
    if (tautology(id)) [[unlikely]] {
      throw CheckFailure(tautological_original(id));
    }
    return clause(id);
  }

  [[nodiscard]] std::size_t num_clauses() const {
    return formula_->num_clauses();
  }

 private:
  Formula copy_;  ///< the canonicalized copy; empty when unused
  const Formula* formula_;
  std::vector<std::uint8_t> tautologies_;  ///< by ID; empty when none
};

/// The final-trail assignment table reconstructed from the trace's Level0
/// and Assumption records (Section 3.1, item 3; assumptions are the
/// incremental-query extension). Implied variables carry an antecedent
/// clause ID; assumption decisions do not.
class Level0Table {
 public:
  /// Prepares a table for `num_vars` variables.
  explicit Level0Table(Var num_vars);

  /// Empties the table and sizes it for `num_vars` variables, keeping its
  /// capacity.
  void reset(Var num_vars);

  /// Registers one Level0 (implied assignment) record. Throws CheckFailure
  /// on a repeated or out-of-range variable.
  void add(Var var, bool value, ClauseId antecedent);

  /// Registers one Assumption record: `var` was assumed to take `value`.
  /// If the variable has no trail entry yet, this also becomes its trail
  /// entry (an assumption decision); if it does (the failed assumption is
  /// implied to the *opposite* value before its enqueue), only the
  /// assumed-polarity bookkeeping is added. Throws CheckFailure on a
  /// repeated assumption or out-of-range variable.
  void add_assumption(Var var, bool value);

  [[nodiscard]] bool assigned(Var v) const { return v < entries_.size() && entries_[v].assigned; }
  [[nodiscard]] bool value(Var v) const { return entries_[v].value; }
  [[nodiscard]] ClauseId antecedent(Var v) const { return entries_[v].antecedent; }
  /// True when `v` is assigned with an antecedent (resolvable).
  [[nodiscard]] bool implied(Var v) const {
    return assigned(v) && entries_[v].antecedent != kInvalidClauseId;
  }
  /// Chronological rank of the assignment (0 = first on the trail).
  [[nodiscard]] std::uint32_t order(Var v) const { return entries_[v].order; }
  [[nodiscard]] std::size_t size() const { return count_; }
  /// The variable universe the table was sized for.
  [[nodiscard]] Var num_vars() const { return static_cast<Var>(entries_.size()); }

  /// Assumption bookkeeping.
  [[nodiscard]] bool has_assumptions() const { return num_assumed_ > 0; }
  [[nodiscard]] bool is_assumed(Var v) const {
    return v < entries_.size() && entries_[v].assumed;
  }
  [[nodiscard]] bool assumed_value(Var v) const {
    return entries_[v].assumed_value;
  }

  /// Value of `lit` under the table: False, True, or Undef if unassigned.
  [[nodiscard]] LBool lit_value(Lit lit) const;

 private:
  struct Entry {
    bool assigned = false;
    bool value = false;
    bool assumed = false;
    bool assumed_value = false;
    ClauseId antecedent = kInvalidClauseId;
    std::uint32_t order = 0;
  };
  std::vector<Entry> entries_;
  std::size_t count_ = 0;
  std::size_t num_assumed_ = 0;
};

/// The memory a replay check works in, kept between checks: the buffers
/// every check fills and would otherwise allocate, and page-fault, anew.
/// Each thread has one (this_thread()), created by its first check and
/// kept until the thread exits, so a thread that checks repeatedly (a
/// satproofd worker, a benchmark pass) maps and faults them once. A check
/// borrows it through a CheckMemoryLease and re-initialises every table
/// it uses; arenas restart their counters, so stats, verdicts and
/// certificates do not depend on what ran before. peak_mem_bytes stays
/// the logical accounting of what the check holds, not what is mapped.
class CheckMemory {
 public:
  /// One depth-first lane's buffers. Lane 0 is the calling thread's; its
  /// arena and resolver also serve the breadth-first and window checkers.
  /// Aligned so that lanes writing their own arenas share no cache line.
  struct alignas(64) Lane {
    util::ClauseArena arena;
    ChainResolver chain;
    std::vector<std::uint32_t> round;  ///< the lane's share of a round
    std::vector<ClauseId> stack;       ///< clauses it claimed and builds
  };

  CheckMemory();
  CheckMemory(const CheckMemory&) = delete;
  CheckMemory& operator=(const CheckMemory&) = delete;

  /// The calling thread's workspace.
  [[nodiscard]] static CheckMemory& this_thread();

  /// Enables or disables every lane arena's binary tier (default on); the
  /// layout tests check that the tier changes nothing.
  void set_binary_tier(bool on);

  /// Lane `i`, with its arena reset and its lists empty. Lanes are created
  /// on first use and never move.
  [[nodiscard]] Lane& lane(std::size_t i);

  /// The depth-first slot table for IDs below `n`, every slot null.
  [[nodiscard]] std::span<std::atomic<const Lit*>> slots(std::size_t n);

  /// The breadth-first and window clause store, reset, on lane 0's arena.
  [[nodiscard]] ClauseStore& store();

  /// Tables the checkers re-initialise themselves.
  DerivationIndex derivations{0};
  Level0Table level0{0};
  // Depth-first, by ID: planned marks, and at jobs > 1 heights,
  // consumers and lane hints; and its rounds.
  std::vector<std::uint8_t> planned;
  std::vector<std::uint32_t> height;
  std::vector<std::uint32_t> consumer;
  std::vector<std::uint32_t> lane_hint;
  std::vector<std::uint32_t> round;
  std::vector<std::uint32_t> originals;
  std::vector<std::uint32_t> order;
  // Window: the resident derivation IDs and one window's source-list
  // offsets; the lists themselves go in derivations' pool.
  std::vector<std::uint32_t> ids;
  std::vector<std::uint32_t> win_offset;

 private:
  friend class CheckMemoryLease;

  bool binary_tier_ = true;  // before lanes_: lane(0) reads it
  std::deque<Lane> lanes_;
  ClauseStore store_;
  std::unique_ptr<std::atomic<const Lit*>[]> slots_;
  std::size_t slots_capacity_ = 0;
  std::atomic<bool> in_use_{false};
};

/// A check's exclusive hold on a CheckMemory, released when it goes out of
/// scope, a throw included. It holds `requested`, or the calling thread's
/// workspace when that is null; when that workspace is already held (a
/// check started from inside another's observer callback), it holds a
/// private workspace of its own instead, freed with the lease.
class CheckMemoryLease {
 public:
  explicit CheckMemoryLease(CheckMemory* requested);
  ~CheckMemoryLease();
  CheckMemoryLease(const CheckMemoryLease&) = delete;
  CheckMemoryLease& operator=(const CheckMemoryLease&) = delete;

  [[nodiscard]] CheckMemory& operator*() const { return *memory_; }

 private:
  std::unique_ptr<CheckMemory> private_;
  CheckMemory* memory_;
};

/// What scan_trace() gathers besides the derivation records it hands on.
struct TraceScan {
  /// The final conflict record's clause ID; nullopt when the trace has
  /// none (see require_final_conflict).
  std::optional<ClauseId> final_id;
  /// Level0 plus Assumption records read.
  std::uint64_t trail_records = 0;
};

/// The one record loop every checker runs over a trace: reads `reader`
/// from its current position through the End record, registers Level0
/// and Assumption records in `level0`, and passes each derivation record
/// to `on_derivation(const trace::Record&)`, which validates and keeps
/// what its checker needs. When `pool` is not null, each derivation's
/// sources are first appended to it, narrowed to 32 bits
/// (TraceReader::next_into). Throws CheckFailure on a second final
/// conflict record and on a trace that ends without its End record.
template <class OnDerivation>
TraceScan scan_trace(trace::TraceReader& reader, Level0Table& level0,
                     std::vector<std::uint32_t>* pool,
                     OnDerivation&& on_derivation) {
  TraceScan scan;
  trace::Record rec;
  while (pool != nullptr ? reader.next_into(rec, *pool) : reader.next(rec)) {
    switch (rec.kind) {
      case trace::RecordKind::Derivation:
        on_derivation(rec);
        break;
      case trace::RecordKind::FinalConflict:
        if (scan.final_id.has_value()) {
          throw CheckFailure("trace has more than one final conflict record");
        }
        scan.final_id = rec.id;
        break;
      case trace::RecordKind::Level0:
        level0.add(rec.var, rec.value, rec.antecedent);
        ++scan.trail_records;
        break;
      case trace::RecordKind::Assumption:
        level0.add_assumption(rec.var, rec.value);
        ++scan.trail_records;
        break;
      case trace::RecordKind::End:
        return scan;
    }
  }
  throw CheckFailure("trace truncated: missing end record");
}

/// The final conflict ID a scan found. Throws CheckFailure when there is
/// none: the trace then does not claim unsatisfiability.
ClauseId require_final_conflict(const std::optional<ClauseId>& final_id);

/// Structure checks of the streaming checkers (breadth-first, window) on
/// one derivation record with `num_sources` sources, in this order: a
/// learned (not original) ID, strictly above `last_id`, at least two
/// sources, every source in rec.sources preceding the derived clause
/// (rec.sources is empty when the reader checked that; see
/// TraceReader::next_into). Sets `last_id` to the record's ID. Throws
/// CheckFailure otherwise. The whole-trace checkers validate through
/// DerivationIndex::commit instead, which also rejects duplicates.
void check_derivation_record(const trace::Record& rec, std::size_t num_sources,
                             ClauseId num_original,
                             std::optional<ClauseId>& last_id);

/// Single-pass trace load for checkers that keep the whole DAG in memory
/// (depth-first): fills `derivations` and `level0`, accounts the
/// loaded bytes in `mem`, counts derivations in `stats`, and returns the
/// final conflict ID. Throws CheckFailure on any structural violation,
/// including a missing end record, and when the trace has no final
/// conflict (it then does not claim unsatisfiability).
ClauseId load_full_trace(trace::TraceReader& reader,
                         DerivationIndex& derivations, Level0Table& level0,
                         util::MemTracker& mem, CheckStats& stats);

/// Validates that `clause` really is the antecedent of `var` under the
/// level-0 assignment: it contains the literal that makes `var` true, and
/// every other literal is false and was assigned strictly earlier. This is
/// the paper's "whether the clause is really the antecedent of the
/// variable" check. Throws CheckFailure with a diagnostic otherwise.
/// `what` names the clause in diagnostics (e.g. "clause 42").
void check_antecedent(ClauseView clause, Var var, const Level0Table& table,
                      const std::string& what);

/// The same check, naming the clause "antecedent clause <ante_id> of
/// x<var>" as the final derivation does. The name is built only when the
/// check throws.
void check_antecedent(ClauseView clause, Var var, const Level0Table& table,
                      ClauseId ante_id);

/// Callback that produces the canonical clause for an ID, or throws
/// CheckFailure. The depth-first checker builds on demand; the breadth-first
/// checker looks up its live window. The returned view stays valid until
/// the next fetch.
using ClauseFetcher = std::function<ClauseView(ClauseId)>;

/// Observer of replay-order derivation events, the hook the certificate
/// emitter (src/cert) attaches to. Declared here so the checkers need no
/// dependency on the cert subsystem: backends that support emission hold a
/// nullable pointer (null = no observer, the default) and call out only on
/// the slow side of each derivation — after a whole chain has been folded —
/// so the resolution hot loop is untouched.
///
/// Contract the checkers guarantee to observers:
///  - on_original() (depth-first only) fires once per original clause the
///    replay stores, interleaved with on_derived().
///  - on_derived() fires once per clause actually built;
///    every source of a derivation has been announced (as an original ID or
///    an earlier on_derived) before the derivation that consumes it.
///  - on_released() fires when a derived clause provably has no remaining
///    uses (window use-count exhaustion); it never precedes a later fetch.
///  - on_final() fires once, after the empty-clause (or assumption-clause)
///    derivation succeeds, with the antecedents in the order they were
///    resolved against the final conflicting clause.
class CertObserver {
 public:
  virtual ~CertObserver() = default;

  /// Original clause `id` was stored as a replay source; `lits` is its
  /// canonical form (sorted, duplicate-free). LRAT numbers originals by
  /// position, so the default ignores the announcement.
  virtual void on_original(ClauseId id, std::span<const Lit> lits) {
    (void)id;
    (void)lits;
  }

  /// Derived clause `id` was built by left-folding resolution over
  /// `sources` (in trace order); `lits` is the resulting clause,
  /// duplicate-free, in ChainResolver order.
  virtual void on_derived(ClauseId id, std::span<const Lit> lits,
                          std::span<const std::uint32_t> sources) = 0;

  /// Derived clause `id` has no remaining uses in the replay.
  virtual void on_released(ClauseId id) = 0;

  /// The final derivation succeeded: the final conflicting clause
  /// `final_id` was resolved against `antecedents` in order, leaving
  /// `clause` (sorted) — empty for unconditional unsatisfiability, else
  /// the validated assumption clause.
  virtual void on_final(ClauseId final_id,
                        std::span<const ClauseId> antecedents,
                        std::span<const Lit> clause) = 0;
};

/// Shown the final derivation's committed work just before each
/// antecedent fetch: `next` is the antecedent about to be fetched, and
/// `pending` the literals still waiting in the derivation's heap (decode
/// an entry with pending_literal). Every pending literal is false and
/// implied, and the derivation resolves it away with its variable's
/// Level0Table antecedent unless a check throws first, so those
/// antecedents are fetched later in any case. Literals that enter the
/// running clause later are not in `pending` yet.
using PendingHook = std::function<void(
    ClauseId next, std::span<const std::uint64_t> pending)>;

/// The literal of one PendingHook `pending` entry.
[[nodiscard]] inline Lit pending_literal(std::uint64_t entry) {
  return Lit::from_code(static_cast<std::uint32_t>(entry));
}

/// Derives the trace's final clause, exactly as in the proof of
/// Proposition 3: starting from the final conflicting clause, repeatedly
/// resolve on the *most recently assigned* remaining implied variable
/// using its antecedent, until only unresolvable literals remain. Choosing
/// literals in reverse chronological order guarantees no variable is
/// chosen twice, so the loop performs at most |trail| resolutions. The
/// resolvable literals sit in a heap keyed by trail order and each literal
/// is checked once, when it enters the running clause, so the derivation
/// is linear in the antecedents it reads (plus a log factor per step), not
/// trail length times clause width.
///
/// Without assumptions the result must be the empty clause (checked here:
/// every final-clause literal must be false and implied). With assumptions
/// the remaining literals are returned for validation against the assumed
/// set (validate_assumption_clause). Throws CheckFailure on any invalid
/// step; increments `stats.resolutions`. When `used_antecedents` is
/// non-null it receives the antecedent IDs in resolution order (the hint
/// material for CertObserver::on_final). When `before_fetch` is non-null
/// it is called before each antecedent fetch.
[[nodiscard]] SortedClause derive_final_clause(
    ClauseId final_id, const ClauseFetcher& fetch, const Level0Table& table,
    CheckStats& stats, std::vector<ClauseId>* used_antecedents = nullptr,
    const PendingHook* before_fetch = nullptr);

/// Validates the outcome of derive_final_clause: empty is always fine
/// (unconditional unsatisfiability); otherwise every literal must be the
/// negation of a recorded assumption, making the clause a proof that the
/// formula refutes that assumption subset. Throws CheckFailure otherwise.
void validate_assumption_clause(const SortedClause& clause,
                                const Level0Table& table);

/// Validates the trace header against the formula (the ID contract of
/// Section 3.1). Throws CheckFailure on mismatch.
void check_header(const Formula& f, Var trace_vars, ClauseId trace_original);

}  // namespace satproof::checker
