#pragma once

#include <span>
#include <utility>
#include <vector>

#include "src/cnf/formula.hpp"
#include "src/cnf/model.hpp"
#include "src/solver/clause_db.hpp"
#include "src/solver/options.hpp"
#include "src/solver/var_order.hpp"
#include "src/trace/drup.hpp"
#include "src/trace/events.hpp"
#include "src/util/rng.hpp"

namespace satproof::solver {

/// A zchaff-style CDCL SAT solver with resolution-trace generation.
///
/// The engine implements the algorithm of Fig. 1 of the paper: decide /
/// BCP with two-literal watching / 1UIP conflict analysis by
/// reverse-chronological resolution (Fig. 2) / assertion-based
/// backtracking, plus VSIDS decisions, geometric restarts, and
/// activity-driven learned-clause deletion that never deletes the
/// antecedent of an assigned variable.
///
/// When a trace::TraceWriter is attached, the solver emits the checkable
/// trace of Section 3.1: every learned clause's resolve sources, the final
/// conflicting clause, and the decision-level-0 assignments. The paper
/// quantifies the cost of these hooks at 1.7-12% runtime overhead
/// (Table 1); bench/table1_trace_overhead reproduces that measurement.
///
/// A Solver instance is single-shot: build it, add clauses, call solve()
/// once.
class Solver {
 public:
  explicit Solver(SolverOptions options = {});

  /// Adds the variables and clauses of `f`. Clause IDs are assigned in
  /// order of appearance, matching the Formula's own numbering — the ID
  /// contract shared with the checker.
  void add_formula(const Formula& f);

  /// Creates a fresh unassigned variable and returns it.
  Var new_var();

  /// Adds one clause (before solve()). Returns its ID.
  ClauseId add_clause(std::span<const Lit> lits);

  /// Switches the solver to external ID management (for use behind a
  /// trace-emitting preprocessor): the trace header will declare
  /// `num_original` original clauses, and clauses are then added with
  /// explicit IDs via add_clause_with_id(). Must be called before any
  /// clause is added.
  void begin_external_ids(ClauseId num_original);

  /// Adds a clause under an explicit ID (strictly increasing across
  /// calls). IDs below the begin_external_ids() count are original
  /// clauses; higher IDs are preprocessor-derived clauses whose derivation
  /// records the caller has already emitted. Learned-clause IDs continue
  /// after the highest ID seen.
  void add_clause_with_id(std::span<const Lit> lits, ClauseId id);

  /// Reserves all IDs below `next_id` (external-ID mode): the
  /// preprocessor may have derived-and-then-discarded clauses whose IDs
  /// are not among the active set but are already spoken for in the trace.
  void reserve_clause_ids(ClauseId next_id);

 private:
  void add_clause_internal(std::span<const Lit> lits, ClauseId id);

 public:

  /// Attaches a trace writer (may be nullptr to disable tracing, the
  /// "trace off" configuration of Table 1). Must be set before solve().
  void set_trace_writer(trace::TraceWriter* writer) { trace_ = writer; }

  /// Attaches a DRUP proof writer (may be nullptr). Independent of the
  /// resolution trace: DRUP records clause literals and deletions only.
  /// Emits the final empty clause on unconditional UNSAT; an
  /// UNSAT-under-assumptions outcome produces no DRUP claim (the format
  /// cannot express conditional refutations).
  void set_drup_writer(trace::DrupWriter* writer) { drup_ = writer; }

  /// Runs the search to completion (or to the conflict budget).
  [[nodiscard]] SolveResult solve() { return solve({}); }

  /// Solves under the given assumption literals (incremental-query style):
  /// the result is relative to the conjunction of `assumptions`.
  /// Assumptions must be over distinct variables (a contradictory pair
  /// like x and ~x would make the refutation a tautology, which resolution
  /// cannot derive — throws std::invalid_argument instead).
  ///
  /// On Unsatisfiable, failed_assumptions() tells the two cases apart:
  /// empty means the formula is unsatisfiable outright (classic proof
  /// trace); non-empty names an assumption subset the formula refutes, and
  /// the emitted trace proves exactly that — the checkers return the
  /// refuted subset as CheckResult::failed_assumption_clause (negated).
  [[nodiscard]] SolveResult solve(std::span<const Lit> assumptions);

  /// After solve(assumptions) returned Unsatisfiable: the subset of the
  /// assumptions whose conjunction the formula refutes (empty when the
  /// formula is unsatisfiable without any assumptions).
  [[nodiscard]] const std::vector<Lit>& failed_assumptions() const {
    return failed_assumptions_;
  }

  /// The satisfying assignment; valid only after solve() returned
  /// Satisfiable. Every variable is assigned.
  [[nodiscard]] const Model& model() const { return model_; }

  /// Search statistics.
  [[nodiscard]] const SolverStats& stats() const { return stats_; }

  /// Number of variables known to the solver.
  [[nodiscard]] Var num_vars() const { return static_cast<Var>(assign_.size()); }

  /// Number of original (non-learned) clauses added.
  [[nodiscard]] ClauseId num_original_clauses() const { return num_original_; }

 private:
  struct Watcher {
    ClauseRef ref;  ///< the clause's arena position; its header holds the slot
    Lit blocker;    ///< some other literal of the clause; if true, skip scan
  };

  // -- assignment ----------------------------------------------------------
  [[nodiscard]] LBool value(Lit p) const { return lit_value_[p.code()]; }
  [[nodiscard]] std::uint32_t level_of(Var v) const { return level_[v]; }
  [[nodiscard]] std::uint32_t decision_level() const {
    return static_cast<std::uint32_t>(trail_lim_.size());
  }
  void assign(Lit p, ClauseSlot antecedent);
  void backtrack(std::uint32_t target_level);

  // -- search --------------------------------------------------------------
  [[nodiscard]] ClauseSlot propagate();
  enum class DecideOutcome : std::uint8_t {
    Decided,           ///< a new decision (or assumption) was assigned
    AllAssigned,       ///< no free variable left: satisfiable
    AssumptionFailed,  ///< an assumption is falsified by the current trail
  };
  [[nodiscard]] DecideOutcome decide();
  void handle_failed_assumption(Lit p);
  void compute_failed_assumptions(Lit p);
  struct AnalysisResult {
    std::vector<Lit> learned;  ///< learned[0] is the asserting literal
    std::uint32_t backtrack_level = 0;
    std::vector<ClauseId> sources;  ///< conflict id + antecedent ids in order
    bool reuse_conflict = false;    ///< conflict clause was already asserting
  };
  /// Fills analysis_ (reused across conflicts, like the scratch below).
  void analyze(ClauseSlot conflict);
  void attach(ClauseSlot slot);
  void detach(ClauseSlot slot);
  void reduce_learned_db();
  void compact_arena();
  [[nodiscard]] bool clause_locked(ClauseSlot slot) const;
  void bump_clause(ClauseSlot slot);

  // -- trace ---------------------------------------------------------------
  void emit_unsat_trace(ClauseSlot conflict);

  SolverOptions options_;
  SolverStats stats_;
  util::Rng rng_;
  trace::TraceWriter* trace_ = nullptr;
  trace::DrupWriter* drup_ = nullptr;

  ClauseDb db_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::code()
  std::vector<LBool> lit_value_;  // indexed by Lit::code(): value() in one load
  std::vector<LBool> assign_;     // indexed by Var: models and saved phases
  std::vector<std::uint32_t> level_;
  std::vector<ClauseSlot> antecedent_;
  std::vector<std::uint32_t> trail_pos_;
  std::vector<bool> saved_phase_;
  std::vector<Lit> trail_;
  std::vector<std::size_t> trail_lim_;
  std::size_t qhead_ = 0;
  VarOrder order_;

  std::vector<Lit> assumptions_;
  std::vector<Lit> failed_assumptions_;

  ClauseId num_original_ = 0;
  ClauseId next_id_ = 0;
  bool external_ids_ = false;
  std::vector<ClauseSlot> pending_units_;
  ClauseId empty_clause_id_ = kInvalidClauseId;
  bool solved_ = false;

  double clause_inc_ = 1.0;
  std::vector<bool> seen_;       // scratch for analyze()
  std::vector<bool> in_clause_;  // scratch for clause minimization

  // analyze()'s result and working buffers, kept to skip per-conflict
  // allocation.
  AnalysisResult analysis_;
  std::vector<Lit> others_;   // literals below the current decision level
  std::vector<Lit> level0_;   // level-0 literals queued for elimination
  std::vector<Lit> kept_;     // minimization survivors
  std::vector<Var> to_clear_;
  std::vector<std::pair<std::uint32_t, Lit>> level0_heap_;  // by trail position

  Model model_;
};

}  // namespace satproof::solver
