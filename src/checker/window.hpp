#pragma once

#include "src/checker/common.hpp"
#include "src/checker/use_count.hpp"

namespace satproof::checker {

/// Options for the window-shifting checker.
struct WindowOptions {
  /// Memory budget in bytes for the checker's trace-derived structures:
  /// the resident index (derivation IDs, use counts, reachability bits,
  /// the level-0 table) plus one shifting window of derivation source
  /// lists. The budget decides how the trace is partitioned into windows;
  /// a budget the resident index alone exceeds fails gracefully with a
  /// diagnostic naming the shortfall. The live-clause frontier is the
  /// proof's own working set (the same bound the breadth-first checker
  /// carries) and is not charged against the budget. 0 = unlimited: one
  /// window holds the whole structure (the hybrid checker), split only
  /// where a window's source pool would reach 2^32 entries.
  std::size_t mem_limit_bytes = 256u << 20;

  /// Use-count storage, as in the breadth-first checker.
  UseCountMode use_counts = UseCountMode::InMemory;

  /// When non-null, clause storage borrows this arena instead of growing a
  /// private one (see DepthFirstOptions::recycle_arena).
  util::ClauseArena* recycle_arena = nullptr;

  /// When true and the check succeeds, CheckResult::core is filled with
  /// the sorted original-clause IDs of the unsatisfiable core —
  /// byte-identical to the depth-first checker's core for the same trace.
  bool collect_core = false;

  /// When non-null, receives replay-order derivation events, including
  /// on_released() when a stored clause's use count exhausts (the emitter
  /// turns those into LRAT deletion records). See
  /// DepthFirstOptions::observer. The certificate does not depend on the
  /// budget: every budget replays and releases in the same order.
  CertObserver* observer = nullptr;
};

/// Window-shifting proof checking (Chen, "Fast Verifying Proofs of
/// Propositional Unsatisfiability via Window Shifting"), and the checker
/// the paper's conclusion asks for:
///
///   "It is desirable to have a checker that has the advantage of both the
///    depth-first and breadth-first approaches without suffering from
///    their respective shortcomings."
///
/// Like depth-first it builds only the clauses reachable from the final
/// conflict; like breadth-first it keeps no clause memo, releasing each
/// clause the moment its last *reachable* use is behind. It keeps only a
/// few bytes per derivation resident (its ID, its use count, one
/// reachability bit) and partitions the source lists into *windows* sized
/// to the budget:
///
///   A. stream the trace once, validating structure and recording window
///      boundaries so each window's source lists fit the budget; the last
///      window stays loaded;
///   B. sweep the windows backward — reload each window's source lists
///      (seeking, on a seekable reader) and settle reachability + use
///      counts restricted to reachable consumers (sources always precede
///      consumers, so one reverse sweep suffices) — releasing each
///      window's trace pages as the sweep shifts past them;
///   C. sweep the windows forward, replaying reachable derivations against
///      the frontier of clauses still referenced by later windows.
///
/// A window that is already loaded is never re-read, so with no budget
/// (mem_limit_bytes = 0, one window: the hybrid checker of hybrid.hpp)
/// the trace is decoded once.
///
/// Verdicts, cores, and stats match the depth-first checker: when the
/// final derivation used antecedents differ from the pinned set, a last
/// backward structural sweep (same windowed discipline) recomputes the
/// exact depth-first cone for clauses_built / resolutions / core.
///
/// Peak memory: resident index + one window + the clause frontier —
/// independent of trace length for a fixed budget and frontier.
[[nodiscard]] CheckResult check_window(const Formula& f,
                                       trace::TraceReader& reader,
                                       const WindowOptions& options = {});

}  // namespace satproof::checker
