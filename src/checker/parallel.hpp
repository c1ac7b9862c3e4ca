#pragma once

#include "src/checker/common.hpp"

namespace satproof::checker {

/// Options for the parallel checker.
struct ParallelOptions {
  /// Worker threads. 0 means std::thread::hardware_concurrency (≥ 1).
  unsigned jobs = 0;

  /// Collect the unsatisfiable core, exactly as the depth-first checker
  /// does. The parallel checker builds the same clause set as depth-first
  /// regardless of schedule, so the core is byte-identical.
  bool collect_core = true;
};

/// Parallel depth-first proof checking.
///
/// Loads the trace like the depth-first checker and plans each cone it
/// must build — the final conflict's, then each level-0 antecedent's the
/// final derivation touches — with the same postorder planner, so it
/// builds exactly the clauses depth-first builds. A large cone is then
/// partitioned: walking it consumers-first, each source of the cone's root
/// seeds a *group*, a clause whose consumers all lie in one group joins
/// it, and any other clause is *shared*; a group heavier than 1/jobs of
/// the cone is split at its seed and the cone labelled once more. Shared
/// clauses depend on no grouped one, so the cone is built as: shared
/// clauses on the calling thread in plan order, the groups concurrently
/// on a fixed worker pool (each in plan order, dealt heaviest first to the
/// least-loaded worker), then the root. Cones too small to gain — and
/// every cone at jobs 1, which never starts a thread — are built on the
/// calling thread in plan order, exactly as depth-first does.
///
/// Each worker writes into its own clause arena and publishes clause
/// pointers into a plain ID-indexed slot vector; the pool's submit and
/// wait_idle give the only ordering needed, so there are no atomics.
///
/// Everything observable is schedule-independent: the set of clauses built,
/// the unsat core (byte-identical to check_depth_first), the resolution and
/// built counts and the peak-memory figure. On rejection, every clause of
/// the failing cone is still attempted (a failure only leaves its
/// consumers unbuilt), and the diagnostic is that of the lowest failing
/// clause ID at every job count. Depth-first instead stops at the first
/// failure of its plan, so with several corrupt derivations the two can
/// name different clauses.
[[nodiscard]] CheckResult check_parallel(const Formula& f,
                                         trace::TraceReader& reader,
                                         const ParallelOptions& options = {});

}  // namespace satproof::checker
