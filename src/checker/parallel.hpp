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
/// Loads the trace like the depth-first checker and builds exactly the
/// clauses depth-first builds. DF builds the final conflict's cone, then
/// each trail antecedent's cone when the final derivation first fetches
/// it. At jobs > 1 this checker builds in rounds instead: when the
/// derivation is about to fetch an unbuilt antecedent, one round takes
/// that cone together with the cones of every antecedent still pending in
/// the derivation's heap (the derivation fetches all of them unless a
/// check fails first). One sweep down the clause IDs finds the round's
/// clauses and each one's height, the longest path from it to a root of
/// the round. The round is sorted, originals first and then by decreasing
/// height, and dealt to `jobs` lanes (the calling thread and a fixed
/// worker pool): a clause follows the source that set its height to that
/// source's lane unless the lane is far ahead, so a chain stays on one
/// lane, and otherwise goes to the least loaded lane. Each lane claims and
/// builds its clauses in order into its own clause arena and publishes
/// clause pointers into an ID-indexed slot table with release stores. A
/// lane reading a source with an acquire load that finds it unclaimed
/// claims and builds it itself; one that another lane is building it
/// waits for, spinning briefly and then blocking on the slot. Rounds too
/// small to gain, and every round at jobs 1 (which never starts a thread),
/// are built on the calling thread; at jobs 1 in DF's own plan order.
///
/// Everything observable is schedule-independent: the set of clauses built,
/// the unsat core (byte-identical to check_depth_first), the resolution and
/// built counts and the peak-memory figure. On rejection, every clause of
/// a round is still attempted (a failure only leaves its consumers
/// unbuilt), and when the derivation fetches a clause left unbuilt, the
/// diagnostic is that of the lowest failing clause ID in the cone DF would
/// build for that fetch, at every job count. Depth-first instead stops at
/// the first failure of its plan, so with several corrupt derivations in
/// one cone the two can name different clauses.
[[nodiscard]] CheckResult check_parallel(const Formula& f,
                                         trace::TraceReader& reader,
                                         const ParallelOptions& options = {});

}  // namespace satproof::checker
