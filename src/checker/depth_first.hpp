#pragma once

#include "src/checker/common.hpp"

namespace satproof::checker {

/// Options for the depth-first checker.
struct DepthFirstOptions {
  /// Lanes that build each round of clauses. 1, the default, builds every
  /// round on the calling thread and starts no thread; 0 means
  /// std::thread::hardware_concurrency (at least 1). Verdicts,
  /// diagnostics, cores, stats and observer events do not depend on it.
  unsigned jobs = 1;

  /// Collect the IDs of the original clauses used by the proof (the
  /// unsatisfiable core, "a by-product" per Section 3.2). Costs nothing
  /// extra beyond returning the list.
  bool collect_core = true;

  /// The workspace the check runs in; null, the default, means the
  /// calling thread's (see CheckMemory). Every lane's arena comes from it.
  /// Results are identical in any workspace.
  CheckMemory* memory = nullptr;

  /// When non-null, receives the derivation events (the LRAT certificate
  /// emitter and the proof-DAG extractor hook in here): after each round,
  /// on the calling thread, every clause the round built in ascending ID
  /// order, so the events are the same at any `jobs`. Null, the default,
  /// costs one test per round.
  CertObserver* observer = nullptr;
};

/// Depth-first proof checking (paper Section 3.2, Fig. 3).
///
/// Reads the *entire* trace into memory, then starts from the final
/// conflicting clause and builds learned clauses on demand: only the
/// clauses reachable from the final conflict are ever constructed (19-90%
/// of all learned clauses on the paper's benchmarks). Fast — the paper
/// measures roughly 2x faster than breadth-first — but the resident trace
/// plus the memoized clauses make it the memory-hungry variant: the two
/// hardest instances in Table 2 exhaust an 800 MB limit.
///
/// The clauses are built in rounds. The first round is the final
/// conflicting clause's cone. When the final derivation is about to fetch
/// an unbuilt trail antecedent, one round takes that antecedent's cone
/// together with the cones of every antecedent still pending in the
/// derivation's heap (the derivation fetches all of them unless a check
/// fails first). One sweep down the clause IDs finds a round's unbuilt
/// clauses: sources precede their consumers, so a derived clause is
/// reached after every consumer in the round has marked it.
///
/// At `jobs` 1, and for rounds of fewer than 256 clauses, the calling
/// thread builds the round in ascending ID order, which is a topological
/// order. At `jobs` > 1 a larger round is sorted by height (the longest
/// path from a clause to a root of the round, found by the same sweep)
/// and dealt to `jobs` lanes, the calling thread and a fixed worker pool:
/// a clause follows the consumer that set its height to that consumer's
/// lane unless the lane is far ahead, so a chain stays on one lane, and
/// otherwise goes to the least loaded lane. Each lane claims and builds
/// its clauses in order into its own clause arena and publishes clause
/// pointers into an ID-indexed slot table with release stores. A lane
/// that finds a source unclaimed claims and builds it itself; one that
/// another lane is building it waits for, spinning briefly and then
/// blocking on the slot.
///
/// Every step is validated: derivations must reference earlier IDs, each
/// resolution must have exactly one clashing variable, level-0 antecedents
/// must really be antecedents, and the final conflicting clause must be
/// falsified by the level-0 assignment. Every clause of a round is
/// attempted, a failure only leaving its consumers unbuilt. A fetch of a
/// clause left unbuilt fails with the diagnostic of the lowest failing
/// clause ID in that clause's cone; a round that references a clause the
/// trace never derives fails, before building, naming the lowest such ID
/// of the fetched cone.
///
/// `reader` is consumed from its current position; `f` must be the exact
/// formula the solver solved (same clause order).
[[nodiscard]] CheckResult check_depth_first(const Formula& f,
                                            trace::TraceReader& reader,
                                            const DepthFirstOptions& options = {});

}  // namespace satproof::checker
