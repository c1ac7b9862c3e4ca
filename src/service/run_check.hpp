#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/checker/common.hpp"
#include "src/util/json.hpp"

namespace satproof::service {

/// Checker backend a job runs under. The numeric values are wire format
/// (SubmitHeader::backend) — do not reorder.
enum class Backend : std::uint8_t {
  kDf = 0,        ///< depth-first resolution replay
  kBf = 1,        ///< breadth-first (bounded-memory) replay
  kHybrid = 2,    ///< window replay with no budget (one window)
  kParallel = 3,  ///< depth-first on N lanes (df with `jobs`)
  kDrup = 4,      ///< forward DRUP (trace file holds a DRUP proof)
  kWindow = 5,    ///< window-shifting replay under a memory budget
  kRup = 6,       ///< RUP re-check of every derived clause of the proof DAG
};

inline constexpr std::uint8_t kNumBackends = 7;

[[nodiscard]] std::optional<Backend> backend_from_name(std::string_view name);
[[nodiscard]] const char* backend_name(Backend b);

/// True for the backends that can stream an LRAT certificate of their
/// replay: df (parallel included), hybrid and window.
[[nodiscard]] constexpr bool can_certify(Backend b) {
  return b == Backend::kDf || b == Backend::kParallel ||
         b == Backend::kHybrid || b == Backend::kWindow;
}

/// Trace size from which an uncapped auto selection prefers hybrid.
inline constexpr std::uint64_t kAutoHybridTraceBytes = 64ull << 20;

/// The one backend-selection policy (`--checker=auto` and the per-job
/// memory cap), from the trace size. With a budget (`mem_limit_bytes`
/// non-zero): depth-first while the whole trace plus its memoized clauses
/// fit (~6x the trace bytes on the committed bench suite), else the
/// window-shifting backend, whose footprint is a few bytes per derivation
/// plus one budget-sized window. Without one: depth-first below
/// kAutoHybridTraceBytes, hybrid from there up, since depth-first keeps
/// the whole trace plus every memoized clause resident.
[[nodiscard]] Backend select_backend_for_budget(std::uint64_t trace_bytes,
                                                std::size_t mem_limit_bytes);

/// Size of the file at `path` in bytes; 0 when it cannot be measured (the
/// selection then picks depth-first).
[[nodiscard]] std::uint64_t trace_file_bytes(const std::string& path);

/// Everything a checking run produces, minus wall-clock time — so two runs
/// of the same job are comparable byte for byte. This is the unit the
/// service executes, the CLI `check`/`drup` commands print, and the
/// end-to-end test diffs against direct calls.
struct JobOutcome {
  bool ok = false;
  std::string error;  ///< checker/parse diagnostic when !ok
  Backend backend = Backend::kDf;
  /// Replay backends (df/bf/hybrid/parallel/window); zeros for DRUP/RUP.
  checker::CheckStats stats;
  /// Non-empty for validated UNSAT-under-assumptions traces.
  std::vector<Lit> failed_assumption_clause;
  /// The unit-propagation backends only: DRUP, and RUP (which counts the
  /// derived clauses it re-derives and has no deletions).
  std::uint64_t drup_clauses_checked = 0;
  std::uint64_t drup_deletions = 0;
  std::uint64_t drup_propagations = 0;
  /// Certified runs only (run_check with a cert sink): LRAT step counts,
  /// and — filled by the service, which certifies into a memory sink —
  /// the certificate bytes shipped in the RESULT_CERT frame.
  std::uint64_t cert_additions = 0;
  std::uint64_t cert_deletions = 0;
  std::string certificate;
};

/// Certificate emission request for run_check. A null sink (the default)
/// disables emission entirely — the checkers run with no observer, so the
/// replay hot loop is untouched.
struct CertOptions {
  std::ostream* sink = nullptr;  ///< where LRAT records stream; null = off
  bool binary = false;           ///< binary GRIT-style variant vs text
};

/// Deterministic one-line verdict (no timing), e.g.
///   "VERIFIED: valid resolution proof of unsatisfiability (N resolutions)"
///   "VERIFIED (DRUP): N clauses, M deletions, P propagations"
///   "VERIFIED (RUP): N derived clauses re-derived by unit propagation
///    (P propagations)"
///   "CHECK FAILED: <diagnostic>"
[[nodiscard]] std::string verdict_line(const JobOutcome& outcome);

/// JSON document describing the outcome (ok, verdict, error, stats; the
/// stats of bf carry no "core_original_clauses", as bf collects no core).
[[nodiscard]] std::string outcome_json(const JobOutcome& outcome);

/// Writes a replay backend's CheckStats as one JSON object: the one
/// serialiser behind outcome_json's "stats" and the check_stats_json
/// documents.
void write_check_stats(util::JsonWriter& w, const checker::CheckStats& stats);

/// write_check_stats as a standalone document.
[[nodiscard]] std::string check_stats_json(const checker::CheckStats& stats);

/// The `satproof check --stats=json` document for any backend: for the
/// replay backends the CheckStats counters, without
/// "core_original_clauses" for bf, which collects no core; for DRUP and
/// RUP, which compute none of them, only their unit-propagation counts
/// under the backend's name, as outcome_json carries them; and last a
/// "backend" key naming the backend that actually ran, the provenance
/// record for `--checker=auto`.
[[nodiscard]] std::string check_stats_json(const JobOutcome& outcome);

/// Checks `trace_path` against `cnf_path` with `backend`.
///
/// The trace encoding is auto-detected: a file starting with the binary
/// magic "SPRF" goes through the zero-copy mmap ByteSource path, anything
/// else is read as an ASCII trace (or, for the DRUP backend, a DRUP proof
/// stream). Never throws — parse and I/O failures come back as a
/// JobOutcome with ok == false, exactly like a rejected proof, so a bad
/// job can never take down the service.
///
/// `jobs` is the worker count of the parallel, DRUP and RUP backends (0 =
/// hardware threads); other backends ignore it, df included, which always
/// runs on one lane. The DRUP and RUP `drup_propagations` depend on it;
/// their verdicts and other counts do not.
///
/// `recycle_arena`, when non-null, backs the df/bf/hybrid/window clause
/// store (for parallel, its calling-thread lane's) so repeated checks on
/// one thread reuse already-mapped chunks (it is reset() before use; the
/// DRUP and RUP backends manage their own storage and ignore it).
/// Outcomes are byte-identical either way.
/// `cert`, when its sink is non-null, streams an LRAT certificate of the
/// replay to that sink (backends for which can_certify() holds — others
/// fail the job). A certified run demands unconditional unsatisfiability:
/// traces that verify only under assumptions, and sink write failures,
/// turn the outcome into ok == false even though the underlying check
/// passed.
///
/// `mem_limit_bytes`, when non-zero, caps the checker's memory use: the
/// window and hybrid backends take it as their budget, and a df, parallel
/// or hybrid request whose estimated peak exceeds it (from the trace file
/// size — see select_backend_for_budget) runs as window instead;
/// JobOutcome::backend records what actually ran. Certifying runs are
/// capped too (window certifies at any budget); bf, DRUP and RUP are
/// unaffected (bf is already budget-bounded).
[[nodiscard]] JobOutcome run_check(const std::string& cnf_path,
                                   const std::string& trace_path,
                                   Backend backend, unsigned jobs = 0,
                                   util::ClauseArena* recycle_arena = nullptr,
                                   const CertOptions& cert = {},
                                   std::size_t mem_limit_bytes = 0);

}  // namespace satproof::service
