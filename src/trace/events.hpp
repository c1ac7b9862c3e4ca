#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cnf/types.hpp"

namespace satproof::trace {

/// The resolution trace of an UNSAT run, as defined in Section 3.1 of the
/// paper. A trace is a sequence of records:
///
///  1. One *derivation* per learned clause: the clause's fresh ID plus the
///     ordered list of its *resolve sources* — the conflicting clause
///     first, then the antecedent passed to each resolve() call in
///     analyze_conflict() (Fig. 2 of the paper). Re-resolving the sources
///     left to right reproduces the learned clause.
///  2. The ID of one *final conflicting clause*: the clause found
///     conflicting at decision level 0 that triggered the UNSAT answer.
///  3. One *level-0 assignment* record per variable assigned at decision
///     level 0, in chronological (trail) order, each with its value and the
///     ID of its antecedent clause.
///
/// The checker replays (1) to rebuild learned clauses, then derives the
/// empty clause from (2) by resolving away every literal using the
/// antecedents in (3), in reverse chronological order.
///
/// Solving *under assumptions* (an extension beyond the paper, for
/// validated incremental queries) adds a fourth record kind: one
/// *assumption* record per assumed literal. When the answer is
/// UNSAT-under-assumptions, the trail dump of (3) covers every implied
/// variable up to the failing assumption level, assumption decisions are
/// recorded as Assumption records in trail order (plus one for the failed
/// assumption itself), and the final derivation no longer reaches the
/// empty clause: it stops at a clause whose literals are all negations of
/// assumed literals — a proof that the formula implies the negation of
/// that assumption subset.

/// Kind tag of a trace record.
enum class RecordKind : std::uint8_t {
  Derivation,     ///< learned clause: id + resolve sources
  FinalConflict,  ///< id of the clause conflicting at level 0
  Level0,         ///< one level-0 assignment: var, value, antecedent id
  Assumption,     ///< an assumed literal (incremental queries): var, value
  End,            ///< end-of-trace marker
};

/// One trace record. Which fields are meaningful depends on `kind`.
struct Record {
  RecordKind kind = RecordKind::End;
  /// Derivation: the learned clause's ID. FinalConflict: the conflicting
  /// clause's ID.
  ClauseId id = kInvalidClauseId;
  /// Derivation only: resolve sources, conflicting clause first (empty
  /// when TraceReader::next_into decoded them into its pool instead).
  std::vector<ClauseId> sources;
  /// Level0 only: the assigned variable and its value.
  Var var = kInvalidVar;
  bool value = false;
  /// Level0 only: ID of the clause that implied the assignment.
  ClauseId antecedent = kInvalidClauseId;
};

/// Sink interface the solver writes the trace into.
///
/// The emission order is: begin(), any number of derivation() calls while
/// the solver runs, then — only if the solver concludes UNSAT —
/// final_conflict(), the level0() records in trail order, and end().
class TraceWriter {
 public:
  virtual ~TraceWriter() = default;

  /// Announces the instance: variable count and the number of original
  /// clauses (IDs [0, num_original) are original; learned IDs follow).
  virtual void begin(Var num_vars, ClauseId num_original) = 0;

  /// Records the derivation of learned clause `id` from `sources`.
  virtual void derivation(ClauseId id, std::span<const ClauseId> sources) = 0;

  /// Records the clause conflicting at decision level 0.
  virtual void final_conflict(ClauseId id) = 0;

  /// Records one level-0 assignment (in chronological order).
  virtual void level0(Var var, bool value, ClauseId antecedent) = 0;

  /// Records one assumed literal (var assumed to take `value`). Emitted in
  /// trail order for decided assumptions, plus once for the assumption
  /// whose enqueue failed. Default implementation: assumption-blind sinks
  /// ignore the record.
  virtual void assumption(Var var, bool value) {
    (void)var;
    (void)value;
  }

  /// Terminates and flushes the trace.
  virtual void end() = 0;
};

/// Source interface the checkers read the trace from.
///
/// The breadth-first checker reads the trace twice (a scan that also
/// counts uses, then the resolution pass; ranged counting adds one pass
/// per further range), hence rewind().
class TraceReader {
 public:
  virtual ~TraceReader() = default;

  /// Declared variable count from the trace header.
  [[nodiscard]] virtual Var num_vars() const = 0;

  /// Declared original-clause count from the trace header.
  [[nodiscard]] virtual ClauseId num_original() const = 0;

  /// Reads the next record into `out`. Returns false at end of trace
  /// (after the End record has been delivered). Throws std::runtime_error
  /// on malformed input.
  virtual bool next(Record& out) = 0;

  /// Reads the next record as next() does, except that a derivation's
  /// sources are appended to `pool`, narrowed to 32 bits: the whole-trace
  /// and window checkers decode straight into their own source storage.
  /// Callers check that out.id is below 2^32, which bounds the sources
  /// that precede it. `out.sources` is then either empty, when the reader
  /// has itself checked that every source precedes out.id, or it holds
  /// the same sources at full width, unchecked. The default reads through
  /// next(); the binary reader decodes into `pool` directly.
  virtual bool next_into(Record& out, std::vector<std::uint32_t>& pool);

  /// Bytes still to be read, when the reader knows them up front (a
  /// mapped or in-memory binary trace); nullopt otherwise. Every binary
  /// derivation source takes at least one byte, so this bounds the
  /// sources still to come, and a caller can size its source storage
  /// once instead of growing it.
  [[nodiscard]] virtual std::optional<std::uint64_t> remaining_bytes() const {
    return std::nullopt;
  }

  /// Restarts reading from the first record after the header.
  virtual void rewind() = 0;

  /// True when this reader supports tell()/seek() repositioning. The
  /// window-shifting checker uses these to revisit trace regions without
  /// re-reading everything before them; readers over pipes or other
  /// forward-only inputs report false and the checker falls back to
  /// rewind() + skipping records.
  [[nodiscard]] virtual bool seekable() const { return false; }

  /// Opaque position token for the *next* record to be read. Only
  /// meaningful when seekable(); tokens are valid for the lifetime of the
  /// reader and may only be passed back to seek() on the same reader.
  [[nodiscard]] virtual std::uint64_t tell() const { return 0; }

  /// Repositions so the next next() call reads the record whose token
  /// `pos` was obtained from tell(). Throws std::runtime_error when the
  /// reader is not seekable.
  virtual void seek(std::uint64_t pos);

  /// Advises that the record range [begin, end) (tell() tokens) will not
  /// be re-read soon; a memory-mapped reader drops the backing pages from
  /// RSS. Purely an optimization — default is a no-op.
  virtual void release_hint(std::uint64_t begin, std::uint64_t end) {
    (void)begin;
    (void)end;
  }
};

inline void TraceReader::seek(std::uint64_t pos) {
  (void)pos;
  throw std::runtime_error("trace reader does not support seeking");
}

/// Writer that discards everything; stands in for "trace generation off"
/// while keeping the same code path hot (used by the Table 1 bench to
/// isolate formatting/IO cost from hook cost).
class NullTraceWriter final : public TraceWriter {
 public:
  void begin(Var, ClauseId) override {}
  void derivation(ClauseId, std::span<const ClauseId>) override {}
  void final_conflict(ClauseId) override {}
  void level0(Var, bool, ClauseId) override {}
  void end() override {}
};

}  // namespace satproof::trace
