#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "src/checker/common.hpp"
#include "src/cnf/types.hpp"

namespace satproof::cert {

/// Sink for LRAT certificate records. The emitter drives one of these;
/// implementations only format and buffer — all proof logic stays in the
/// emitter (order) and the kernel (validity).
///
/// Writers never throw on I/O problems; they latch the stream's failure
/// instead, and ok() reports it so callers can fail the export after the
/// check finished (the check verdict must not depend on sink health).
class LratWriter {
 public:
  virtual ~LratWriter() = default;

  /// One addition step: clause `id` with literals `lits` is claimed
  /// derivable, justified by the hint clause IDs in `hints` (RUP order:
  /// each hint is unit or falsified under the accumulated assignment).
  virtual void add(std::uint64_t id, std::span<const Lit> lits,
                   std::span<const std::uint64_t> hints) = 0;

  /// One deletion step at proof position `at_id` (the most recent addition
  /// ID): the clauses in `ids` have no further uses.
  virtual void del(std::uint64_t at_id,
                   std::span<const std::uint64_t> ids) = 0;

  /// Flushes buffered records to the underlying stream.
  virtual void finish() = 0;

  /// False once the underlying stream reported a write failure.
  [[nodiscard]] virtual bool ok() const = 0;
};

/// Plain-text LRAT ("<id> <lits> 0 <hints> 0" / "<id> d <ids> 0"), the
/// format drat-trim's lrat-check and certified checkers consume.
class TextLratWriter final : public LratWriter {
 public:
  explicit TextLratWriter(std::ostream& out) : out_(&out) {}

  void add(std::uint64_t id, std::span<const Lit> lits,
           std::span<const std::uint64_t> hints) override;
  void del(std::uint64_t at_id, std::span<const std::uint64_t> ids) override;
  void finish() override;
  [[nodiscard]] bool ok() const override { return ok_ && out_->good(); }

 private:
  /// Room for `n` more bytes after the buffered ones; returns where they
  /// start. Records format their digits straight into it.
  char* reserve(std::size_t n);
  /// Ends the record at `end` (inside the reserved room) and flushes the
  /// buffer once it holds 64 KiB.
  void commit(const char* end);

  std::ostream* out_;
  std::vector<char> buf_;  ///< buffered bytes are [0, len_)
  std::size_t len_ = 0;
  bool ok_ = true;
};

/// Compact binary GRIT-style variant: each record is one tag byte
/// ('a' = addition, 'd' = deletion) followed by LEB128 varints — the
/// clause ID, the literals (mapped 2*|l| + (l<0), as in binary DRAT),
/// a 0 terminator, then for additions the hint IDs and another 0.
/// Roughly 3-4x smaller than the text form on the differential corpus.
class BinaryLratWriter final : public LratWriter {
 public:
  explicit BinaryLratWriter(std::ostream& out) : out_(&out) {}

  void add(std::uint64_t id, std::span<const Lit> lits,
           std::span<const std::uint64_t> hints) override;
  void del(std::uint64_t at_id, std::span<const std::uint64_t> ids) override;
  void finish() override;
  [[nodiscard]] bool ok() const override { return ok_ && out_->good(); }

 private:
  void put_varint(std::uint64_t v);
  void maybe_flush();

  std::ostream* out_;
  std::string buf_;
  bool ok_ = true;
};

/// Bridges checker replay events to LRAT records.
///
/// The trace's resolution chains replay as left folds: R0 = s0,
/// Ri = resolve(R(i-1), si). Under the RUP assignment that falsifies the
/// derived clause, the sources in *reverse* order are exactly a
/// unit-then-conflict hint sequence: each si is unit on the complement of
/// its pivot, and s0 finally falsifies (si \ {~pi} is a subset of R(i-1),
/// which is a subset of the derived clause plus later pivots — all false
/// by then). So every chain becomes one LRAT addition whose hints are its
/// sources reversed; the final empty-clause derivation becomes the last
/// addition with hints [antecedents reversed, final conflicting clause].
///
/// IDs: LRAT numbers the original clauses 1..num_original in formula
/// order; trace ID i maps to i+1 for originals. Derived clauses take
/// consecutive fresh IDs in *emission* order — the depth-first checker
/// announces its cone round by round, not in trace order, so trace IDs
/// are remapped densely here (LRAT requires strictly increasing addition
/// IDs).
///
/// Deletions (window/hybrid only — on_released fires at use-count
/// exhaustion) are batched per chain and flushed ahead of the next
/// addition.
///
/// The checkers only support resolution chains whose pivot variables are
/// distinct within a chain in the sense that matters here: a chain that
/// removes the same pivot literal twice would need a *satisfied* hint mid
/// sequence, which the strict kernel rejects. CDCL conflict-analysis
/// chains resolve each trail variable at most once, so solver traces
/// never hit this (see docs/CERTIFICATES.md).
class LratEmitter final : public checker::CertObserver {
 public:
  /// Records to `writer`; `num_original` is the formula's clause count
  /// (trace and LRAT IDs are both anchored to it).
  LratEmitter(LratWriter& writer, ClauseId num_original)
      : writer_(&writer), num_original_(num_original),
        next_id_(num_original + 1) {}

  void on_derived(ClauseId id, std::span<const Lit> lits,
                  std::span<const std::uint32_t> sources) override;
  void on_released(ClauseId id) override;
  /// Writes the empty-clause addition. An assumption clause writes
  /// nothing: LRAT certifies unconditional unsatisfiability only.
  void on_final(ClauseId final_id, std::span<const ClauseId> antecedents,
                std::span<const Lit> clause) override;

  /// True once the empty-clause addition has been written (the check
  /// reached a successful unconditional-UNSAT verdict).
  [[nodiscard]] bool finished() const { return finished_; }

  [[nodiscard]] std::uint64_t additions() const { return additions_; }
  [[nodiscard]] std::uint64_t deletions() const { return deletions_; }

 private:
  [[nodiscard]] std::uint64_t map_id(ClauseId trace_id) const;
  void flush_deletes();

  LratWriter* writer_;
  ClauseId num_original_;
  std::uint64_t next_id_;       ///< next fresh LRAT ID
  std::uint64_t last_id_ = 0;   ///< most recently written addition ID
  std::vector<std::uint64_t> derived_map_;  ///< by trace ordinal; 0 = unmapped
  std::vector<std::uint64_t> hints_;            ///< scratch
  std::vector<std::uint64_t> pending_deletes_;  ///< batched del record
  std::uint64_t additions_ = 0;
  std::uint64_t deletions_ = 0;
  bool finished_ = false;
};

}  // namespace satproof::cert
