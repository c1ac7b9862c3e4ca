#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "src/trace/events.hpp"
#include "src/util/byte_source.hpp"

namespace satproof::trace {

/// Compact binary trace format.
///
/// Section 4 of the paper points out that the ASCII trace "is not very
/// space-efficient" and that a binary encoding would yield a 2-3x
/// compaction and speed up the checker, whose profile is dominated by
/// parsing. This format implements that suggestion:
///
///   magic "SPRF" + version byte 0x01
///   varint num_vars, varint num_original
///   records, each starting with a 1-byte tag:
///     0x01 derivation:    varint id, varint k, then k varints each storing
///                         (id - source) — sources always precede the
///                         derived clause, so the delta is small and
///                         typically fits in one or two bytes
///     0x02 final conflict: varint id
///     0x03 level-0:        varint (var << 1 | value), varint antecedent
///     0x04 end
///     0x05 assumption:     varint (var << 1 | value)
///
/// On the benchmark suite this measures 3-5x smaller than the ASCII form
/// (see bench/ablation_trace_format).
class BinaryTraceWriter final : public TraceWriter {
 public:
  /// Writes to `out` (binary mode), which must outlive the writer.
  explicit BinaryTraceWriter(std::ostream& out) : out_(&out) {}

  void begin(Var num_vars, ClauseId num_original) override;
  void derivation(ClauseId id, std::span<const ClauseId> sources) override;
  void final_conflict(ClauseId id) override;
  void level0(Var var, bool value, ClauseId antecedent) override;
  void assumption(Var var, bool value) override;
  void end() override;

 private:
  void flush_buf();

  std::ostream* out_;
  std::vector<std::uint8_t> buf_;  ///< per-record encoding buffer (reused)
};

/// Streaming reader for the binary trace format.
///
/// Decodes from a util::ByteSource: an mmap'd or in-memory trace is one
/// contiguous window, so the hot loop is pure pointer bumps through
/// util::decode_varint — no stream sentry, no per-byte virtual call. The
/// std::istream constructor keeps pipes and stringstreams working by
/// wrapping them in a buffered StreamByteSource.
///
/// rewind() repositions to the first record; on a stream source this
/// seeks the underlying stream, so pipes cannot rewind.
class BinaryTraceReader final : public TraceReader {
 public:
  /// Reads from `in` (binary mode, seekable for rewind()). Validates the
  /// magic and header eagerly; throws std::runtime_error on mismatch.
  explicit BinaryTraceReader(std::istream& in);

  /// Reads from `source` (zero-copy when the source is a single window).
  explicit BinaryTraceReader(std::unique_ptr<util::ByteSource> source);

  [[nodiscard]] Var num_vars() const override { return num_vars_; }
  [[nodiscard]] ClauseId num_original() const override {
    return num_original_;
  }
  bool next(Record& out) override;
  bool next_into(Record& out, std::vector<std::uint32_t>& pool) override;
  void rewind() override;
  [[nodiscard]] std::optional<std::uint64_t> remaining_bytes() const override;

  /// Positions are absolute byte offsets into the trace, so the
  /// window-shifting checker can jump straight back to a recorded record
  /// boundary. seek() on a pipe-backed StreamByteSource throws only when
  /// it actually has to move backwards.
  [[nodiscard]] bool seekable() const override { return true; }
  [[nodiscard]] std::uint64_t tell() const override {
    return win_pos_ + static_cast<std::uint64_t>(p_ - win_begin_);
  }
  void seek(std::uint64_t pos) override;
  void release_hint(std::uint64_t begin, std::uint64_t end) override;

 private:
  /// Fetches the next window; returns false at end of data.
  bool refill();

  /// Next byte, or -1 at end of data.
  int get();

  /// Reads one varint; `what` labels truncation-at-record-boundary errors.
  std::uint64_t read_u64(const char* what);

  /// next() and next_into(): a derivation's sources go to `pool` when it
  /// is not null, else to out.sources.
  bool read_record(Record& out, std::vector<std::uint32_t>* pool);

  /// Decodes `k` source deltas of derivation `id`, appending the sources.
  template <class T>
  void read_sources(std::uint64_t k, ClauseId id, std::vector<T>& out);

  std::unique_ptr<util::ByteSource> source_;
  const std::uint8_t* p_ = nullptr;          ///< decode cursor
  const std::uint8_t* end_ = nullptr;        ///< current window end
  const std::uint8_t* win_begin_ = nullptr;  ///< current window begin
  std::uint64_t win_pos_ = 0;    ///< source position of win_begin_
  std::uint64_t body_start_ = 0; ///< source position of the first record
  Var num_vars_ = 0;
  ClauseId num_original_ = 0;
  bool done_ = false;
};

/// Opens `path` as a memory-mapped binary trace — the fast path for
/// on-disk traces. Throws std::runtime_error on open or header failure.
std::unique_ptr<BinaryTraceReader> open_binary_trace_file(
    const std::string& path);

}  // namespace satproof::trace
