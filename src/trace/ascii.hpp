#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "src/trace/events.hpp"
#include "src/util/line_scanner.hpp"

namespace satproof::trace {

/// Human-readable trace format, in the spirit of the zchaff trace the paper
/// describes as "not very space-efficient in order to make the trace human
/// readable" (Section 4).
///
/// Grammar (one record per line):
///
///     p trace <num_vars> <num_original>
///     d <id> <src_1> ... <src_k> 0        derivation, k >= 1
///     f <id>                               final conflicting clause
///     l <signed_var> <antecedent_id>       level-0 assignment; signed_var is
///                                          the 1-based DIMACS literal that
///                                          became true
///     u <signed_var>                       assumed literal (incremental
///                                          queries)
///     e                                    end of trace
class AsciiTraceWriter final : public TraceWriter {
 public:
  /// Writes to `out`, which must outlive the writer.
  explicit AsciiTraceWriter(std::ostream& out) : out_(&out) {}

  void begin(Var num_vars, ClauseId num_original) override;
  void derivation(ClauseId id, std::span<const ClauseId> sources) override;
  void final_conflict(ClauseId id) override;
  void level0(Var var, bool value, ClauseId antecedent) override;
  void assumption(Var var, bool value) override;
  void end() override;

 private:
  std::ostream* out_;
  std::string buf_;  ///< per-record formatting buffer (reused)
};

/// Streaming reader for the ASCII trace format. It reads the stream in
/// chunks through a util::LineScanner. Supports rewind() by re-seeking the
/// underlying stream to the first line after the header and dropping the
/// scanner's buffer, so it can feed the breadth-first checker's two passes
/// directly from disk.
class AsciiTraceReader final : public TraceReader {
 public:
  /// Reads from `in`, which must outlive the reader and be seekable if
  /// rewind() is used. The reader reads ahead of the records it returns,
  /// so nothing else may read `in` meanwhile. Parses the header eagerly;
  /// throws on a bad header.
  explicit AsciiTraceReader(std::istream& in);

  [[nodiscard]] Var num_vars() const override { return num_vars_; }
  [[nodiscard]] ClauseId num_original() const override {
    return num_original_;
  }
  bool next(Record& out) override;
  void rewind() override;

 private:
  std::istream* in_;
  std::streampos start_;  ///< stream position of the first byte scanned
  util::LineScanner scanner_;
  std::uint64_t body_offset_ = 0;  ///< scanner offset of the first body line
  std::size_t body_line_ = 0;      ///< line number of the header line
  Var num_vars_ = 0;
  ClauseId num_original_ = 0;
  bool done_ = false;
};

}  // namespace satproof::trace
