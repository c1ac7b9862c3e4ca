#include "src/trace/ascii.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "src/cnf/dimacs.hpp"

namespace satproof::trace {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("ascii trace: line " + std::to_string(line) + ": " +
                           what);
}

/// `v` as a Var, or a failure naming `what` when it is above
/// dimacs::kMaxVars: a larger value would alias a smaller variable.
Var check_var(std::size_t line, const char* what, std::uint64_t v) {
  const auto max = static_cast<std::uint64_t>(dimacs::kMaxVars);
  if (v > max) {
    fail(line, std::string(what) + " " + std::to_string(v) + " exceeds " +
                   std::to_string(max));
  }
  return static_cast<Var>(v);
}

}  // namespace

namespace {

/// Appends the decimal form of `v` to `buf` (the iostream formatting path
/// is slow enough to dominate trace-generation overhead, which Table 1
/// measures — so format by hand into one buffer per record).
void append_u64(std::string& buf, std::uint64_t v) {
  char tmp[20];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) buf.push_back(tmp[--n]);
}

}  // namespace

void AsciiTraceWriter::begin(Var num_vars, ClauseId num_original) {
  buf_.clear();
  buf_ += "p trace ";
  append_u64(buf_, num_vars);
  buf_.push_back(' ');
  append_u64(buf_, num_original);
  buf_.push_back('\n');
  out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
}

void AsciiTraceWriter::derivation(ClauseId id,
                                  std::span<const ClauseId> sources) {
  buf_.clear();
  buf_ += "d ";
  append_u64(buf_, id);
  // Source IDs are written offset by one so that 0 terminates the list,
  // mirroring the DIMACS clause convention.
  for (const ClauseId s : sources) {
    buf_.push_back(' ');
    append_u64(buf_, s + 1);
  }
  buf_ += " 0\n";
  out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
}

void AsciiTraceWriter::final_conflict(ClauseId id) {
  buf_.clear();
  buf_ += "f ";
  append_u64(buf_, id);
  buf_.push_back('\n');
  out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
}

void AsciiTraceWriter::level0(Var var, bool value, ClauseId antecedent) {
  buf_.clear();
  buf_ += "l ";
  if (!value) buf_.push_back('-');
  append_u64(buf_, static_cast<std::uint64_t>(var) + 1);
  buf_.push_back(' ');
  append_u64(buf_, antecedent);
  buf_.push_back('\n');
  out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
}

void AsciiTraceWriter::assumption(Var var, bool value) {
  buf_.clear();
  buf_ += "u ";
  if (!value) buf_.push_back('-');
  append_u64(buf_, static_cast<std::uint64_t>(var) + 1);
  buf_.push_back('\n');
  out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
}

void AsciiTraceWriter::end() {
  *out_ << "e\n";
  out_->flush();
}

AsciiTraceReader::AsciiTraceReader(std::istream& in)
    : in_(&in), start_(in.tellg()), scanner_(in) {
  std::string_view line;
  while (scanner_.next(line)) {
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream hs{std::string(line)};
    std::string p, kind;
    std::uint64_t vars = 0, orig = 0;
    hs >> p >> kind >> vars >> orig;
    if (!hs || p != "p" || kind != "trace") {
      fail(scanner_.line_number(),
           "expected header 'p trace <vars> <original>'");
    }
    num_vars_ = check_var(scanner_.line_number(), "header variable count",
                          vars);
    num_original_ = orig;
    body_offset_ = scanner_.offset();
    body_line_ = scanner_.line_number();
    return;
  }
  fail(scanner_.line_number(), "missing header");
}

bool AsciiTraceReader::next(Record& out) {
  if (done_) return false;
  std::string_view line;
  while (scanner_.next(line)) {
    const std::size_t line_no = scanner_.line_number();
    if (line.empty() || line[0] == 'c') continue;
    util::TokenCursor ls(line);
    const char tag = ls.next_char();
    switch (tag) {
      case 'd': {
        out.kind = RecordKind::Derivation;
        out.sources.clear();
        std::uint64_t id = 0;
        if (!ls.next(id)) fail(line_no, "derivation missing id");
        out.id = id;
        std::uint64_t s = 0;
        bool terminated = false;
        while (ls.next(s)) {
          if (s == 0) {
            terminated = true;
            break;
          }
          // Source IDs are offset by one on disk so that 0 can terminate
          // the list, mirroring the DIMACS convention.
          out.sources.push_back(s - 1);
        }
        if (!terminated) fail(line_no, "derivation not terminated by 0");
        if (out.sources.size() < 2) {
          fail(line_no, "derivation needs at least two sources");
        }
        return true;
      }
      case 'f': {
        out.kind = RecordKind::FinalConflict;
        std::uint64_t id = 0;
        if (!ls.next(id)) fail(line_no, "final conflict missing id");
        out.id = id;
        out.sources.clear();
        return true;
      }
      case 'l': {
        out.kind = RecordKind::Level0;
        std::int64_t signed_var = 0;
        std::uint64_t ante = 0;
        if (!ls.next(signed_var) || !ls.next(ante) || signed_var == 0) {
          fail(line_no, "malformed level-0 record");
        }
        out.var = check_var(line_no, "level-0 record variable",
                            util::magnitude(signed_var)) - 1;
        out.value = signed_var > 0;
        out.antecedent = ante;
        out.sources.clear();
        return true;
      }
      case 'u': {
        out.kind = RecordKind::Assumption;
        std::int64_t signed_var = 0;
        if (!ls.next(signed_var) || signed_var == 0) {
          fail(line_no, "malformed assumption record");
        }
        out.var = check_var(line_no, "assumption record variable",
                            util::magnitude(signed_var)) - 1;
        out.value = signed_var > 0;
        out.antecedent = kInvalidClauseId;
        out.sources.clear();
        return true;
      }
      case 'e': {
        out.kind = RecordKind::End;
        out.sources.clear();
        done_ = true;
        return true;
      }
      default:
        fail(line_no, std::string("unknown record tag '") + tag + "'");
    }
  }
  fail(scanner_.line_number(), "trace truncated: no 'e' end record");
}

void AsciiTraceReader::rewind() {
  in_->clear();
  if (start_ == std::streampos(-1)) {
    throw std::runtime_error("ascii trace: rewind failed");
  }
  in_->seekg(start_ + static_cast<std::streamoff>(body_offset_));
  if (!*in_) throw std::runtime_error("ascii trace: rewind failed");
  scanner_.restart(body_offset_, body_line_);
  done_ = false;
}

}  // namespace satproof::trace
