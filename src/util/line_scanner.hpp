#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <istream>
#include <limits>
#include <string_view>
#include <type_traits>
#include <vector>

namespace satproof::util {

/// Splits a std::istream into lines, reading it in fixed 64 KiB chunks.
///
/// Lines are split as std::getline splits them: the text between '\n'
/// bytes, without the '\n'; a final line with no '\n' is still a line, and
/// input that ends in '\n' has no empty line after it. Each line is handed
/// out as a view into the scanner's buffer, so the text readers pay no
/// per-line allocation. A line that straddles a chunk boundary is carried
/// over into the next read; a line longer than a chunk grows the buffer to
/// hold it.
class LineScanner {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{64} << 10;

  /// Reads from `in`, which must outlive the scanner.
  explicit LineScanner(std::istream& in) : in_(&in), buf_(kChunkBytes) {}

  /// Sets `line` to the next line and returns true, or returns false at the
  /// end of the input. `line` stays valid until the next call to next() or
  /// restart().
  bool next(std::string_view& line) {
    for (;;) {
      const char* start = buf_.data() + pos_;
      const auto* nl = static_cast<const char*>(
          std::memchr(start, '\n', end_ - pos_));
      if (nl != nullptr) {
        line = std::string_view(start, static_cast<std::size_t>(nl - start));
        pos_ += line.size() + 1;
        ++line_no_;
        return true;
      }
      if (eof_) {
        if (pos_ == end_) return false;
        line = std::string_view(start, end_ - pos_);
        pos_ = end_;
        ++line_no_;
        return true;
      }
      refill();
    }
  }

  /// 1-based number of the line next() returned last; 0 before the first.
  [[nodiscard]] std::size_t line_number() const { return line_no_; }

  /// Logical byte offset just past the line next() returned last (and its
  /// '\n'), counted from where the scanner started reading.
  [[nodiscard]] std::uint64_t offset() const { return base_ + pos_; }

  /// Drops the buffer after the caller has moved the stream to logical
  /// byte `offset`, which starts line `line_number` + 1.
  void restart(std::uint64_t offset, std::size_t line_number) {
    base_ = offset;
    pos_ = end_ = 0;
    line_no_ = line_number;
    eof_ = false;
  }

 private:
  /// Moves the unfinished line to the front of the buffer, doubling the
  /// buffer if that line fills it, then fills the rest from the stream.
  void refill() {
    if (pos_ != 0) {
      std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
      base_ += pos_;
      end_ -= pos_;
      pos_ = 0;
    }
    if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
    const std::size_t want = buf_.size() - end_;
    in_->read(buf_.data() + end_, static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(in_->gcount());
    end_ += got;
    // istream::read comes up short only at the end of the stream.
    if (got < want) eof_ = true;
  }

  std::istream* in_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;      ///< start of the unread part of buf_
  std::size_t end_ = 0;      ///< end of the bytes read into buf_
  std::uint64_t base_ = 0;   ///< logical offset of buf_[0]
  std::size_t line_no_ = 0;
  bool eof_ = false;  ///< the stream has nothing more to give
};

/// Whitespace as `std::istream >>` skips it in the C locale: space, \t, \n,
/// \v, \f and \r.
[[nodiscard]] constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// |v| as an unsigned value; defined for INT64_MIN too.
[[nodiscard]] constexpr std::uint64_t magnitude(std::int64_t v) {
  return v < 0 ? 0 - static_cast<std::uint64_t>(v)
               : static_cast<std::uint64_t>(v);
}

/// Reads tokens from one line with the semantics of `std::istream >>` on an
/// istringstream of that line, without building the stream.
///
/// Integers are decimal with an optional leading '-' or '+'. A token need
/// not end at whitespace: "3-4" reads as 3 then -4, and "2x" as 2 then a
/// bad token at 'x'. A value out of range for the target type is a bad
/// token; for an unsigned target a '-' negates modulo 2^64, as `>>` does.
class TokenCursor {
 public:
  explicit TokenCursor(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// Skips whitespace and reads one integer into `out`, returning true; on
  /// false (no token left, or a bad one) `out` is unchanged, and at_end()
  /// tells the two apart as `eof()` would.
  template <class Int>
  bool next(Int& out) {
    static_assert(std::is_same_v<Int, std::int64_t> ||
                  std::is_same_v<Int, std::uint64_t>);
    skip_space();
    if (p_ == end_) return false;
    const bool negative = *p_ == '-';
    if (negative || *p_ == '+') ++p_;
    std::uint64_t abs = 0;
    const auto [ptr, ec] = std::from_chars(p_, end_, abs);
    // On failure `>>` has consumed the sign and every digit, so at_end()
    // afterwards answers what `eof()` would.
    p_ = ptr;
    if (ec != std::errc{}) return false;
    if constexpr (std::is_signed_v<Int>) {
      constexpr auto kMax =
          static_cast<std::uint64_t>(std::numeric_limits<Int>::max());
      if (abs > kMax + (negative ? 1 : 0)) return false;
      out = static_cast<Int>(negative ? 0 - abs : abs);
    } else {
      out = negative ? 0 - abs : abs;
    }
    return true;
  }

  /// Skips whitespace and reads one character, as `>>` into a char does;
  /// returns '\0' when only whitespace was left.
  char next_char() {
    skip_space();
    return p_ == end_ ? '\0' : *p_++;
  }

  /// Skips whitespace and reads one whitespace-delimited word, as `>>` into
  /// a std::string does; empty when only whitespace was left.
  std::string_view next_word() {
    skip_space();
    const char* start = p_;
    while (p_ != end_ && !is_space(*p_)) ++p_;
    return {start, static_cast<std::size_t>(p_ - start)};
  }

  /// True when the line is used up, which is when `>>` would have set
  /// eofbit: a read reached the end of the line.
  [[nodiscard]] bool at_end() const { return p_ == end_; }

 private:
  void skip_space() {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
};

}  // namespace satproof::util
