#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace satproof::util {

/// LEB128-style variable-length integer codec.
///
/// The paper (Section 4) observes that its human-readable ASCII trace format
/// costs both disk space and checker parsing time, and estimates a 2-3x
/// compaction from a binary encoding. The binary trace writer implements
/// that suggestion on top of this codec: each value is emitted as 7-bit
/// groups, least significant first, with the high bit of every byte but the
/// last set.
///
/// Decoding is strict: every value has exactly one accepted encoding. A
/// 64-bit value occupies at most 10 bytes (the 10th may only be 0x00 or
/// 0x01), and zero-padded forms such as 0x80 0x00 — which would decode to
/// the same value as a shorter encoding — are rejected. Strictness matters
/// for the checker: accepting redundant encodings would let two
/// byte-different traces decode identically, weakening corruption
/// detection.

/// Appends the varint encoding of `value` to `out`.
void append_varint(std::vector<std::uint8_t>& out, std::uint64_t value);

/// Writes the varint encoding of `value` to `os`.
void write_varint(std::ostream& os, std::uint64_t value);

/// Reads one varint from `is`. Returns std::nullopt on EOF before the first
/// byte; throws std::runtime_error on a truncated, over-long, overflowing
/// or non-canonical encoding.
std::optional<std::uint64_t> read_varint(std::istream& is);

/// Decodes one varint from `[p, end)`, advancing `p` past it. This is the
/// zero-copy fast path used by the binary trace reader: no virtual calls,
/// no stream state, just pointer bumps. Throws std::runtime_error on
/// truncation (`p` hits `end` mid-value), over-long (> 10 bytes),
/// overflowing or non-canonical encodings.
///
/// Defined inline: the trace reader decodes millions of varints per check
/// (every clause ID, source delta and literal goes through here, and the
/// breadth-first checker reads the file twice), so the call must
/// vanish into the parse loop. Most trace fields are source deltas and
/// counts below 128, hence the dedicated one-byte early exit — a single
/// byte without the continuation bit is always canonical.
inline std::uint64_t decode_varint(const std::uint8_t*& p,
                                   const std::uint8_t* end) {
  if (p != end && *p < 0x80) return *p++;
  std::uint64_t value = 0;
  int shift = 0;
  while (true) {
    if (p == end) {
      throw std::runtime_error("varint: truncated encoding at end of stream");
    }
    const std::uint8_t byte = *p++;
    if ((byte & 0x80) == 0) {
      // Terminal byte: at shift 63 only bit 0 may be set (anything else
      // overflows uint64), and past the first byte a zero terminator means
      // the previous continuation bit was redundant padding — the same
      // value has a shorter encoding, so reject it as non-canonical.
      if (shift == 63 && (byte >> 1) != 0) {
        throw std::runtime_error("varint: value exceeds 64 bits");
      }
      if (shift > 0 && byte == 0) {
        throw std::runtime_error("varint: over-long encoding");
      }
      return value | static_cast<std::uint64_t>(byte) << shift;
    }
    if (shift == 63) {  // continuation past the 10th byte
      throw std::runtime_error("varint: over-long encoding");
    }
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    shift += 7;
  }
}

/// decode_varint for a cursor followed by at least 10 readable bytes (the
/// longest encoding), so no byte needs an end-of-buffer check: the binary
/// trace reader's loop over a source list that lies inside its window.
/// Same strictness and the same errors as the bounded form.
inline std::uint64_t decode_varint_padded(const std::uint8_t*& p) {
  if (*p < 0x80) return *p++;
  std::uint64_t value = *p & 0x7f;
  for (int i = 1;; ++i) {
    const std::uint8_t byte = p[i];
    const int shift = 7 * i;
    if ((byte & 0x80) == 0) {
      if (shift == 63 && (byte >> 1) != 0) {
        throw std::runtime_error("varint: value exceeds 64 bits");
      }
      if (byte == 0) throw std::runtime_error("varint: over-long encoding");
      p += i + 1;
      return value | static_cast<std::uint64_t>(byte) << shift;
    }
    if (shift == 63) throw std::runtime_error("varint: over-long encoding");
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
  }
}

/// Decodes one varint from `data` starting at `pos`, advancing `pos`.
/// Same strictness as the pointer form.
std::uint64_t decode_varint(const std::vector<std::uint8_t>& data,
                            std::size_t& pos);

/// Number of bytes the varint encoding of `value` occupies.
[[nodiscard]] std::size_t varint_size(std::uint64_t value);

}  // namespace satproof::util
