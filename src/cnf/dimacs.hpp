#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/cnf/formula.hpp"

namespace satproof::dimacs {

/// Largest variable count a header may declare: 2^28, the trusted kernel's
/// own bound, so this parser accepts no variable count the kernel refuses.
inline constexpr std::int64_t kMaxVars = std::int64_t{1} << 28;

/// Parses a DIMACS CNF stream.
///
/// Accepts the standard format: optional comment lines (`c ...`), a header
/// `p cnf <vars> <clauses>`, then whitespace-separated signed literals with
/// clauses terminated by 0. The header's variable count is honoured even
/// when some variables never occur (the paper's Table 1/Table 3 discussion
/// distinguishes declared from used variables), up to kMaxVars. Lines may
/// end in CRLF, and a `%` line ends the clauses (the SATLIB trailer).
/// Reads `in` in 64 KiB chunks, so it may consume bytes past a `%` line.
/// Throws std::runtime_error with a line number on malformed input.
[[nodiscard]] Formula parse(std::istream& in);

/// Parses a DIMACS CNF string.
[[nodiscard]] Formula parse_string(const std::string& text);

/// Parses a DIMACS CNF file; throws std::runtime_error if unreadable.
[[nodiscard]] Formula parse_file(const std::string& path);

/// Writes `f` in DIMACS CNF format, with an optional comment block.
void write(std::ostream& out, const Formula& f, const std::string& comment = "");

/// Writes `f` to `path`; throws std::runtime_error on I/O failure.
void write_file(const std::string& path, const Formula& f,
                const std::string& comment = "");

}  // namespace satproof::dimacs
