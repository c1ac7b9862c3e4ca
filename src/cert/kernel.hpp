#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace satproof::kern {

// The trusted kernel: an LRAT certificate checker deliberately kept to a
// few hundred lines of plain standard C++ — no arena, no mmap, no
// project dependencies — so it can be audited by eye. Everything else in
// this repository (the optimized replay backends, the emitter, the
// service) is untrusted as far as a certified verdict is concerned: the
// kernel re-derives unsatisfiability from the original CNF plus the
// certificate's hints alone. tools/kernel_audit.py enforces the size and
// dependency budget in CI.

/// Outcome of a certificate check.
struct VerifyResult {
  bool verified = false;   ///< true iff the empty clause was derived
  std::string error;       ///< first rejection diagnostic ("" when verified)
  std::uint64_t line = 0;  ///< 1-based text line / binary record index; 0 = n/a
  std::uint64_t additions = 0;  ///< addition steps accepted
  std::uint64_t deletions = 0;  ///< clauses deleted
};

/// Checks an LRAT certificate (text, or the binary GRIT-style variant —
/// autodetected from the first byte) against a DIMACS CNF formula.
///
/// Each addition must be a reverse unit propagation consequence *as
/// hinted*: negate the added clause, then every hint clause in order must
/// be unit (extending the assignment) or falsified (conflict — the step
/// is accepted and any remaining hints are ignored). A hint that is
/// satisfied, or leaves two or more literals unassigned, rejects the
/// certificate; so do unknown or deleted clause IDs, non-increasing
/// addition IDs, negative (RAT) hints, deletion of an unknown or
/// already-deleted clause, and a binary varint above 64 bits. The
/// certificate is VERIFIED once the empty clause is derived; a certificate
/// that ends without deriving it is REJECTED.
VerifyResult verify_lrat(std::istream& cnf, std::istream& cert);

}  // namespace satproof::kern
