// Corrupt-certificate rejection sweep for the trusted kernel: every
// tampering mode — altered hints, reordered steps, bad or missing
// deletions, truncated files, a certificate that never derives the empty
// clause — must REJECT with a diagnostic naming the offending line (text)
// or record index (binary). The kernel is the trust anchor of the whole
// certificate pipeline, so its rejection behavior is pinned as precisely
// as its acceptance behavior.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/cert/kernel.hpp"

namespace satproof {
namespace {

// An 8-clause UNSAT fixture (every assignment falsified by construction).
constexpr const char* kCnf =
    "p cnf 4 8\n"
    "1 2 0\n"
    "1 -2 0\n"
    "-1 3 0\n"
    "-1 -3 0\n"
    "2 4 0\n"
    "-2 -4 0\n"
    "3 -4 0\n"
    "-3 4 0\n";

// The canonical valid certificate: derive {1} from clauses 1,2, then the
// empty clause from 9 (unit) and clauses 3,4.
constexpr const char* kValidCert =
    "9 1 0 1 2 0\n"
    "10 0 9 3 4 0\n";

kern::VerifyResult verify(const std::string& cert,
                          const std::string& cnf = kCnf) {
  std::istringstream cnf_in(cnf);
  std::istringstream cert_in(cert);
  return kern::verify_lrat(cnf_in, cert_in);
}

TEST(CertCorrupt, ValidBaselineVerifies) {
  const kern::VerifyResult r = verify(kValidCert);
  EXPECT_TRUE(r.verified) << r.error;
  EXPECT_EQ(r.additions, 2u);
  EXPECT_EQ(r.deletions, 0u);
}

// --- tampered hints ----------------------------------------------------

TEST(CertCorrupt, SatisfiedHintRejects) {
  // Hint 3 is {-1, 3}; under the assignment falsifying {1}, -1 is true.
  const kern::VerifyResult r = verify("9 1 0 1 3 0\n10 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("satisfied"), std::string::npos) << r.error;
}

TEST(CertCorrupt, NonUnitHintRejects) {
  // Deriving the empty clause directly: hint 3 = {-1, 3} has two
  // unassigned literals under the empty assignment.
  const kern::VerifyResult r = verify("9 0 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("neither unit nor falsified"), std::string::npos)
      << r.error;
}

TEST(CertCorrupt, HintsEndingWithoutConflictReject) {
  const kern::VerifyResult r = verify("9 1 0 1 0\n10 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("without reaching a conflict"), std::string::npos)
      << r.error;
}

TEST(CertCorrupt, UnknownHintRejects) {
  const kern::VerifyResult r = verify("9 1 0 1 42 0\n10 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("unknown clause 42"), std::string::npos) << r.error;
}

TEST(CertCorrupt, NegativeRatHintRejects) {
  const kern::VerifyResult r = verify("9 1 0 -1 2 0\n10 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("RAT"), std::string::npos) << r.error;
}

// --- reordered steps ---------------------------------------------------

TEST(CertCorrupt, ReorderedStepsReject) {
  // Swapping the two additions makes line 1 reference clause 9 before it
  // exists.
  const kern::VerifyResult r = verify("10 0 9 3 4 0\n9 1 0 1 2 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("unknown clause 9"), std::string::npos) << r.error;
}

TEST(CertCorrupt, NonIncreasingIdRejects) {
  const kern::VerifyResult r = verify("9 1 0 1 2 0\n5 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 2u);
  EXPECT_NE(r.error.find("does not exceed"), std::string::npos) << r.error;
}

// --- deletions ---------------------------------------------------------

TEST(CertCorrupt, UseAfterDeleteRejects) {
  // A deletion the emitter would never write: clause 9 is still needed.
  const kern::VerifyResult r =
      verify("9 1 0 1 2 0\n9 d 9 0\n10 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 3u);
  EXPECT_NE(r.error.find("deleted clause 9"), std::string::npos) << r.error;
}

TEST(CertCorrupt, DeleteUnknownClauseRejects) {
  const kern::VerifyResult r =
      verify("9 1 0 1 2 0\n9 d 42 0\n10 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 2u);
  EXPECT_NE(r.error.find("unknown clause 42"), std::string::npos) << r.error;
}

TEST(CertCorrupt, DoubleDeleteRejects) {
  const kern::VerifyResult r =
      verify("9 1 0 1 2 0\n9 d 5 0\n9 d 5 0\n10 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 3u);
  EXPECT_NE(r.error.find("already deleted"), std::string::npos) << r.error;
}

TEST(CertCorrupt, DeletingUnusedClauseStillVerifies) {
  // Deleting a clause the rest of the proof never touches is legal; the
  // rejection cases above are about *misuse*, not deletion per se.
  const kern::VerifyResult r =
      verify("9 1 0 1 2 0\n9 d 5 6 0\n10 0 9 3 4 0\n");
  EXPECT_TRUE(r.verified) << r.error;
  EXPECT_EQ(r.deletions, 2u);
}

// --- truncation and malformed records ----------------------------------

TEST(CertCorrupt, TruncatedHintListRejects) {
  const kern::VerifyResult r = verify("9 1 0 1 2 0\n10 0 9 3");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 2u);
  EXPECT_NE(r.error.find("truncated"), std::string::npos) << r.error;
}

TEST(CertCorrupt, TruncatedLiteralListRejects) {
  const kern::VerifyResult r = verify("9 1");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("truncated"), std::string::npos) << r.error;
}

TEST(CertCorrupt, TrailingTokensReject) {
  const kern::VerifyResult r = verify("9 1 0 1 2 0 7\n10 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("trailing tokens"), std::string::npos) << r.error;
}

TEST(CertCorrupt, EmptyCertificateRejects) {
  const kern::VerifyResult r = verify("");
  EXPECT_FALSE(r.verified);
  EXPECT_NE(r.error.find("empty"), std::string::npos) << r.error;
}

// --- certificates that never reach the empty clause --------------------

TEST(CertCorrupt, MissingFinalEmptyClauseRejects) {
  const kern::VerifyResult r = verify("9 1 0 1 2 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("without deriving the empty clause"),
            std::string::npos)
      << r.error;
}

TEST(CertCorrupt, NonEmptyFinalClauseRejects) {
  // Both steps check, but the last derived clause is {1}, not {} — the
  // certificate proves nothing about unconditional unsatisfiability.
  const kern::VerifyResult r = verify("9 1 0 1 2 0\n10 1 0 9 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 2u);
  EXPECT_NE(r.error.find("without deriving the empty clause"),
            std::string::npos)
      << r.error;
}

// --- the text scanner's accepted tokens ---------------------------------

// One token per row, spliced into the certificate at the position the row
// names. An accepted deletion token must read as 5, an unused clause, so
// the certificate still verifies. A rejected token names the rest of the
// line from the token on. These are strtoll's base-10 rules: leading
// whitespace, one optional sign, digits, the int64 range.
struct TokenRow {
  const char* token;
  bool in_literal;  // false: the deletion ID on line 2; true: line 1's literal
  bool verified;
  std::uint64_t line;
  const char* error;
};

constexpr TokenRow kTokenRows[] = {
    {"+5", false, true, 3, ""},
    {"\v5", false, true, 3, ""},
    {"\f5", false, true, 3, ""},
    {"\v\f 5", false, true, 3, ""},
    {"\v+5", false, true, 3, ""},
    {"00005", false, true, 3, ""},
    {"5abc", false, false, 2, "bad token 'abc 0'"},
    {"0x1", false, false, 2, "bad token 'x1 0'"},
    {"-", false, false, 2, "bad token '- 0'"},
    {"--1", false, false, 2, "bad token '--1 0'"},
    {"+-5", false, false, 2, "bad token '+-5 0'"},
    {"++5", false, false, 2, "bad token '++5 0'"},
    {"+ 5", false, false, 2, "bad token '+ 5 0'"},
    {"+\v5", false, false, 2, "bad token '+\v5 0'"},
    {"\v-", false, false, 2, "bad token '\v- 0'"},
    {"-0", false, false, 2, "trailing tokens after deletion record"},
    {"9223372036854775807", false, false, 2,
     "deletion references unknown clause 9223372036854775807"},
    {"9223372036854775808", false, false, 2,
     "bad token '9223372036854775808 0'"},
    {"+9223372036854775808", false, false, 2,
     "bad token '+9223372036854775808 0'"},
    {"-9223372036854775808", false, false, 2,
     "negative clause id in deletion record"},
    {"-9223372036854775809", false, false, 2,
     "bad token '-9223372036854775809 0'"},
    {"2147483648", true, false, 1, "literal 2147483648 out of range"},
    {"-2147483649", true, false, 1, "literal -2147483649 out of range"},
    {"2147483647", true, false, 1,
     "literal 2147483647 is outside the CNF variable range"},
};

TEST(CertCorrupt, ScannerTokenTable) {
  for (const TokenRow& row : kTokenRows) {
    const std::string tok = row.token;
    const std::string cert =
        row.in_literal ? "9 " + tok + " 0 1 2 0\n10 0 9 3 4 0\n"
                       : "9 1 0 1 2 0\n9 d " + tok + " 0\n10 0 9 3 4 0\n";
    SCOPED_TRACE("token '" + tok + "'");
    const kern::VerifyResult r = verify(cert);
    EXPECT_EQ(r.verified, row.verified);
    EXPECT_EQ(r.line, row.line);
    EXPECT_EQ(r.error, row.error);
  }
}

// --- addition IDs with gaps --------------------------------------------

// Additions numbered 13, 17, 20, 21, 24, 28 over the 8 originals, with a
// deletion of an original (5) and of an addition (20). By the last line
// the ID array holds 13 entries, so hint 13 probes index 12 (holding 24)
// and falls back to the binary search, while hint 4 hits its dense slot.
std::string sparse_cert(const std::string& last_hints) {
  return "13 1 0 1 2 0\n"
         "13 d 5 0\n"
         "17 3 0 13 3 0\n"
         "20 1 3 0 13 0\n"
         "21 4 0 17 8 0\n"
         "24 -2 0 21 6 0\n"
         "24 d 20 0\n"
         "28 0 " + last_hints + " 0\n";
}

TEST(CertCorrupt, SparseIdsVerify) {
  const kern::VerifyResult r = verify(sparse_cert("13 17 4"));
  EXPECT_TRUE(r.verified) << r.error;
  EXPECT_EQ(r.line, 8u);
  EXPECT_EQ(r.additions, 6u);
  EXPECT_EQ(r.deletions, 2u);
}

TEST(CertCorrupt, SparseIdHintInGapRejects) {
  const kern::VerifyResult r = verify(sparse_cert("13 10 4"));
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 8u);
  EXPECT_EQ(r.error, "hint references unknown clause 10");
}

TEST(CertCorrupt, SparseIdHintPastLastRejects) {
  const kern::VerifyResult r = verify(sparse_cert("13 29 4"));
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 8u);
  EXPECT_EQ(r.error, "hint references unknown clause 29");
}

TEST(CertCorrupt, SparseIdHintOnDeletedDenseClauseRejects) {
  const kern::VerifyResult r = verify(sparse_cert("13 17 5"));
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 8u);
  EXPECT_EQ(r.error, "hint references deleted clause 5");
}

TEST(CertCorrupt, SparseIdHintOnDeletedSparseClauseRejects) {
  const kern::VerifyResult r = verify(sparse_cert("20"));
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 8u);
  EXPECT_EQ(r.error, "hint references deleted clause 20");
}

// --- binary (GRIT-style) variant ---------------------------------------

// The fixture's valid binary certificate (same proof, varint-encoded).
std::string valid_binary() {
  return std::string("\x61\x09\x02\x00\x01\x02\x00"
                     "\x61\x0a\x00\x09\x03\x04\x00",
                     14);
}

TEST(CertCorrupt, ValidBinaryVerifies) {
  const kern::VerifyResult r = verify(valid_binary());
  EXPECT_TRUE(r.verified) << r.error;
  EXPECT_EQ(r.additions, 2u);
}

TEST(CertCorrupt, TruncatedBinaryRejects) {
  std::string cert = valid_binary();
  cert.resize(cert.size() - 3);  // cut mid-record
  const kern::VerifyResult r = verify(cert);
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 2u);  // record index, not byte offset
  EXPECT_NE(r.error.find("truncated"), std::string::npos) << r.error;
}

TEST(CertCorrupt, BinaryUnknownTagRejects) {
  std::string cert = valid_binary();
  cert[7] = 'x';  // second record's tag byte
  const kern::VerifyResult r = verify(cert);
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 2u);
  EXPECT_NE(r.error.find("unknown record tag"), std::string::npos)
      << r.error;
}

TEST(CertCorrupt, BinaryBadLiteralEncodingRejects) {
  std::string cert = valid_binary();
  cert[2] = '\x01';  // literal varint 1 => magnitude 0: invalid
  const kern::VerifyResult r = verify(cert);
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("out of range"), std::string::npos) << r.error;
}

TEST(CertCorrupt, BinaryTamperedHintRejects) {
  std::string cert = valid_binary();
  cert[4] = '\x03';  // first record's hints become 3,2: hint 3 satisfied
  const kern::VerifyResult r = verify(cert);
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("satisfied"), std::string::npos) << r.error;
}

// A varint's 10th byte holds bit 63 only. The first record's literal
// terminator written as 2^64 used to lose its high bit, read as 0, and
// verify.
TEST(CertCorrupt, BinaryVarintAbove64BitsRejects) {
  std::string cert = valid_binary();
  cert.replace(3, 1, std::string("\x80\x80\x80\x80\x80\x80\x80\x80\x80\x02", 10));
  const kern::VerifyResult r = verify(cert);
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_EQ(r.error, "varint overflows 64 bits");
}

TEST(CertCorrupt, BinaryVarintOfTenBytesIsRead) {
  // 2^63, the largest value a 10th byte can carry, as the first hint.
  std::string cert = valid_binary();
  cert.replace(4, 1, std::string("\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01", 10));
  const kern::VerifyResult r = verify(cert);
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_EQ(r.error, "hint references unknown clause 9223372036854775808");
}

// --- hostile CNF input -------------------------------------------------

TEST(CertCorrupt, CnfLiteralOutOfRangeRejects) {
  const kern::VerifyResult r =
      verify(kValidCert, "p cnf 2 1\n1 5 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_NE(r.error.find("exceeds the declared variable count"),
            std::string::npos)
      << r.error;
}

TEST(CertCorrupt, CnfClauseCountMismatchRejects) {
  const kern::VerifyResult r = verify(kValidCert, "p cnf 2 3\n1 2 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_NE(r.error.find("declares 3 clauses"), std::string::npos)
      << r.error;
}

// A 'c' token is a comment only at the start of a line, as dimacs::parse
// reads one. Read as a comment, this 'c' would drop the rest of line 2,
// and the kernel would verify the CNF {1} {-1} from text that
// dimacs::parse rejects with "non-integer token".
TEST(CertCorrupt, CnfMidLineCommentTokenRejects) {
  const std::string cnf = "p cnf 1 2\n1 c note\n0 -1 0\n";
  const kern::VerifyResult r = verify("3 0 1 2 0\n", cnf);
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 0u);
  EXPECT_EQ(r.error, "CNF: bad token 'c'");
  // At the start of a line the same token is a comment.
  EXPECT_TRUE(verify("3 0 1 2 0\n", "p cnf 1 2\n1 0\nc note\n-1 0\n")
                  .verified);
}

// DIMACS files often open with several comment lines, and comments may
// sit between clauses; each one starts its line.
TEST(CertCorrupt, CnfConsecutiveCommentLinesVerify) {
  EXPECT_TRUE(verify("3 0 1 2 0\n", "c a\nc b\np cnf 1 2\n1 0\n-1 0\n")
                  .verified);
  const kern::VerifyResult r = verify(
      "3 0 1 2 0\n", "c a\nc b\np cnf 1 2\nc x\nc y\n1 0\nc z\n-1 0\n");
  EXPECT_TRUE(r.verified) << r.error;
}

TEST(CertCorrupt, CnfMissingHeaderRejects) {
  const kern::VerifyResult r = verify(kValidCert, "1 2 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_NE(r.error.find("problem line"), std::string::npos) << r.error;
}

}  // namespace
}  // namespace satproof
