// Unit tests for src/cnf: literals, formulas, DIMACS I/O, model checking.

#include <gtest/gtest.h>

#include <sstream>

#include "src/cert/kernel.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/cnf/formula.hpp"
#include "src/cnf/model.hpp"
#include "src/cnf/types.hpp"

namespace satproof {
namespace {

TEST(Lit, EncodingRoundTrip) {
  const Lit p = Lit::pos(5);
  EXPECT_EQ(p.var(), 5u);
  EXPECT_FALSE(p.negated());
  const Lit n = ~p;
  EXPECT_EQ(n.var(), 5u);
  EXPECT_TRUE(n.negated());
  EXPECT_EQ(~n, p);
  EXPECT_EQ(Lit::from_code(p.code()), p);
}

TEST(Lit, DimacsConversion) {
  EXPECT_EQ(Lit::pos(0).to_dimacs(), 1);
  EXPECT_EQ(Lit::neg(0).to_dimacs(), -1);
  EXPECT_EQ(Lit::pos(41).to_dimacs(), 42);
  EXPECT_EQ(Lit::from_dimacs(42), Lit::pos(41));
  EXPECT_EQ(Lit::from_dimacs(-7), Lit::neg(6));
  for (const std::int64_t d : {1, -1, 5, -5, 1000, -1000}) {
    EXPECT_EQ(Lit::from_dimacs(d).to_dimacs(), d);
  }
}

TEST(Lit, OrderingFollowsCodes) {
  EXPECT_LT(Lit::pos(0), Lit::neg(0));
  EXPECT_LT(Lit::neg(0), Lit::pos(1));
}

TEST(Lit, ToStringForms) {
  EXPECT_EQ(to_string(Lit::pos(3)), "x3");
  EXPECT_EQ(to_string(Lit::neg(3)), "~x3");
  EXPECT_EQ(to_string(Lit::invalid()), "<invalid>");
}

TEST(LBool, NegationTable) {
  EXPECT_EQ(~LBool::True, LBool::False);
  EXPECT_EQ(~LBool::False, LBool::True);
  EXPECT_EQ(~LBool::Undef, LBool::Undef);
}

TEST(Formula, AddClauseAssignsSequentialIds) {
  Formula f;
  EXPECT_EQ(f.add_clause({Lit::pos(0)}), 0u);
  EXPECT_EQ(f.add_clause({Lit::neg(1), Lit::pos(2)}), 1u);
  EXPECT_EQ(f.num_clauses(), 2u);
  EXPECT_EQ(f.num_vars(), 3u);
  EXPECT_EQ(f.num_literals(), 3u);
}

TEST(Formula, ClauseAccessPreservesLiterals) {
  Formula f;
  f.add_clause({Lit::pos(2), Lit::neg(0), Lit::pos(1)});
  const auto c = f.clause(0);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], Lit::pos(2));
  EXPECT_EQ(c[1], Lit::neg(0));
  EXPECT_EQ(c[2], Lit::pos(1));
}

TEST(Formula, EmptyClauseAllowed) {
  Formula f;
  f.add_clause(std::initializer_list<Lit>{});
  EXPECT_EQ(f.clause(0).size(), 0u);
}

TEST(Formula, InvalidLiteralRejected) {
  Formula f;
  EXPECT_THROW(f.add_clause({Lit::invalid()}), std::invalid_argument);
}

TEST(Formula, OutOfRangeClauseIdThrows) {
  Formula f;
  EXPECT_THROW(f.clause(0), std::out_of_range);
}

TEST(Formula, NumUsedVarsIgnoresDeclaredButUnused) {
  Formula f(10);
  f.add_clause({Lit::pos(0), Lit::neg(9)});
  EXPECT_EQ(f.num_vars(), 10u);
  EXPECT_EQ(f.num_used_vars(), 2u);
}

TEST(Formula, SubformulaSelectsClausesInOrder) {
  Formula f;
  f.add_clause({Lit::pos(0)});
  f.add_clause({Lit::pos(1)});
  f.add_clause({Lit::pos(2)});
  const ClauseId ids[] = {2, 0};
  const Formula sub = f.subformula(ids);
  EXPECT_EQ(sub.num_clauses(), 2u);
  EXPECT_EQ(sub.clause(0)[0], Lit::pos(2));
  EXPECT_EQ(sub.clause(1)[0], Lit::pos(0));
  EXPECT_EQ(sub.num_vars(), f.num_vars());
}

TEST(Dimacs, ParsesStandardFormat) {
  const Formula f = dimacs::parse_string(
      "c a comment\n"
      "p cnf 3 2\n"
      "1 -2 0\n"
      "-1 2 3 0\n");
  EXPECT_EQ(f.num_vars(), 3u);
  ASSERT_EQ(f.num_clauses(), 2u);
  EXPECT_EQ(f.clause(0)[0], Lit::pos(0));
  EXPECT_EQ(f.clause(0)[1], Lit::neg(1));
  EXPECT_EQ(f.clause(1)[2], Lit::pos(2));
}

TEST(Dimacs, ClauseMaySpanLines) {
  const Formula f = dimacs::parse_string("p cnf 2 1\n1\n-2\n0\n");
  ASSERT_EQ(f.num_clauses(), 1u);
  EXPECT_EQ(f.clause(0).size(), 2u);
}

TEST(Dimacs, HonoursDeclaredVarCountAboveUsage) {
  const Formula f = dimacs::parse_string("p cnf 10 1\n1 0\n");
  EXPECT_EQ(f.num_vars(), 10u);
}

TEST(Dimacs, RejectsMissingHeader) {
  EXPECT_THROW(dimacs::parse_string("1 2 0\n"), std::runtime_error);
}

TEST(Dimacs, RejectsLiteralBeyondDeclared) {
  EXPECT_THROW(dimacs::parse_string("p cnf 2 1\n3 0\n"), std::runtime_error);
}

TEST(Dimacs, RejectsUnterminatedClause) {
  EXPECT_THROW(dimacs::parse_string("p cnf 2 1\n1 2\n"), std::runtime_error);
}

TEST(Dimacs, RejectsClauseCountMismatch) {
  EXPECT_THROW(dimacs::parse_string("p cnf 2 2\n1 0\n"), std::runtime_error);
}

TEST(Dimacs, RejectsNonInteger) {
  EXPECT_THROW(dimacs::parse_string("p cnf 2 1\n1 x 0\n"), std::runtime_error);
}

TEST(Dimacs, RejectsVariableCountThatWouldAlias) {
  // Lit codes are 32 bits: without the cap, variable 2^31 + 1 aliases
  // variable 1 and this satisfiable formula parses as (1) (-1).
  try {
    (void)dimacs::parse_string("p cnf 2147483649 2\n1 0\n-2147483649 0\n");
    FAIL() << "expected the header to be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "dimacs: line 1: declared variable count 2147483649 exceeds "
              "268435456");
  }
  // 2^32 + 1 would otherwise parse as a 1-variable formula.
  EXPECT_THROW((void)dimacs::parse_string("p cnf 4294967297 1\n1 0\n"),
               std::runtime_error);
}

TEST(Dimacs, RejectsTextAfterHeaderClauseCount) {
  try {
    (void)dimacs::parse_string("p cnf 1 2c\n1 0\n-1 0\n");
    FAIL() << "expected the header to be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "dimacs: line 1: unexpected 'c' after the clause count in the "
              "'p cnf' header");
  }
  EXPECT_THROW((void)dimacs::parse_string("c x\np cnf 1 2 c note\n1 0\n-1 0\n"),
               std::runtime_error);
  EXPECT_THROW((void)dimacs::parse_string("p cnf 1 2 0\n1 0\n-1 0\n"),
               std::runtime_error);
  EXPECT_THROW((void)dimacs::parse_string("p cnf 1x 2\n1 0\n-1 0\n"),
               std::runtime_error);
}

TEST(Dimacs, AcceptsBlanksAfterHeader) {
  EXPECT_EQ(dimacs::parse_string("p cnf 1 2 \t\n1 0\n-1 0\n").num_clauses(),
            2u);
  EXPECT_EQ(dimacs::parse_string("p  cnf\t1  2\r\n1 0\n-1 0\n").num_clauses(),
            2u);
}

// The CNF reader and the trusted kernel's own reader agree on which
// headers are well formed: each header below is accepted by both (and the
// kernel then verifies the refutation of (1)(-1)) or rejected by both.
TEST(Dimacs, HeaderVerdictMatchesTheKernel) {
  const char* headers[] = {"p cnf 1 2",   "p cnf 1 2 ",   "p cnf 1 2c",
                           "p cnf 1 2 c", "p cnf 1 2 x",  "p cnf 1 2 0",
                           "p cnf 1x 2",  "p cnf 1 -2",   "p dnf 1 2"};
  for (const char* header : headers) {
    SCOPED_TRACE(header);
    const std::string cnf = std::string(header) + "\n1 0\n-1 0\n";
    bool parsed = true;
    try {
      (void)dimacs::parse_string(cnf);
    } catch (const std::runtime_error&) {
      parsed = false;
    }
    std::istringstream cnf_in(cnf);
    std::istringstream cert_in("3 0 1 2 0\n");
    const kern::VerifyResult r = kern::verify_lrat(cnf_in, cert_in);
    EXPECT_EQ(r.verified, parsed) << r.error;
    if (!parsed) {
      EXPECT_EQ(r.error.rfind("CNF: ", 0), 0u) << r.error;
    }
  }
}

TEST(Dimacs, AcceptsVariableCountAtKernelBound) {
  const Formula f = dimacs::parse_string("p cnf 268435456 1\n-268435456 0\n");
  EXPECT_EQ(f.num_vars(), Var{1} << 28);
  EXPECT_EQ(f.clause(0)[0], Lit::neg((Var{1} << 28) - 1));
}

TEST(Dimacs, SatlibTrailerIgnored) {
  // SATLIB benchmark files end with "%\n0\n"; the trailer must not be read
  // as an empty clause.
  const Formula f = dimacs::parse_string("p cnf 2 1\n1 -2 0\n%\n0\n");
  ASSERT_EQ(f.num_clauses(), 1u);
  EXPECT_EQ(f.clause(0).size(), 2u);
}

TEST(Dimacs, WindowsLineEndingsAccepted) {
  const Formula f = dimacs::parse_string("p cnf 2 1\r\n1 -2 0\r\n");
  ASSERT_EQ(f.num_clauses(), 1u);
  EXPECT_EQ(f.num_vars(), 2u);
}

TEST(Dimacs, WriteParseRoundTrip) {
  Formula f(4);
  f.add_clause({Lit::pos(0), Lit::neg(3)});
  f.add_clause({Lit::neg(1)});
  f.add_clause({Lit::pos(2), Lit::pos(1), Lit::neg(0)});
  std::ostringstream out;
  dimacs::write(out, f, "round trip\nsecond line");
  const Formula back = dimacs::parse_string(out.str());
  ASSERT_EQ(back.num_clauses(), f.num_clauses());
  EXPECT_EQ(back.num_vars(), f.num_vars());
  for (ClauseId id = 0; id < f.num_clauses(); ++id) {
    const auto a = f.clause(id), b = back.clause(id);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(Model, ValueOfRespectsPhase) {
  Model m(2, LBool::Undef);
  m[0] = LBool::True;
  EXPECT_EQ(value_of(Lit::pos(0), m), LBool::True);
  EXPECT_EQ(value_of(Lit::neg(0), m), LBool::False);
  EXPECT_EQ(value_of(Lit::pos(1), m), LBool::Undef);
  EXPECT_EQ(value_of(Lit::pos(5), m), LBool::Undef);  // out of range
}

TEST(Model, SatisfiesDetectsFalsifiedClause) {
  Formula f;
  f.add_clause({Lit::pos(0), Lit::pos(1)});
  f.add_clause({Lit::neg(0)});
  Model m(2, LBool::False);
  m[0] = LBool::True;
  const auto bad = first_falsified_clause(f, m);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(*bad, 1u);
  EXPECT_FALSE(satisfies(f, m));
}

TEST(Model, UnassignedLiteralDoesNotSatisfy) {
  Formula f;
  f.add_clause({Lit::pos(0)});
  const Model m(1, LBool::Undef);
  EXPECT_FALSE(satisfies(f, m));
}

TEST(Model, SatisfiesAcceptsGoodModel) {
  Formula f;
  f.add_clause({Lit::pos(0), Lit::pos(1)});
  f.add_clause({Lit::neg(1), Lit::pos(0)});
  Model m(2, LBool::Undef);
  m[0] = LBool::True;
  m[1] = LBool::False;
  EXPECT_TRUE(satisfies(f, m));
}

}  // namespace
}  // namespace satproof
