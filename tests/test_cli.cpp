// Tests for the satproof command-line interface, driven in-process.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "src/cert/kernel.hpp"
#include "src/util/temp_file.hpp"
#include "tools/cli.hpp"

namespace satproof::cli {
namespace {

struct CliRun {
  int exit_code;
  std::string out;
  std::string err;
};

CliRun run(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

class CliTest : public ::testing::Test {
 protected:
  util::TempFile cnf_{"cli-cnf"};
  util::TempFile aux_{"cli-aux"};
  util::TempFile aux2_{"cli-aux2"};

  std::string cnf() const { return cnf_.path().string(); }
  std::string aux() const { return aux_.path().string(); }
  std::string aux2() const { return aux2_.path().string(); }

  void write_cnf(const std::string& text) {
    std::ofstream(cnf_.path()) << text;
  }

  void gen_php(unsigned holes) {
    const CliRun g =
        run({"gen", "php", std::to_string(holes), "-o", cnf()});
    ASSERT_EQ(g.exit_code, 0) << g.err;
  }
};

TEST_F(CliTest, HelpPrintsUsage) {
  const CliRun r = run({"help"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("satproof solve"), std::string::npos);
}

TEST_F(CliTest, NoArgsFailsWithUsage) {
  const CliRun r = run({});
  EXPECT_EQ(r.exit_code, kExitError);
  EXPECT_NE(r.out.find("usage"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  const CliRun r = run({"frobnicate"});
  EXPECT_EQ(r.exit_code, kExitError);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, SolveSatInstance) {
  write_cnf("p cnf 2 2\n1 2 0\n-1 0\n");
  const CliRun r = run({"solve", cnf(), "--model"});
  EXPECT_EQ(r.exit_code, kExitSat);
  EXPECT_NE(r.out.find("s SATISFIABLE"), std::string::npos);
  EXPECT_NE(r.out.find("v -1 2 0"), std::string::npos);
}

TEST_F(CliTest, SolveUnsatWithChecks) {
  gen_php(5);
  const CliRun r = run({"solve", cnf(), "--check", "both", "--stats"});
  EXPECT_EQ(r.exit_code, kExitUnsat);
  EXPECT_NE(r.out.find("s UNSATISFIABLE"), std::string::npos);
  EXPECT_NE(r.out.find("depth-first check ok"), std::string::npos);
  EXPECT_NE(r.out.find("breadth-first check ok"), std::string::npos);
  EXPECT_NE(r.out.find("conflicts"), std::string::npos);
}

TEST_F(CliTest, SolveTraceThenCheckRoundTrip) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;

  const CliRun c = run({"check", cnf(), aux()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
  EXPECT_NE(c.out.find("VERIFIED"), std::string::npos);

  const CliRun cb = run({"check", "--bf", cnf(), aux()});
  EXPECT_EQ(cb.exit_code, 0) << cb.err;
}

TEST_F(CliTest, BinaryTraceRoundTrip) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux(), "--binary"});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  const CliRun c = run({"check", "--binary", cnf(), aux()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
}

TEST_F(CliTest, CheckStatsReportsArenaTraffic) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux(), "--binary"});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  const CliRun c = run({"check", "--binary", "--stats", cnf(), aux()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
  EXPECT_NE(c.out.find("stats: arena "), std::string::npos);
  EXPECT_NE(c.out.find("bytes allocated"), std::string::npos);
  EXPECT_NE(c.out.find("peak total"), std::string::npos);
  // The breadth-first window recycles released blocks; its stats line must
  // be present too (a nonzero recycled figure is exercised in unit tests).
  const CliRun bf = run({"check", "--bf", "--binary", "--stats", cnf(), aux()});
  EXPECT_EQ(bf.exit_code, 0) << bf.err;
  EXPECT_NE(bf.out.find("stats: arena "), std::string::npos);
}

TEST_F(CliTest, AutoCheckerPicksFromTraceSizeAndBudget) {
  // A small trace: df without a budget, window under one it overflows
  // (six times its size is the df estimate).
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  const auto trace_bytes = std::filesystem::file_size(aux());
  const CliRun df =
      run({"check", "--checker=auto", "--stats=json", cnf(), aux()});
  EXPECT_EQ(df.exit_code, 0) << df.err;
  EXPECT_NE(df.out.find("\"backend\":\"df\""), std::string::npos) << df.out;
  const CliRun fits = run({"check", "--checker=auto", "--stats=json",
                           "--mem-limit=" + std::to_string(6 * trace_bytes),
                           cnf(), aux()});
  EXPECT_EQ(fits.exit_code, 0) << fits.err;
  EXPECT_NE(fits.out.find("\"backend\":\"df\""), std::string::npos);
  const CliRun capped = run({"check", "--checker=auto", "--stats=json",
                             "--mem-limit=" + std::to_string(trace_bytes),
                             cnf(), aux()});
  EXPECT_EQ(capped.exit_code, 0) << capped.err;
  EXPECT_NE(capped.out.find("\"backend\":\"window\""), std::string::npos)
      << capped.out;
  const CliRun lrat = run({"export-lrat", "--checker=auto", cnf(), aux(),
                           "-o", aux2()});
  EXPECT_EQ(lrat.exit_code, 0) << lrat.err;
  EXPECT_NE(lrat.out.find("(df replay)"), std::string::npos) << lrat.out;
}

TEST_F(CliTest, CheckStatsJsonEmitsMachineReadableCounters) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  const CliRun c = run({"check", "--stats=json", cnf(), aux()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
  // Human verdict line first, then one JSON object with the counters the
  // service stats reply also serializes.
  EXPECT_NE(c.out.find("VERIFIED"), std::string::npos);
  EXPECT_NE(c.out.find("{\"total_derivations\":"), std::string::npos);
  EXPECT_NE(c.out.find("\"resolutions\":"), std::string::npos);
  EXPECT_NE(c.out.find("\"arena_peak_bytes\":"), std::string::npos);
  // The plain-text stats line must not leak into JSON mode.
  EXPECT_EQ(c.out.find("stats: arena "), std::string::npos);

  const CliRun bad = run({"check", "--stats=yaml", cnf(), aux()});
  EXPECT_EQ(bad.exit_code, kExitError);
  EXPECT_NE(bad.err.find("--stats"), std::string::npos);
}

// bf and rup collect no core: their JSON has no core size to misread as
// an empty core, while df, hybrid, window and parallel report one.
TEST_F(CliTest, CheckStatsJsonOmitsTheCoreSizeOfBackendsWithoutACore) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  for (const char* backend : {"df", "hybrid", "window", "parallel"}) {
    const CliRun c = run({"check", std::string("--checker=") + backend,
                          "--stats=json", cnf(), aux()});
    ASSERT_EQ(c.exit_code, 0) << backend << ": " << c.err;
    EXPECT_NE(c.out.find("\"core_original_clauses\":"), std::string::npos)
        << backend << ": " << c.out;
  }
  for (const char* backend : {"bf", "rup"}) {
    const CliRun c = run({"check", std::string("--checker=") + backend,
                          "--stats=json", cnf(), aux()});
    ASSERT_EQ(c.exit_code, 0) << backend << ": " << c.err;
    // RUP prints no replay counters at all (RupCheckerPrintsStats).
    EXPECT_EQ(c.out.find("{\"total_derivations\":") != std::string::npos,
              std::string(backend) == "bf")
        << backend << ": " << c.out;
    EXPECT_EQ(c.out.find("core_original_clauses"), std::string::npos)
        << backend << ": " << c.out;
  }
}

// df with more than one lane runs as the parallel backend and says so in
// --stats=json; its verdict and counters are those of one lane. php7's
// larger rounds go to the lanes at --jobs=4.
TEST_F(CliTest, DfOnSeveralLanesReportsParallel) {
  gen_php(7);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  const auto stats_of = [&](const std::string& jobs) {
    const CliRun c = run({"check", "--checker=df", "--jobs=" + jobs,
                          "--stats=json", cnf(), aux()});
    EXPECT_EQ(c.exit_code, 0) << jobs << ": " << c.err;
    EXPECT_NE(c.out.find("VERIFIED"), std::string::npos) << c.out;
    return c.out.substr(c.out.find('{'));
  };
  const std::string one = stats_of("1");
  const std::string four = stats_of("4");
  const std::string df_tail = ",\"backend\":\"df\"}\n";
  const std::string parallel_tail = ",\"backend\":\"parallel\"}\n";
  ASSERT_TRUE(one.ends_with(df_tail)) << one;
  ASSERT_TRUE(four.ends_with(parallel_tail)) << four;
  EXPECT_EQ(one.substr(0, one.size() - df_tail.size()),
            four.substr(0, four.size() - parallel_tail.size()));
}

TEST_F(CliTest, CheckRejectsMismatchedTrace) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat);
  // Check the trace against a different formula.
  const CliRun g2 = run({"gen", "php", "6", "-o", aux2()});
  ASSERT_EQ(g2.exit_code, 0);
  const CliRun c = run({"check", aux2(), aux()});
  EXPECT_EQ(c.exit_code, kExitError);
  EXPECT_NE(c.err.find("CHECK FAILED"), std::string::npos);
}

TEST_F(CliTest, CoreExtractionWritesDimacs) {
  const CliRun g =
      run({"gen", "routing", "8", "3", "12", "5", "-o", cnf()});
  ASSERT_EQ(g.exit_code, 0) << g.err;
  const CliRun r = run({"core", cnf(), "-o", aux()});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("core sizes:"), std::string::npos);

  // The written core must itself be UNSAT.
  const CliRun s = run({"solve", aux()});
  EXPECT_EQ(s.exit_code, kExitUnsat);
}

TEST_F(CliTest, MinimalCoreSmallerOrEqual) {
  const CliRun g =
      run({"gen", "routing", "8", "3", "12", "5", "-o", cnf()});
  ASSERT_EQ(g.exit_code, 0);
  const CliRun r = run({"core", "--minimal", cnf(), "-o", aux()});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("minimal core:"), std::string::npos);
  const CliRun s = run({"solve", aux()});
  EXPECT_EQ(s.exit_code, kExitUnsat);
}

TEST_F(CliTest, ProofExportsWriteFiles) {
  gen_php(4);
  const CliRun r = run({"solve", cnf(), "--proof-dot", aux(),
                        "--tracecheck", aux2()});
  ASSERT_EQ(r.exit_code, kExitUnsat) << r.err;
  EXPECT_NE(r.out.find("proof DAG:"), std::string::npos);
  std::ifstream dot(aux());
  std::string first_line;
  std::getline(dot, first_line);
  EXPECT_EQ(first_line, "digraph proof {");
  EXPECT_GT(std::filesystem::file_size(aux2()), 0u);
}

TEST_F(CliTest, SolverOptionFlagsAccepted) {
  gen_php(5);
  const CliRun r = run({"solve", cnf(), "--minimize", "--luby",
                        "--no-deletion", "--stats"});
  EXPECT_EQ(r.exit_code, kExitUnsat) << r.err;
}

TEST_F(CliTest, BudgetYieldsUnknown) {
  gen_php(7);
  const CliRun r = run({"solve", cnf(), "--budget", "1"});
  EXPECT_EQ(r.exit_code, kExitUnknown);
  EXPECT_NE(r.out.find("s UNKNOWN"), std::string::npos);
}

TEST_F(CliTest, GenValidatesFamilyAndParams) {
  const CliRun bad = run({"gen", "nosuch", "-o", aux()});
  EXPECT_EQ(bad.exit_code, kExitError);
  EXPECT_NE(bad.err.find("unknown family"), std::string::npos);

  const CliRun nan = run({"gen", "php", "abc", "-o", aux()});
  EXPECT_EQ(nan.exit_code, kExitError);
  EXPECT_NE(nan.err.find("expected a number"), std::string::npos);

  const CliRun noout = run({"gen", "php", "4"});
  EXPECT_EQ(noout.exit_code, kExitError);
}

TEST_F(CliTest, GenBmcFamilies) {
  const CliRun rot = run({"gen", "rotator", "4", "5", "-o", cnf()});
  ASSERT_EQ(rot.exit_code, 0) << rot.err;
  EXPECT_EQ(run({"solve", cnf()}).exit_code, kExitUnsat);

  const CliRun cnt = run({"gen", "counter", "4", "3", "2", "-o", cnf()});
  ASSERT_EQ(cnt.exit_code, 0) << cnt.err;
  EXPECT_EQ(run({"solve", cnf()}).exit_code, kExitUnsat);

  const CliRun cnt2 = run({"gen", "counter", "4", "3", "5", "-o", cnf()});
  ASSERT_EQ(cnt2.exit_code, 0) << cnt2.err;
  EXPECT_EQ(run({"solve", cnf()}).exit_code, kExitSat);
}

TEST_F(CliTest, AssumptionsSatAndUnsat) {
  // x0 -> x1 chain.
  write_cnf("p cnf 2 1\n-1 2 0\n");
  const CliRun sat = run({"solve", cnf(), "--assume", "1 2"});
  EXPECT_EQ(sat.exit_code, kExitSat);

  const CliRun unsat =
      run({"solve", cnf(), "--assume", "1 -2", "--check", "both"});
  EXPECT_EQ(unsat.exit_code, kExitUnsat) << unsat.err;
  EXPECT_NE(unsat.out.find("failed assumptions:"), std::string::npos);
  EXPECT_NE(unsat.out.find("depth-first check ok"), std::string::npos);
}

TEST_F(CliTest, AssumptionTraceRoundTripsThroughCheckCommand) {
  write_cnf("p cnf 3 2\n-1 2 0\n-2 3 0\n");
  const CliRun s =
      run({"solve", cnf(), "--assume", "1 -3", "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  const CliRun c = run({"check", cnf(), aux()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
}

TEST_F(CliTest, AssumeRejectsMalformedInput) {
  write_cnf("p cnf 1 1\n1 0\n");
  EXPECT_EQ(run({"solve", cnf(), "--assume", "0"}).exit_code, kExitError);
  EXPECT_EQ(run({"solve", cnf(), "--assume", "x"}).exit_code, kExitError);
  EXPECT_EQ(run({"solve", cnf(), "--assume", ""}).exit_code, kExitError);
}

TEST_F(CliTest, SimplifySolveAndTraceCheck) {
  const CliRun g = run({"gen", "rotator", "4", "6", "-o", cnf()});
  ASSERT_EQ(g.exit_code, 0);
  const CliRun s = run({"solve", cnf(), "--simplify", "--trace", aux(),
                        "--check", "both", "--stats"});
  EXPECT_EQ(s.exit_code, kExitUnsat) << s.err;
  EXPECT_NE(s.out.find("c preprocessing:"), std::string::npos);
  // The file trace must also validate standalone.
  const CliRun c = run({"check", cnf(), aux()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
}

TEST_F(CliTest, SimplifySatModelVerified) {
  write_cnf("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n");
  const CliRun s = run({"solve", cnf(), "--simplify", "--model"});
  EXPECT_EQ(s.exit_code, kExitSat) << s.err;
  EXPECT_NE(s.out.find("c model verified"), std::string::npos);
}

TEST_F(CliTest, SimplifyWithAssumeRejected) {
  write_cnf("p cnf 1 1\n1 0\n");
  const CliRun s = run({"solve", cnf(), "--simplify", "--assume", "1"});
  EXPECT_EQ(s.exit_code, kExitError);
}

TEST_F(CliTest, SimplifyWithDrupRejected) {
  write_cnf("p cnf 1 1\n1 0\n");
  const CliRun s = run({"solve", cnf(), "--simplify", "--drup", aux()});
  EXPECT_EQ(s.exit_code, kExitError);
}

TEST_F(CliTest, CheckCommandVariants) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat);
  EXPECT_EQ(run({"check", "--hybrid", cnf(), aux()}).exit_code, 0);
  const CliRun rup = run({"check", "--rup", cnf(), aux()});
  EXPECT_EQ(rup.exit_code, 0) << rup.err;
  EXPECT_NE(rup.out.find("VERIFIED (RUP)"), std::string::npos);
  EXPECT_EQ(run({"check", "--bf", "--rup", cnf(), aux()}).exit_code,
            kExitError);
}

// RUP runs through the same dispatch as every other backend, so a binary
// trace is recognised by its magic; --binary is not needed.
TEST_F(CliTest, RupCheckerDetectsBinaryTraces) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux(), "--binary"});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  const CliRun c = run({"check", "--checker=rup", cnf(), aux()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
  EXPECT_EQ(c.out.rfind("VERIFIED (RUP): ", 0), 0u) << c.out;
  EXPECT_NE(c.out.find(" derived clauses re-derived by unit propagation ("),
            std::string::npos)
      << c.out;
  const CliRun capped =
      run({"check", "--checker=rup", "--mem-limit=1M", cnf(), aux()});
  EXPECT_EQ(capped.exit_code, kExitError);
  EXPECT_NE(capped.err.find("--mem-limit does not apply to the rup checker"),
            std::string::npos)
      << capped.err;
}

// check --checker=rup prints a stats block of the counts RUP computes; its
// JSON carries them (as outcome_json does) and names the backend, and
// leaves out the replay counters, which RUP never computes.
TEST_F(CliTest, RupCheckerPrintsStats) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  const CliRun j =
      run({"check", "--checker=rup", "--stats=json", cnf(), aux()});
  ASSERT_EQ(j.exit_code, 0) << j.err;
  ASSERT_EQ(j.out.rfind("VERIFIED (RUP): ", 0), 0u) << j.out;
  const std::size_t json_at = j.out.find("\n{\"rup\":{\"clauses_checked\":");
  ASSERT_NE(json_at, std::string::npos) << j.out;
  const std::string json = j.out.substr(json_at + 1);
  // The verdict line's counts reappear in the JSON.
  const std::string verdict = j.out.substr(0, json_at);
  // The first count follows "VERIFIED (RUP): " (16 characters).
  const std::string checked = verdict.substr(16, verdict.find(' ', 16) - 16);
  EXPECT_EQ(json.rfind("{\"rup\":{\"clauses_checked\":" + checked +
                           ",\"deletions\":0,\"propagations\":",
                       0),
            0u)
      << json;
  EXPECT_EQ(json.size() - json.rfind("},\"backend\":\"rup\"}\n"),
            std::string("},\"backend\":\"rup\"}\n").size())
      << json;
  for (const char* never : {"total_derivations", "clauses_built",
                            "resolutions", "peak_mem_bytes", "arena_"}) {
    EXPECT_EQ(json.find(never), std::string::npos) << never << ": " << json;
  }

  const CliRun t = run({"check", "--checker=rup", "--stats", cnf(), aux()});
  ASSERT_EQ(t.exit_code, 0) << t.err;
  EXPECT_NE(t.out.find("\nstats: " + checked + " clauses checked, 0 "
                       "deletions, "),
            std::string::npos)
      << t.out;
  EXPECT_EQ(t.out.find("arena"), std::string::npos) << t.out;
}

// solve --trace-out records the solver's spans: one "solve" span and a
// "reduce_db" span per learned-clause reduction (php7 runs several). The
// search does not change under tracing: the --stats counters are the same
// with and without --trace-out.
TEST_F(CliTest, SolveTraceOutRecordsSolverSpans) {
  gen_php(7);
  const auto counters = [](const std::string& out) {
    const std::size_t at = out.find("s, decisions ");
    return at == std::string::npos ? std::string{}
                                   : out.substr(at, out.find('\n', at) - at);
  };
  const CliRun plain = run({"solve", cnf(), "--stats"});
  ASSERT_EQ(plain.exit_code, kExitUnsat) << plain.err;
  const CliRun traced = run({"solve", cnf(), "--stats", "--trace-out", aux2()});
  ASSERT_EQ(traced.exit_code, kExitUnsat) << traced.err;
  EXPECT_EQ(counters(plain.out),
            "s, decisions 5155, conflicts 4361, propagations 56593, learned "
            "4360, deleted 2001, restarts 7, minimized-lits 0");
  EXPECT_EQ(counters(traced.out), counters(plain.out));

  std::ifstream in(aux2());
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::size_t solve_spans = 0, reduce_spans = 0;
  const std::string name_key = "\"name\":\"";
  for (std::size_t at = 0;
       (at = json.find(name_key, at)) != std::string::npos;) {
    at += name_key.size();
    if (json.compare(at, 7, "solve\",") == 0) ++solve_spans;
    if (json.compare(at, 11, "reduce_db\",") == 0) ++reduce_spans;
  }
  EXPECT_EQ(solve_spans, 1u) << json;
  EXPECT_GE(reduce_spans, 1u) << json;
}

// export-lrat takes --mem-limit as check does: window runs at that budget
// (several windows for php6 at 64 KiB), and a df request that would not
// fit runs as window. Either certificate satisfies the trusted kernel.
TEST_F(CliTest, ExportLratHonoursMemLimit) {
  gen_php(6);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  const auto kernel_verifies = [&] {
    std::ifstream cnf_in(cnf());
    std::ifstream cert_in(aux2(), std::ios::binary);
    const kern::VerifyResult r = kern::verify_lrat(cnf_in, cert_in);
    EXPECT_TRUE(r.verified) << r.error;
    return r.verified;
  };
  const CliRun w = run({"export-lrat", "--checker=window", "--mem-limit=64K",
                        cnf(), aux(), "-o", aux2()});
  ASSERT_EQ(w.exit_code, 0) << w.err;
  EXPECT_NE(w.out.find("(window replay)"), std::string::npos) << w.out;
  EXPECT_TRUE(kernel_verifies());

  const std::string trace_bytes =
      std::to_string(std::filesystem::file_size(aux()));
  const CliRun df = run({"export-lrat", "--mem-limit=" + trace_bytes, cnf(),
                         aux(), "-o", aux2()});
  ASSERT_EQ(df.exit_code, 0) << df.err;
  EXPECT_NE(df.out.find("(window replay)"), std::string::npos) << df.out;
  EXPECT_TRUE(kernel_verifies());

  EXPECT_EQ(run({"export-lrat", "--mem-limit=0", cnf(), aux(), "-o", aux2()})
                .exit_code,
            kExitError);
}

TEST_F(CliTest, CheckerOptionSelectsBackend) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat);
  for (const char* mode : {"df", "bf", "hybrid", "parallel"}) {
    const CliRun c = run({"check", "--checker", mode, cnf(), aux()});
    EXPECT_EQ(c.exit_code, 0) << mode << ": " << c.err;
    EXPECT_NE(c.out.find("VERIFIED"), std::string::npos) << mode;
  }
  // --opt=value spelling, as in the issue's `--checker=parallel --jobs=4`.
  const CliRun eq = run({"check", "--checker=parallel", "--jobs=4", cnf(),
                         aux()});
  EXPECT_EQ(eq.exit_code, 0) << eq.err;
  EXPECT_EQ(run({"check", "--checker", "warp", cnf(), aux()}).exit_code,
            kExitError);
  EXPECT_EQ(
      run({"check", "--checker", "df", "--bf", cnf(), aux()}).exit_code,
      kExitError);
  EXPECT_EQ(run({"check", "--checker=parallel", "--jobs=0", cnf(), aux()})
                .exit_code,
            kExitError);
}

TEST_F(CliTest, SolveWithParallelCheck) {
  gen_php(5);
  const CliRun r = run({"solve", cnf(), "--check", "parallel", "--jobs", "2"});
  EXPECT_EQ(r.exit_code, kExitUnsat);
  EXPECT_NE(r.out.find("parallel check ok"), std::string::npos);
}

TEST_F(CliTest, TrimCommandRoundTrip) {
  gen_php(6);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat);
  const CliRun t = run({"trim", aux(), aux2()});
  EXPECT_EQ(t.exit_code, 0) << t.err;
  EXPECT_NE(t.out.find("trimmed"), std::string::npos);
  const CliRun c = run({"check", cnf(), aux2()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
}

TEST_F(CliTest, DrupEmitAndCheckRoundTrip) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--drup", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  const CliRun c = run({"drup", cnf(), aux()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
  EXPECT_NE(c.out.find("VERIFIED (DRUP)"), std::string::npos);
  // Against the wrong formula the proof must fail.
  const CliRun g2 = run({"gen", "php", "6", "-o", aux2()});
  ASSERT_EQ(g2.exit_code, 0);
  EXPECT_EQ(run({"drup", aux2(), aux()}).exit_code, kExitError);
}

// `check --checker=drup` runs DRUP through the same dispatch as every
// other backend, so it takes --jobs, --stats and --trace-out; `drup` is
// its alias. Both spellings print the same verdict counts.
TEST_F(CliTest, DrupRunsThroughCheck) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--drup", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  // The clause and deletion counts do not depend on the job count.
  const auto counts = [](const std::string& out) {
    return out.substr(0, out.find(" deletions"));
  };
  const CliRun alias = run({"drup", cnf(), aux()});
  ASSERT_EQ(alias.exit_code, 0) << alias.err;
  ASSERT_EQ(alias.out.rfind("VERIFIED (DRUP): ", 0), 0u) << alias.out;
  const CliRun one =
      run({"check", "--checker=drup", "--jobs=1", cnf(), aux()});
  ASSERT_EQ(one.exit_code, 0) << one.err;
  ASSERT_EQ(one.out.rfind("VERIFIED (DRUP): ", 0), 0u) << one.out;
  EXPECT_EQ(counts(alias.out), counts(one.out));

  const CliRun j = run({"check", "--checker=drup", "--jobs=2", "--stats=json",
                        "--trace-out", aux2(), cnf(), aux()});
  ASSERT_EQ(j.exit_code, 0) << j.err;
  EXPECT_NE(j.out.find("\n{\"drup\":{\"clauses_checked\":"),
            std::string::npos)
      << j.out;
  EXPECT_NE(j.out.find(",\"backend\":\"drup\"}\n"), std::string::npos)
      << j.out;
  EXPECT_EQ(j.out.find("total_derivations"), std::string::npos) << j.out;
  std::ifstream trace_in(aux2());
  const std::string trace_json((std::istreambuf_iterator<char>(trace_in)),
                               std::istreambuf_iterator<char>());
  EXPECT_NE(trace_json.find("\"name\":\"check\""), std::string::npos);

  const CliRun st = run({"check", "--checker=drup", "--stats", cnf(), aux()});
  ASSERT_EQ(st.exit_code, 0) << st.err;
  EXPECT_NE(st.out.find("\nstats: "), std::string::npos) << st.out;
  EXPECT_EQ(run({"check", "--checker=drup", "--mem-limit=1M", cnf(), aux()})
                .exit_code,
            kExitError);
}

TEST_F(CliTest, InterpolateCommand) {
  gen_php(4);
  // A = the 5 at-least-one clauses, B = the rest.
  const CliRun r =
      run({"interpolate", cnf(), "--split", "5", "-o", aux()});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("verified: A implies I"), std::string::npos);
  std::ifstream dot(aux());
  std::string first;
  std::getline(dot, first);
  EXPECT_EQ(first, "digraph interpolant {");

  // A satisfiable formula has no interpolant.
  write_cnf("p cnf 1 1\n1 0\n");
  const CliRun sat = run({"interpolate", cnf(), "--split", "1"});
  EXPECT_EQ(sat.exit_code, kExitError);
  // Split out of range.
  gen_php(4);
  EXPECT_EQ(run({"interpolate", cnf(), "--split", "999"}).exit_code,
            kExitError);
}

TEST_F(CliTest, SolveMissingFileFails) {
  const CliRun r = run({"solve", "/nonexistent/file.cnf"});
  EXPECT_EQ(r.exit_code, kExitError);
  EXPECT_FALSE(r.err.empty());
}

TEST_F(CliTest, UnexpectedArgumentRejected) {
  gen_php(4);
  const CliRun r = run({"solve", cnf(), "bogus-extra"});
  EXPECT_EQ(r.exit_code, kExitError);
  EXPECT_NE(r.err.find("unexpected argument"), std::string::npos);
}

TEST_F(CliTest, BwGenReportsOptimal) {
  const CliRun g = run({"gen", "bw", "4", "-1", "9", "-o", cnf()});
  ASSERT_EQ(g.exit_code, 0) << g.err;
  EXPECT_EQ(run({"solve", cnf()}).exit_code, kExitUnsat);
}

}  // namespace
}  // namespace satproof::cli
