// Differential fuzzing of the certificate pipeline: every UNSAT instance
// of the 500-instance random-3SAT harness (same seeds and shape as
// test_differential.cpp) is exported to LRAT from the emitting backends
// (depth-first, also on 2, 4 and 8 lanes, where the certificate must be
// the same bytes; hybrid; and window at a budget of several windows; text
// and binary form) and re-verified by the trusted kernel. The kernel's verdict must agree with every checker
// backend, DRUP and RUP included at one and at four jobs, and its step
// counts must match the emitter's — any divergence is a bug in the
// emitter, the kernel, or a checker.
//
// 500 seeded instances split into 10 shards so ctest can run them in
// parallel and a failure names its shard/seed.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/cert/kernel.hpp"
#include "src/cert/lrat_emitter.hpp"
#include "src/checker/breadth_first.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/drup.hpp"
#include "src/checker/window.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/cnf/model.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/proof/rup.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/drup.hpp"
#include "src/trace/memory.hpp"
#include "src/util/rng.hpp"
#include "src/util/varint.hpp"

namespace satproof {
namespace {

constexpr int kInstancesPerShard = 50;  // x 10 shards = 500 instances
constexpr std::size_t kWindowBudget = 64 << 10;

struct Export {
  checker::CheckResult check;
  std::string cert;
  std::uint64_t additions = 0;
  std::uint64_t deletions = 0;
  bool finished = false;
};

Export export_df(const Formula& f, const trace::MemoryTrace& t, bool binary,
                 unsigned jobs = 1) {
  Export e;
  std::ostringstream sink;
  std::unique_ptr<cert::LratWriter> w;
  if (binary) {
    w = std::make_unique<cert::BinaryLratWriter>(sink);
  } else {
    w = std::make_unique<cert::TextLratWriter>(sink);
  }
  cert::LratEmitter emitter(*w, f.num_clauses());
  trace::MemoryTraceReader r(t);
  checker::DepthFirstOptions opts;
  opts.jobs = jobs;
  opts.observer = &emitter;
  e.check = checker::check_depth_first(f, r, opts);
  EXPECT_TRUE(w->ok());
  e.cert = std::move(sink).str();
  e.additions = emitter.additions();
  e.deletions = emitter.deletions();
  e.finished = emitter.finished();
  return e;
}

// Window export at `mem_limit` (0 = no budget: the hybrid checker).
Export export_window(const Formula& f, const trace::MemoryTrace& t,
                     bool binary, std::size_t mem_limit) {
  Export e;
  std::ostringstream sink;
  std::unique_ptr<cert::LratWriter> w;
  if (binary) {
    w = std::make_unique<cert::BinaryLratWriter>(sink);
  } else {
    w = std::make_unique<cert::TextLratWriter>(sink);
  }
  cert::LratEmitter emitter(*w, f.num_clauses());
  trace::MemoryTraceReader r(t);
  checker::WindowOptions opts;
  opts.mem_limit_bytes = mem_limit;
  opts.observer = &emitter;
  e.check = checker::check_window(f, r, opts);
  EXPECT_TRUE(w->ok());
  e.cert = std::move(sink).str();
  e.additions = emitter.additions();
  e.deletions = emitter.deletions();
  e.finished = emitter.finished();
  return e;
}

// The addition IDs of a certificate in file order. Text deletion lines
// read "<id> d ..."; a binary record is a tag byte followed by 0-terminated
// varint lists: 'a' <id> <lits> <hints>, 'd' <ids>.
std::vector<std::uint64_t> addition_ids(const std::string& cert,
                                        bool binary) {
  std::vector<std::uint64_t> ids;
  std::istringstream in(cert);
  if (!binary) {
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::uint64_t id = 0;
      std::string second;
      if (fields >> id >> second && second != "d") ids.push_back(id);
    }
    return ids;
  }
  const auto skip_list = [&in] {
    while (util::read_varint(in).value_or(0) != 0) {
    }
  };
  for (int tag = in.get(); tag >= 0; tag = in.get()) {
    if (tag == 'a') {
      ids.push_back(util::read_varint(in).value_or(0));
      skip_list();  // literals
    }
    skip_list();  // hints, or the deleted IDs
  }
  return ids;
}

// The kernel's dense-position lookup relies on the emitter numbering
// additions num_clauses + 1, + 2, ... without gaps. A gap would still
// verify, just through the slower binary search, so only this catches it.
void expect_dense_ids(const Formula& f, const std::string& cert,
                      bool binary) {
  const std::vector<std::uint64_t> ids = addition_ids(cert, binary);
  ASSERT_FALSE(ids.empty());
  EXPECT_EQ(ids.front(), f.num_clauses() + 1);
  for (std::size_t i = 1; i < ids.size(); ++i) {
    ASSERT_EQ(ids[i], ids[i - 1] + 1) << "addition " << i;
  }
}

kern::VerifyResult kernel_verify(const Formula& f, const std::string& cert) {
  std::ostringstream cnf;
  dimacs::write(cnf, f);
  std::istringstream cnf_in(cnf.str());
  std::istringstream cert_in(cert);
  return kern::verify_lrat(cnf_in, cert_in);
}

class CertDifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CertDifferentialFuzz, KernelAgreesWithAllBackends) {
  const int shard = GetParam();
  int unsat_seen = 0;
  std::uint64_t hybrid_deletions_total = 0;
  for (int i = 0; i < kInstancesPerShard; ++i) {
    const std::uint64_t seed =
        1000 + static_cast<std::uint64_t>(shard) * kInstancesPerShard + i;
    const unsigned n = 12 + static_cast<unsigned>(seed % 14);
    const double ratio = 3.8 + 0.15 * static_cast<double>(i % 9);
    const unsigned m = static_cast<unsigned>(n * ratio);
    const Formula f = encode::random_ksat(n, m, 3, seed);

    solver::Solver s;
    s.add_formula(f);
    trace::MemoryTraceWriter trace_writer;
    s.set_trace_writer(&trace_writer);
    std::ostringstream drup_text;
    trace::DrupWriter drup_writer(drup_text);
    s.set_drup_writer(&drup_writer);
    const solver::SolveResult solved = s.solve();
    const trace::MemoryTrace t = trace_writer.take();
    SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
                 " m=" + std::to_string(m));

    if (solved == solver::SolveResult::Satisfiable) {
      // A SAT run must never yield a finished certificate: the observer
      // fires but the empty clause is never derived, so the emitter stays
      // unfinished and whatever partial output exists cannot verify.
      EXPECT_TRUE(satisfies(f, s.model()));
      const Export e = export_df(f, t, /*binary=*/false);
      EXPECT_FALSE(e.check.ok);
      EXPECT_FALSE(e.finished);
      if (!e.cert.empty()) {
        EXPECT_FALSE(kernel_verify(f, e.cert).verified);
      }
      continue;
    }
    ASSERT_EQ(solved, solver::SolveResult::Unsatisfiable);
    ++unsat_seen;

    // The backends that emit no certificate must still agree the proof is
    // valid.
    trace::MemoryTraceReader r_bf(t);
    const checker::CheckResult bf = checker::check_breadth_first(f, r_bf);
    EXPECT_TRUE(bf.ok) << bf.error;
    for (const unsigned jobs : {1u, 4u}) {
      std::istringstream drup_in(drup_text.str());
      const checker::DrupCheckResult dr =
          checker::check_drup(f, drup_in, jobs);
      EXPECT_TRUE(dr.ok) << "jobs " << jobs << ": " << dr.error;
      trace::MemoryTraceReader r_rup(t);
      const proof::RupResult rup = proof::check_trace_rup(f, r_rup, jobs);
      EXPECT_TRUE(rup.ok) << "jobs " << jobs << ": " << rup.error;
    }

    // Depth-first export, text and binary: both must kernel-verify with
    // the emitter's own step counts.
    const Export df_text = export_df(f, t, /*binary=*/false);
    ASSERT_TRUE(df_text.check.ok) << df_text.check.error;
    ASSERT_TRUE(df_text.finished);
    const kern::VerifyResult kv_df = kernel_verify(f, df_text.cert);
    EXPECT_TRUE(kv_df.verified) << "line " << kv_df.line << ": "
                                << kv_df.error;
    EXPECT_EQ(kv_df.additions, df_text.additions);
    EXPECT_EQ(kv_df.deletions, df_text.deletions);
    expect_dense_ids(f, df_text.cert, /*binary=*/false);

    const Export df_bin = export_df(f, t, /*binary=*/true);
    ASSERT_TRUE(df_bin.check.ok) << df_bin.check.error;
    const kern::VerifyResult kv_dfb = kernel_verify(f, df_bin.cert);
    EXPECT_TRUE(kv_dfb.verified) << "record " << kv_dfb.line << ": "
                                 << kv_dfb.error;
    // The binary form encodes the same proof: identical step counts.
    EXPECT_EQ(kv_dfb.additions, kv_df.additions);
    EXPECT_EQ(kv_dfb.deletions, kv_df.deletions);
    EXPECT_LT(df_bin.cert.size(), df_text.cert.size() + 16);
    expect_dense_ids(f, df_bin.cert, /*binary=*/true);

    // On lanes the events still come from the calling thread, round by
    // round in ascending ID order: the same certificate bytes.
    for (const unsigned jobs : {2u, 4u, 8u}) {
      for (const bool binary : {false, true}) {
        const Export par = export_df(f, t, binary, jobs);
        ASSERT_TRUE(par.check.ok) << "jobs " << jobs << ": "
                                  << par.check.error;
        EXPECT_EQ(par.cert, binary ? df_bin.cert : df_text.cert)
            << "jobs " << jobs << (binary ? " binary" : " text");
        EXPECT_TRUE(kernel_verify(f, par.cert).verified)
            << "jobs " << jobs << (binary ? " binary" : " text");
      }
    }

    // Hybrid export: same verdict, and its deletion records (absent from
    // the df path, which releases nothing) must not break verification.
    const Export hy_text = export_window(f, t, /*binary=*/false, 0);
    ASSERT_TRUE(hy_text.check.ok) << hy_text.check.error;
    ASSERT_TRUE(hy_text.finished);
    const kern::VerifyResult kv_hy = kernel_verify(f, hy_text.cert);
    EXPECT_TRUE(kv_hy.verified) << "line " << kv_hy.line << ": "
                                << kv_hy.error;
    EXPECT_EQ(kv_hy.additions, hy_text.additions);
    EXPECT_EQ(kv_hy.deletions, hy_text.deletions);
    expect_dense_ids(f, hy_text.cert, /*binary=*/false);
    // Hybrid replays every clause reachable in its window, df only the
    // memoized final cone — hybrid may emit a superset, never less.
    EXPECT_GE(kv_hy.additions, kv_df.additions);
    hybrid_deletions_total += kv_hy.deletions;

    const Export hy_bin = export_window(f, t, /*binary=*/true, 0);
    ASSERT_TRUE(hy_bin.check.ok) << hy_bin.check.error;
    const kern::VerifyResult kv_hyb = kernel_verify(f, hy_bin.cert);
    EXPECT_TRUE(kv_hyb.verified) << "record " << kv_hyb.line << ": "
                                 << kv_hyb.error;
    EXPECT_EQ(kv_hyb.additions, kv_hy.additions);
    EXPECT_EQ(kv_hyb.deletions, kv_hy.deletions);
    expect_dense_ids(f, hy_bin.cert, /*binary=*/true);

    // Window export under a budget: the replay and release order do not
    // depend on the budget, so the certificate must be hybrid's, byte for
    // byte. These traces are small (about 1 KiB of structure at most), so
    // this is one window each; WindowCertificateAcrossSeveralWindows
    // covers traces the budget splits.
    for (const bool binary : {false, true}) {
      SCOPED_TRACE(binary ? "window-64k binary" : "window-64k text");
      const Export wn = export_window(f, t, binary, kWindowBudget);
      ASSERT_TRUE(wn.check.ok) << wn.check.error;
      ASSERT_TRUE(wn.finished);
      const kern::VerifyResult kv_wn = kernel_verify(f, wn.cert);
      EXPECT_TRUE(kv_wn.verified) << "line " << kv_wn.line << ": "
                                  << kv_wn.error;
      EXPECT_EQ(kv_wn.additions, wn.additions);
      EXPECT_EQ(kv_wn.deletions, wn.deletions);
      expect_dense_ids(f, wn.cert, binary);
      EXPECT_EQ(wn.cert, binary ? hy_bin.cert : hy_text.cert);
    }
  }
  // The ratio sweep straddles the phase transition, so a healthy fraction
  // of every shard must actually exercise the certificate path, and the
  // hybrid runs must exercise deletion records somewhere in the shard.
  EXPECT_GE(unsat_seen, kInstancesPerShard / 5);
  EXPECT_GT(hybrid_deletions_total, 0u);
}

// Pigeonhole traces large enough that a 64 KiB budget (16 KiB windows)
// splits their structure into several windows: each window certificate
// must kernel-verify with dense addition IDs and equal hybrid's.
TEST(CertDifferential, WindowCertificateAcrossSeveralWindows) {
  for (const unsigned holes : {6u, 7u}) {
    const Formula f = encode::pigeonhole(holes);
    solver::Solver s;
    s.add_formula(f);
    trace::MemoryTraceWriter trace_writer;
    s.set_trace_writer(&trace_writer);
    ASSERT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
    const trace::MemoryTrace t = trace_writer.take();
    std::size_t structure = 0;
    for (const auto& d : t.derivations) {
      structure += checker::derivation_record_bytes(d.sources.size());
    }
    ASSERT_GT(structure, 2 * (kWindowBudget / 4)) << "php" << holes;
    for (const bool binary : {false, true}) {
      SCOPED_TRACE("php" + std::to_string(holes) +
                   (binary ? " binary" : " text"));
      const Export hy = export_window(f, t, binary, 0);
      const Export wn = export_window(f, t, binary, kWindowBudget);
      ASSERT_TRUE(wn.check.ok) << wn.check.error;
      ASSERT_TRUE(wn.finished);
      const kern::VerifyResult kv = kernel_verify(f, wn.cert);
      EXPECT_TRUE(kv.verified) << "line " << kv.line << ": " << kv.error;
      EXPECT_EQ(kv.additions, wn.additions);
      EXPECT_EQ(kv.deletions, wn.deletions);
      EXPECT_GT(wn.deletions, 0u);
      expect_dense_ids(f, wn.cert, binary);
      EXPECT_EQ(wn.cert, hy.cert);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, CertDifferentialFuzz,
                         ::testing::Range(0, 10));

// The text writer formats digits straight into its buffer; its bytes must
// be what stream formatting of the same records gives, at the extremes of
// every field and across its 64 KiB flushes.
TEST(CertWriters, TextWriterMatchesStreamFormatting) {
  std::ostringstream got_out;
  std::ostringstream want;
  cert::TextLratWriter w(got_out);
  util::Rng rng(7);
  const std::uint64_t ids[] = {1, 9, 10, 99, 100, 12345678901234567890ull,
                               UINT64_MAX};
  const Var vars[] = {0, 8, 9, 99, (Var{1} << 28) - 1, UINT32_MAX >> 1};
  for (int rec = 0; rec < 4000; ++rec) {
    const std::uint64_t id = ids[rng.next_below(std::size(ids))];
    std::vector<Lit> lits(rng.next_below(rec % 500 == 0 ? 20000 : 8));
    for (Lit& l : lits) {
      l = Lit(vars[rng.next_below(std::size(vars))], rng.next_bool());
    }
    std::vector<std::uint64_t> hints(rng.next_below(rec % 700 == 0 ? 20000 : 8));
    for (std::uint64_t& h : hints) h = ids[rng.next_below(std::size(ids))];
    if (rng.next_bool(0.2)) {
      w.del(id, hints);
      want << id << " d";
      for (const std::uint64_t h : hints) want << ' ' << h;
      want << " 0\n";
      continue;
    }
    w.add(id, lits, hints);
    want << id;
    for (const Lit l : lits) want << ' ' << l.to_dimacs();
    want << " 0";
    for (const std::uint64_t h : hints) want << ' ' << h;
    want << " 0\n";
  }
  w.finish();
  EXPECT_TRUE(w.ok());
  EXPECT_GT(want.str().size(), std::size_t{4} << 16);
  EXPECT_EQ(got_out.str(), want.str());
}

}  // namespace
}  // namespace satproof
