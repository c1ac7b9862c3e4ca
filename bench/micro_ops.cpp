// Micro-benchmarks (google-benchmark) for the hot kernels: resolution
// (reference sorted-merge vs the marker-based ChainResolver), solver BCP,
// trace codecs, CNF and DRUP parsing, and the whole-trace load.

#include <benchmark/benchmark.h>

#include <optional>
#include <sstream>

#include "src/checker/common.hpp"
#include "src/checker/drup.hpp"
#include "src/checker/resolution.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/circuit/miter.hpp"
#include "src/circuit/tseitin.hpp"
#include "src/circuit/words.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/binary.hpp"
#include "src/trace/drup.hpp"
#include "src/util/byte_source.hpp"
#include "src/util/mem_tracker.hpp"
#include "src/util/rng.hpp"
#include "src/util/varint.hpp"

namespace {

using namespace satproof;

/// Builds a resolution chain: a long base clause and `steps` short partner
/// clauses, each clashing on exactly one variable of the running clause.
struct Chain {
  checker::SortedClause base;
  std::vector<checker::SortedClause> partners;
};

Chain make_chain(std::size_t base_len, std::size_t steps) {
  Chain c;
  // Base: ~x0 ... ~x(base_len-1).
  for (Var v = 0; v < base_len; ++v) c.base.push_back(Lit::neg(v));
  // Partner i resolves on x_i and introduces two fresh high literals.
  for (std::size_t i = 0; i < steps; ++i) {
    checker::SortedClause p{Lit::pos(static_cast<Var>(i)),
                            Lit::neg(static_cast<Var>(base_len + 2 * i)),
                            Lit::neg(static_cast<Var>(base_len + 2 * i + 1))};
    std::sort(p.begin(), p.end());
    c.partners.push_back(std::move(p));
  }
  return c;
}

void BM_ResolveSortedMerge(benchmark::State& state) {
  const Chain chain =
      make_chain(static_cast<std::size_t>(state.range(0)), 64);
  checker::SortedClause current, next;
  for (auto _ : state) {
    current = chain.base;
    for (const auto& p : chain.partners) {
      const auto r = checker::resolve(current, p, next);
      if (r.status != checker::ResolveStatus::Ok) state.SkipWithError("bad");
      current.swap(next);
    }
    benchmark::DoNotOptimize(current.data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ResolveSortedMerge)->Arg(64)->Arg(512)->Arg(4096);

void BM_ChainResolver(benchmark::State& state) {
  const Chain chain =
      make_chain(static_cast<std::size_t>(state.range(0)), 64);
  checker::ChainResolver resolver;
  // Warm up to steady state before timing: pre-size the mark table for
  // every variable the chain touches and run one untimed chain, so the
  // first measured iteration doesn't pay the one-time mark-array growth
  // the replay backends amortize with reserve_vars().
  resolver.reserve_vars(static_cast<Var>(state.range(0) + 2 * 64));
  resolver.start(chain.base);
  for (const auto& p : chain.partners) (void)resolver.step(p);
  for (auto _ : state) {
    resolver.start(chain.base);
    for (const auto& p : chain.partners) {
      const auto r = resolver.step(p);
      if (r.status != checker::ResolveStatus::Ok) state.SkipWithError("bad");
    }
    benchmark::DoNotOptimize(resolver.lits().data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ChainResolver)->Arg(64)->Arg(512)->Arg(4096);

void BM_SolverBcpThroughput(benchmark::State& state) {
  // Full solve of a propagation-heavy instance; items = propagations.
  std::uint64_t props = 0;
  for (auto _ : state) {
    solver::Solver s;
    s.add_formula(encode::pigeonhole(6));
    benchmark::DoNotOptimize(s.solve());
    props += s.stats().propagations;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(props));
}
BENCHMARK(BM_SolverBcpThroughput);

void BM_SolveRandomKsat(benchmark::State& state) {
  const Formula f = encode::random_ksat(60, 256, 3, 1234);
  for (auto _ : state) {
    solver::Solver s;
    s.add_formula(f);
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SolveRandomKsat);

void BM_VarintRoundTrip(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<std::uint64_t> values(4096);
  for (auto& v : values) v = rng.next_u64() >> (rng.next_below(60));
  for (auto _ : state) {
    std::vector<std::uint8_t> buf;
    for (const auto v : values) util::append_varint(buf, v);
    std::size_t pos = 0;
    std::uint64_t sum = 0;
    while (pos < buf.size()) sum += util::decode_varint(buf, pos);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_VarintRoundTrip);

void BM_Canonicalize(benchmark::State& state) {
  util::Rng rng(6);
  std::vector<Lit> lits;
  for (int i = 0; i < 256; ++i) {
    lits.push_back(Lit(static_cast<Var>(rng.next_below(128)),
                       rng.next_bool()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker::canonicalize(lits).data());
  }
}
BENCHMARK(BM_Canonicalize);

void BM_DimacsParse(benchmark::State& state) {
  std::ostringstream out;
  dimacs::write(out, encode::random_ksat(500, 2000, 3, 99));
  const std::string text = out.str();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dimacs::parse_string(text).num_clauses());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_DimacsParse);

void BM_DrupParse(benchmark::State& state) {
  // A solver-written DRUP proof, deletion lines included.
  const Formula f = encode::pigeonhole(7);
  std::ostringstream out;
  trace::DrupWriter w(out);
  solver::Solver s;
  s.add_formula(f);
  s.set_drup_writer(&w);
  (void)s.solve();
  const std::string text = out.str();
  for (auto _ : state) {
    std::istringstream in(text);
    benchmark::DoNotOptimize(checker::read_drup(in, f.num_vars()).steps.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_DrupParse);

/// A binary trace shaped like tools/gen_bigtrace's ladders, about 4 MiB:
/// 64 ladders of 1024 rungs, each derivation folding a walker's unit with
/// the 64 implications it crosses. Only its structure matters here: the
/// load indexes derivations without resolving them.
std::string ladder_trace_bytes() {
  constexpr std::uint64_t kLadders = 64, kRungs = 1024, kChain = 64;
  constexpr std::uint64_t kSteps = 20000;
  constexpr std::uint64_t kPerLadder = 1 + 2 * (kRungs - 1);
  const ClauseId num_original = kLadders * kPerLadder + 2;
  std::ostringstream out;
  trace::BinaryTraceWriter w(out);
  w.begin(static_cast<Var>(kLadders * kRungs + 1), num_original);
  std::vector<std::uint64_t> pos(kLadders, 0);
  std::vector<ClauseId> unit(kLadders);
  for (std::uint64_t l = 0; l < kLadders; ++l) unit[l] = l * kPerLadder;
  util::Rng rng(28);
  ClauseId id = num_original;
  std::vector<ClauseId> sources;
  for (std::uint64_t n = 0; n < kSteps; ++n, ++id) {
    const std::uint64_t l = rng.next_below(kLadders);
    const bool climb = pos[l] + kChain < kRungs &&
                       (pos[l] < kChain || rng.next_bool());
    sources.assign(1, unit[l]);
    for (std::uint64_t s = 0; s < kChain; ++s) {
      sources.push_back(l * kPerLadder +
                        (climb ? 1 + pos[l] : kRungs + pos[l] - 1));
      pos[l] = climb ? pos[l] + 1 : pos[l] - 1;
    }
    w.derivation(id, sources);
    unit[l] = id;
  }
  w.final_conflict(num_original - 1);
  w.level0(static_cast<Var>(kLadders * kRungs), true, id - 1);
  w.end();
  return out.str();
}

void BM_TraceLoad(benchmark::State& state) {
  // load_full_trace, the depth-first checker's parse stage, over an
  // in-memory binary trace; building the reader and freeing the previous
  // index are left out of the timing.
  const std::string text = ladder_trace_bytes();
  const std::vector<std::uint8_t> bytes(text.begin(), text.end());
  std::optional<trace::BinaryTraceReader> reader;
  std::optional<checker::DerivationIndex> index;
  std::optional<checker::Level0Table> level0;
  for (auto _ : state) {
    state.PauseTiming();
    reader.emplace(std::make_unique<util::MemoryByteSource>(bytes));
    index.emplace(reader->num_original());
    level0.emplace(reader->num_vars());
    util::MemTracker mem;
    checker::CheckStats stats;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        checker::load_full_trace(*reader, *index, *level0, mem, stats));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_TraceLoad)->Unit(benchmark::kMillisecond);

void BM_TseitinMultiplierMiter(benchmark::State& state) {
  for (auto _ : state) {
    circuit::Netlist n;
    const auto a = circuit::input_word(n, 8);
    const auto b = circuit::input_word(n, 8);
    const auto m1 = circuit::array_multiplier(n, a, b);
    const auto m2 = circuit::multiplier_commuted(n, a, b);
    const auto m = circuit::build_miter(n, m1, m2);
    benchmark::DoNotOptimize(circuit::miter_to_cnf(n, m).num_clauses());
  }
}
BENCHMARK(BM_TseitinMultiplierMiter);

}  // namespace

BENCHMARK_MAIN();
