// Unit tests for src/util: PRNG, varint codec, memory tracker, temp files,
// table formatting, thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/util/thread_pool.hpp"

#include "src/util/arena.hpp"
#include "src/util/byte_source.hpp"
#include "src/util/mem_tracker.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"
#include "src/util/temp_file.hpp"
#include "src/util/timer.hpp"
#include "src/util/varint.hpp"

namespace satproof::util {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 100; ++i) differing += a.next_u64() != b.next_u64();
  EXPECT_GT(differing, 90);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(7);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) ++seen[rng.next_below(10)];
  for (int c : seen) EXPECT_GT(c, 800);  // roughly uniform
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(3);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    hit_lo = hit_lo || v == -2;
    hit_hi = hit_hi || v == 2;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBoolExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, ShufflePermutes) {
  Rng rng(9);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  rng.shuffle(v.begin(), v.end());
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
}

TEST(Varint, RoundTripsEdgeValues) {
  const std::uint64_t values[] = {0,    1,    127,  128,   129,
                                  1000, 1u << 14, (1u << 14) + 1,
                                  0xffffffffULL, ~std::uint64_t{0}};
  for (const auto v : values) {
    std::stringstream ss;
    write_varint(ss, v);
    EXPECT_EQ(static_cast<std::size_t>(ss.str().size()), varint_size(v));
    const auto back = read_varint(ss);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, v);
  }
}

TEST(Varint, ReadAtEofReturnsNullopt) {
  std::stringstream ss;
  EXPECT_FALSE(read_varint(ss).has_value());
}

TEST(Varint, TruncatedEncodingThrows) {
  std::stringstream ss;
  ss.put(static_cast<char>(0x80));  // continuation bit, then EOF
  EXPECT_THROW(read_varint(ss), std::runtime_error);
}

TEST(Varint, BufferDecodeMatchesStream) {
  std::vector<std::uint8_t> buf;
  append_varint(buf, 300);
  append_varint(buf, 0);
  append_varint(buf, ~std::uint64_t{0});
  std::size_t pos = 0;
  EXPECT_EQ(decode_varint(buf, pos), 300u);
  EXPECT_EQ(decode_varint(buf, pos), 0u);
  EXPECT_EQ(decode_varint(buf, pos), ~std::uint64_t{0});
  EXPECT_EQ(pos, buf.size());
}

TEST(Varint, BufferTruncationThrows) {
  std::vector<std::uint8_t> buf{0x80};
  std::size_t pos = 0;
  EXPECT_THROW(decode_varint(buf, pos), std::runtime_error);
}

TEST(Varint, ZeroIsOneByte) {
  std::vector<std::uint8_t> buf;
  append_varint(buf, 0);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 0u);
}

TEST(Varint, MaxValueIsTenBytes) {
  std::vector<std::uint8_t> buf;
  append_varint(buf, ~std::uint64_t{0});
  ASSERT_EQ(buf.size(), 10u);
  EXPECT_EQ(buf.back(), 0x01u);  // the 64th bit, alone in the tenth byte
  std::size_t pos = 0;
  EXPECT_EQ(decode_varint(buf, pos), ~std::uint64_t{0});
}

TEST(Varint, TruncationMidVarintThrows) {
  // A valid 3-byte encoding cut after each proper prefix.
  std::vector<std::uint8_t> full;
  append_varint(full, 1u << 20);
  ASSERT_EQ(full.size(), 3u);
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> buf(full.begin(), full.begin() + cut);
    std::size_t pos = 0;
    EXPECT_THROW(decode_varint(buf, pos), std::runtime_error);
    std::stringstream ss;
    ss.write(reinterpret_cast<const char*>(buf.data()),
             static_cast<std::streamsize>(buf.size()));
    EXPECT_THROW(read_varint(ss), std::runtime_error);
  }
}

TEST(Varint, OverlongEncodingRejected) {
  // 11-byte encoding of a small value: ten continuation bytes never fit.
  const std::vector<std::uint8_t> eleven{0x81, 0x80, 0x80, 0x80, 0x80, 0x80,
                                         0x80, 0x80, 0x80, 0x80, 0x00};
  std::size_t pos = 0;
  EXPECT_THROW(decode_varint(eleven, pos), std::runtime_error);
}

TEST(Varint, NonCanonicalZeroPaddingRejected) {
  // 1 encoded as 0x81 0x00: decodes to the same value as 0x01, so a strict
  // reader must reject it — one value, one encoding.
  const std::vector<std::uint8_t> padded{0x81, 0x00};
  std::size_t pos = 0;
  EXPECT_THROW(decode_varint(padded, pos), std::runtime_error);
  std::stringstream ss;
  ss.put(static_cast<char>(0x81));
  ss.put(static_cast<char>(0x00));
  EXPECT_THROW(read_varint(ss), std::runtime_error);
}

TEST(Varint, TenthByteOverflowRejected) {
  // Ten bytes whose final byte claims bits above the 64th.
  std::vector<std::uint8_t> buf(9, 0xff);
  buf.push_back(0x02);
  std::size_t pos = 0;
  EXPECT_THROW(decode_varint(buf, pos), std::runtime_error);
}

TEST(Varint, PaddedDecodeMatchesBounded) {
  // decode_varint_padded skips the end checks that ten readable bytes make
  // needless; it must accept and reject exactly what decode_varint does.
  const std::vector<std::vector<std::uint8_t>> cases = {
      {0x05},
      {0xac, 0x02},
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
      {0x81, 0x00},  // over-long
      // Beyond 64 bits, then eleven bytes.
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
      {0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
  };
  // The value decoded, or the error, and the bytes consumed.
  const auto decode = [](const std::vector<std::uint8_t>& buf, bool padded) {
    const std::uint8_t* p = buf.data();
    try {
      const std::uint64_t v =
          padded ? decode_varint_padded(p)
                 : decode_varint(p, buf.data() + buf.size());
      return std::to_string(v) + " in " + std::to_string(p - buf.data());
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
  };
  for (const auto& tight : cases) {
    std::vector<std::uint8_t> padded = tight;
    padded.resize(tight.size() + 10, 0x7f);
    EXPECT_EQ(decode(tight, false), decode(padded, true));
  }
}

TEST(Varint, PointerDecodeAdvances) {
  std::vector<std::uint8_t> buf;
  append_varint(buf, 7);
  append_varint(buf, 1u << 30);
  const std::uint8_t* p = buf.data();
  const std::uint8_t* end = buf.data() + buf.size();
  EXPECT_EQ(decode_varint(p, end), 7u);
  EXPECT_EQ(decode_varint(p, end), 1u << 30);
  EXPECT_EQ(p, end);
}

TEST(MemTracker, TracksCurrentAndPeak) {
  MemTracker m;
  m.add(100);
  m.add(50);
  EXPECT_EQ(m.current_bytes(), 150u);
  EXPECT_EQ(m.peak_bytes(), 150u);
  m.remove(120);
  EXPECT_EQ(m.current_bytes(), 30u);
  EXPECT_EQ(m.peak_bytes(), 150u);
  m.add(10);
  EXPECT_EQ(m.peak_bytes(), 150u);
  m.reset();
  EXPECT_EQ(m.current_bytes(), 0u);
  EXPECT_EQ(m.peak_bytes(), 0u);
}

TEST(MemTracker, RemoveClampsAtZero) {
  MemTracker m;
  m.add(10);
  m.remove(100);
  EXPECT_EQ(m.current_bytes(), 0u);
}

TEST(ClauseFootprint, GrowsWithLength) {
  EXPECT_LT(clause_footprint_bytes(1), clause_footprint_bytes(100));
  EXPECT_GT(clause_footprint_bytes(0), 0u);
}

TEST(TempFile, CreatesAndRemovesFile) {
  std::filesystem::path p;
  {
    TempFile tf("satproof-test");
    p = tf.path();
    EXPECT_TRUE(std::filesystem::exists(p));
    std::ofstream(p) << "data";
  }
  EXPECT_FALSE(std::filesystem::exists(p));
}

TEST(TempFile, MoveTransfersOwnership) {
  TempFile a("satproof-test");
  const auto p = a.path();
  TempFile b = std::move(a);
  EXPECT_EQ(b.path(), p);
  EXPECT_TRUE(a.path().empty());
  EXPECT_TRUE(std::filesystem::exists(p));
}

TEST(TempFile, DistinctPaths) {
  TempFile a("x"), b("x");
  EXPECT_NE(a.path(), b.path());
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "23"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name      | value |"), std::string::npos);
  EXPECT_NE(s.find("| long-name | 23    |"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Format, Helpers) {
  EXPECT_EQ(format_double(1.2345, 2), "1.23");
  EXPECT_EQ(format_kb(2048), "2.0");
  EXPECT_EQ(format_percent(1, 4), "25.0%");
  EXPECT_EQ(format_percent(1, 0), "n/a");
}

TEST(Timer, MeasuresNonNegative) {
  Timer t;
  EXPECT_GE(t.elapsed_seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.elapsed_ms(), 0.0);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitIdlePublishesTaskWrites) {
  // wait_idle() must establish happens-before: plain (non-atomic) writes
  // from the tasks are readable afterwards. TSan validates this for real.
  ThreadPool pool(3);
  std::vector<int> results(256, 0);
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      pool.submit([&results, i] { results[i] += static_cast<int>(i); });
    }
    pool.wait_idle();
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i) * 4);
  }
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  pool.wait_idle();
}

TEST(ThreadPool, SingleWorkerPreservesSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
  }
  pool.wait_idle();
  ASSERT_EQ(order.size(), 50u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, DestructionWithQueuedWorkDoesNotHang) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    // Destructor joins; tasks not yet started may be discarded, but the
    // pool must shut down cleanly either way.
  }
  EXPECT_LE(count.load(), 100);
}

namespace {
std::vector<Lit> lits(std::initializer_list<int> dimacs) {
  std::vector<Lit> out;
  for (const int d : dimacs) out.push_back(Lit::from_dimacs(d));
  return out;
}
}  // namespace

TEST(ClauseArena, PutAndViewRoundTrip) {
  ClauseArena arena;
  const auto a = lits({1, -2, 3});
  const auto b = lits({-4});
  const ClauseArena::Ref ra = arena.put(a);
  const ClauseArena::Ref rb = arena.put(b);
  ASSERT_EQ(arena.view(ra).size(), 3u);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), arena.view(ra).begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), arena.view(rb).begin()));
  EXPECT_EQ(arena.live_clauses(), 2u);
  EXPECT_EQ(arena.live_bytes(),
            ClauseArena::block_bytes(3) + ClauseArena::block_bytes(1));
}

TEST(ClauseArena, EmptyClause) {
  ClauseArena arena;
  const ClauseArena::Ref r = arena.put(std::span<const Lit>{});
  EXPECT_TRUE(arena.view(r).empty());
  EXPECT_EQ(arena.live_bytes(), ClauseArena::block_bytes(0));
}

TEST(ClauseArena, ReleaseRecyclesSameLengthBlocks) {
  ClauseArena arena;
  const ClauseArena::Ref r1 = arena.put(lits({1, 2, 3}));
  arena.release(r1);
  EXPECT_EQ(arena.live_clauses(), 0u);
  EXPECT_EQ(arena.live_bytes(), 0u);
  const ClauseArena::Ref r2 = arena.put(lits({-5, 6, -7}));
  EXPECT_EQ(r2, r1);  // same block reused
  EXPECT_EQ(arena.recycled_bytes(), ClauseArena::block_bytes(3));
  const auto v = arena.view(r2);
  EXPECT_EQ(v[0], Lit::from_dimacs(-5));
  // Peak never dropped below the single live clause.
  EXPECT_EQ(arena.peak_bytes(), ClauseArena::block_bytes(3));
}

TEST(ClauseArena, StatsAccumulate) {
  ClauseArena arena;
  const ClauseArena::Ref r = arena.put(lits({1, 2}));
  arena.put(lits({3, 4, 5}));
  arena.release(r);
  arena.put(lits({-1, -2}));  // recycled
  EXPECT_EQ(arena.allocated_bytes(),
            2 * ClauseArena::block_bytes(2) + ClauseArena::block_bytes(3));
  EXPECT_EQ(arena.recycled_bytes(), ClauseArena::block_bytes(2));
  EXPECT_EQ(arena.peak_bytes(),
            ClauseArena::block_bytes(2) + ClauseArena::block_bytes(3));
}

TEST(ClauseArena, OversizedClauseGetsDedicatedChunk) {
  ClauseArena arena;
  std::vector<Lit> big;
  for (int i = 1; i <= (1 << 16); ++i) big.push_back(Lit::from_dimacs(i));
  const ClauseArena::Ref r = arena.put(big);
  ASSERT_EQ(arena.view(r).size(), big.size());
  EXPECT_TRUE(std::equal(big.begin(), big.end(), arena.view(r).begin()));
  // A small clause afterwards still works (goes to a regular chunk).
  const ClauseArena::Ref s = arena.put(lits({1}));
  EXPECT_EQ(arena.view(s).size(), 1u);
}

TEST(ClauseArena, BlockPointersStableAcrossGrowth) {
  ClauseArena arena;
  // One clause per tier: {1, -2} lands in a headerless binary-tier block,
  // the 3-lit clause in a headered chunk. tagged_block() is the
  // tier-agnostic pointer form (what the parallel checker publishes).
  const ClauseArena::Ref r = arena.put(lits({1, -2}));
  const ClauseArena::Ref r3 = arena.put(lits({6, -7, 8}));
  const Lit* bin_block = arena.tagged_block(r);
  const Lit* long_block = arena.tagged_block(r3);
  // Force many chunk allocations.
  for (int i = 0; i < 100000; ++i) arena.put(lits({3, -4, 5}));
  EXPECT_EQ(arena.tagged_block(r), bin_block);
  EXPECT_EQ(arena.tagged_block(r3), long_block);
  const auto v = ClauseArena::view_of(bin_block);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], Lit::from_dimacs(-2));
  const auto v3 = ClauseArena::view_of(long_block);
  ASSERT_EQ(v3.size(), 3u);
  EXPECT_EQ(v3[2], Lit::from_dimacs(8));
}

TEST(ByteSource, MemorySourceServesWholeRange) {
  std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  MemoryByteSource src(data);
  const auto w = src.window(0);
  ASSERT_EQ(w.size(), 5u);
  EXPECT_EQ(w.begin[4], 5u);
  EXPECT_EQ(src.window(3).size(), 2u);
  EXPECT_EQ(src.window(5).size(), 0u);
}

TEST(ByteSource, StreamSourceRefillsAcrossTinyBuffer) {
  std::string payload;
  for (int i = 0; i < 1000; ++i) payload.push_back(static_cast<char>(i & 0xff));
  std::istringstream is(payload);
  StreamByteSource src(is, 16);  // force many refills
  std::string read;
  std::uint64_t pos = 0;
  while (true) {
    const auto w = src.window(pos);
    if (w.size() == 0) break;
    read.append(reinterpret_cast<const char*>(w.begin), w.size());
    pos += w.size();
  }
  EXPECT_EQ(read, payload);
}

TEST(ByteSource, StreamSourceSeeksBackward) {
  std::istringstream is("abcdefgh");
  StreamByteSource src(is, 4);
  EXPECT_EQ(*src.window(6).begin, 'g');
  EXPECT_EQ(*src.window(0).begin, 'a');  // rewind via seekg
  EXPECT_EQ(*src.window(2).begin, 'c');  // still buffered
}

TEST(ByteSource, MapFileRoundTrip) {
  TempFile tmp("bytesource");
  {
    std::ofstream out(tmp.path(), std::ios::binary);
    out << "mmap me";
  }
  const auto src = ByteSource::map_file(tmp.path());
  const auto w = src->window(0);
  ASSERT_EQ(w.size(), 7u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(w.begin), w.size()),
            "mmap me");
  EXPECT_EQ(src->window(7).size(), 0u);
}

}  // namespace
}  // namespace satproof::util
