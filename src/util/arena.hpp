#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/cnf/types.hpp"
#include "src/util/mem_tracker.hpp"

namespace satproof::util {

/// Bump-allocated clause storage shared by every checker backend.
///
/// Replaying a resolution trace builds and discards millions of short
/// clauses. Storing each as its own `std::vector<Lit>` inside a hash map
/// costs a heap allocation, a map node, and pointer-chasing on every
/// lookup — the dominant cost of the checker hot path (cf. Cruz-Filipe et
/// al., "Efficient Certified Resolution Proof Checking"). The arena packs
/// clauses contiguously into large chunks as `[len | lits...]` blocks of
/// `Lit`-sized slots, addressed by a 32-bit `Ref`, so building a clause is
/// a pointer bump plus a memcpy and looking one up is two loads.
///
/// Binary tier: two-literal clauses — the bulk of many resolution traces —
/// additionally drop the length header. They live in chunks flagged as
/// binary, holding headerless 2-slot blocks, which packs 50% more binary
/// clauses per cache line (dawn's unary/binary/long clause split applies
/// the same idea inside the solver). Which layout a Ref uses is a property
/// of its chunk, so view() stays two loads; set_binary_tier(false) keeps
/// every clause in the headered layout. Accounting is deliberately
/// layout-independent: a binary block is charged block_bytes(2) bytes
/// whether or not it physically stores the header, so
/// allocated/recycled/peak statistics are byte-identical with the tier on
/// or off.
///
/// Refs encode `chunk_index << 16 | slot_offset`; a chunk holds at most
/// 2^16 slots, and clauses longer than a chunk get a dedicated exact-size
/// chunk at offset 0. Chunks are never reallocated or freed before the
/// arena dies, so `const Lit*` block pointers stay stable for the arena's
/// lifetime — the depth-first checker relies on this to publish clause
/// pointers (tagged_block()) across threads.
///
/// Bounded-memory (breadth-first) replay calls release(): the block goes
/// on a per-length free list and the next put() of that length reuses it,
/// so a steady-state clause window recycles blocks instead of
/// round-tripping through malloc.
class ClauseArena {
 public:
  using Ref = std::uint32_t;
  static constexpr Ref kNullRef = 0xffffffffu;

  ClauseArena() = default;
  ClauseArena(ClauseArena&&) = default;
  ClauseArena& operator=(ClauseArena&&) = default;
  ClauseArena(const ClauseArena&) = delete;
  ClauseArena& operator=(const ClauseArena&) = delete;

  /// Enables or disables the headerless binary-clause tier (default on).
  /// May be flipped at any time — existing blocks keep the layout of the
  /// chunk they live in — but is intended as a construction-time switch
  /// for layout regression tests.
  void set_binary_tier(bool on) { binary_tier_ = on; }
  [[nodiscard]] bool binary_tier() const { return binary_tier_; }

  /// Copies `lits` into the arena and returns the block's ref. Reuses a
  /// released block of the same length when one exists.
  Ref put(std::span<const Lit> lits);

  /// Returns `ref`'s block to its per-length free list. The block's bytes
  /// stay mapped (refs to it simply must no longer be used) and will back
  /// a future put() of the same length.
  void release(Ref ref);

  /// The literals of `ref`'s clause.
  [[nodiscard]] std::span<const Lit> view(Ref ref) const {
    const Chunk& c = chunks_[ref >> 16];
    const Lit* p = c.data.get() + (ref & 0xffffu);
    if (c.binary) return {p, 2};
    return {p + 1, p[0].code()};
  }

  /// Block pointer with the layout encoded in its low bit (Lit blocks are
  /// 4-byte aligned, so the bit is free): set for a headerless binary
  /// block, clear for a headered one. This is what the depth-first checker
  /// publishes through its slot table; view_of() decodes it.
  [[nodiscard]] const Lit* tagged_block(Ref ref) const {
    const Chunk& c = chunks_[ref >> 16];
    const Lit* p = c.data.get() + (ref & 0xffffu);
    if (!c.binary) return p;
    return reinterpret_cast<const Lit*>(reinterpret_cast<std::uintptr_t>(p) |
                                        1u);
  }

  /// The literals of a clause given its (possibly tagged) block pointer,
  /// as published by the depth-first checker's slot table.
  [[nodiscard]] static std::span<const Lit> view_of(const Lit* block) {
    const auto bits = reinterpret_cast<std::uintptr_t>(block);
    if (bits & 1u) {
      return {reinterpret_cast<const Lit*>(bits & ~std::uintptr_t{1}), 2};
    }
    return {block + 1, block[0].code()};
  }

  /// Hints the cache to load `p`, for example a (possibly tagged) block
  /// pointer as published by the depth-first checker. Any address is safe to
  /// pass, null included.
  static void prefetch_block(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
  }

  /// Accounted footprint of a clause of `num_lits` literals: the literal
  /// payload plus the 4-byte length header. This is what the arena
  /// actually stores per clause (binary-tier blocks physically omit the
  /// header but are charged it anyway, keeping the statistics
  /// layout-independent) — compare `clause_footprint_bytes`'s 32-byte
  /// per-clause overhead for heap-allocated vectors.
  [[nodiscard]] static std::size_t block_bytes(std::size_t num_lits) {
    return sizeof(Lit) * (num_lits + 1);
  }

  /// Cumulative bytes handed out by put(), including recycled blocks.
  [[nodiscard]] std::size_t allocated_bytes() const { return allocated_; }

  /// Cumulative bytes served from free lists instead of fresh chunk space.
  [[nodiscard]] std::size_t recycled_bytes() const { return recycled_; }

  /// Bytes in live (not released) blocks right now.
  [[nodiscard]] std::size_t live_bytes() const {
    return tracker_.current_bytes();
  }

  /// High-water mark of live_bytes().
  [[nodiscard]] std::size_t peak_bytes() const {
    return tracker_.peak_bytes();
  }

  /// Number of live (not released) clauses.
  [[nodiscard]] std::size_t live_clauses() const { return live_clauses_; }

  /// Forgets every clause while keeping the chunk memory mapped, so a
  /// long-lived arena (a lane of a thread's checker::CheckMemory) serves
  /// its next check without re-growing through malloc. All refs become
  /// invalid. Counters, free lists, and the live-bytes tracker restart
  /// from zero, so the per-run statistics (allocated / recycled / peak)
  /// are identical to a freshly constructed arena's — they count
  /// clause-block bytes, which do not depend on how chunk memory was
  /// obtained.
  void reset();

 private:
  struct Chunk {
    std::unique_ptr<Lit[]> data;
    std::uint32_t capacity = 0;  ///< slots
    std::uint32_t used = 0;      ///< slots bumped so far
    bool binary = false;         ///< headerless 2-slot blocks
  };

  static constexpr std::uint32_t kMaxChunkSlots = 1u << 16;
  static constexpr std::uint32_t kFirstChunkSlots = 1u << 10;
  static constexpr std::size_t kMaxChunks = 1u << 16;

  /// Allocates `slots` contiguous Lit slots in a headered chunk.
  Ref bump(std::uint32_t slots);

  /// Allocates one headerless 2-slot block in a binary chunk.
  Ref bump_binary();

  /// Appends a fresh chunk of at least `slots` capacity (geometric
  /// growth) and returns its index.
  std::size_t grow(std::uint32_t slots);

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;         ///< first chunk bump() may still fill
  std::size_t binary_active_ = 0;  ///< same, for bump_binary()
  std::vector<std::vector<Ref>> free_lists_;  ///< indexed by clause length
  MemTracker tracker_;                        ///< live block bytes
  std::size_t allocated_ = 0;
  std::size_t recycled_ = 0;
  std::size_t live_clauses_ = 0;
  std::uint32_t next_chunk_slots_ = kFirstChunkSlots;
  bool binary_tier_ = true;
};

}  // namespace satproof::util
