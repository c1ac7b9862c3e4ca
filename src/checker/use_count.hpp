#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <vector>

#include "src/cnf/types.hpp"
#include "src/util/temp_file.hpp"

namespace satproof::checker {

/// Storage for the per-learned-clause use counts of the breadth-first
/// checker (paper Section 3.3).
///
/// "A first pass through the trace can determine the number of times a
///  clause is used as a resolve source. During the resolution process, the
///  checker tracks the number of times the clause has been used ... and
///  when its use is complete, the clause can be deleted safely."
///
/// The paper further notes that "the clause's total use count is stored in
/// a temporary file because there is a possibility that even keeping just
/// one counter for each learned clause in main memory is still not
/// feasible" — hence the file-backed implementation — and that the counting
/// pass may need to be split into several passes over ID ranges, which the
/// breadth-first checker drives through ranged counting (see
/// BreadthFirstOptions::count_range).
///
/// Counts are indexed by learned-clause ordinal (id - num_original).
class UseCountStore {
 public:
  virtual ~UseCountStore() = default;

  /// Grows the store to hold `n` counters, all zero.
  virtual void resize(std::uint64_t n) = 0;

  /// Extends the store to `n` counters, keeping the current ones; the new
  /// ones start at zero. Lets the breadth-first checker count uses while
  /// it is still discovering how many learned clauses there are.
  virtual void grow(std::uint64_t n) = 0;

  /// Adds one use to counter `index`.
  virtual void increment(std::uint64_t index) = 0;

  /// Removes one use from counter `index` and returns the new value.
  /// The counter must be positive.
  virtual std::uint32_t decrement(std::uint64_t index) = 0;

  /// Removes one use from each counter in `indices` (in order, so repeated
  /// indices decrement repeatedly), appending every index whose counter
  /// reached zero to `exhausted` in that same order. One virtual call per
  /// chain instead of one per antecedent; implementations additionally
  /// batch their own bookkeeping (e.g. a single page-residency check per
  /// run of nearby indices).
  virtual void decrement_batch(std::span<const std::uint64_t> indices,
                               std::vector<std::uint64_t>& exhausted) {
    for (const std::uint64_t index : indices) {
      if (decrement(index) == 0) exhausted.push_back(index);
    }
  }

  /// Current value of counter `index`.
  [[nodiscard]] virtual std::uint32_t get(std::uint64_t index) = 0;

  /// Bytes of main memory this store occupies (for peak accounting).
  [[nodiscard]] virtual std::size_t memory_bytes() const = 0;
};

/// Plain in-memory counters: one 32-bit counter per learned clause.
class InMemoryUseCounts final : public UseCountStore {
 public:
  void resize(std::uint64_t n) override;
  void grow(std::uint64_t n) override;
  void increment(std::uint64_t index) override;
  std::uint32_t decrement(std::uint64_t index) override;
  void decrement_batch(std::span<const std::uint64_t> indices,
                       std::vector<std::uint64_t>& exhausted) override;
  [[nodiscard]] std::uint32_t get(std::uint64_t index) override;
  [[nodiscard]] std::size_t memory_bytes() const override;

 private:
  std::vector<std::uint32_t> counts_;
};

/// File-backed counters: fixed-width 32-bit records in a temporary file,
/// with a single cached page so sequential access patterns (which is what
/// both checker passes produce) stay cheap. Only the page occupies main
/// memory.
class FileBackedUseCounts final : public UseCountStore {
 public:
  /// `page_entries` counters are cached in memory at a time.
  explicit FileBackedUseCounts(std::size_t page_entries = 4096);
  ~FileBackedUseCounts() override;

  void resize(std::uint64_t n) override;
  void grow(std::uint64_t n) override;
  void increment(std::uint64_t index) override;
  std::uint32_t decrement(std::uint64_t index) override;
  [[nodiscard]] std::uint32_t get(std::uint64_t index) override;
  [[nodiscard]] std::size_t memory_bytes() const override;

 private:
  /// Appends zeroed records to the file until it holds `n`.
  void extend_file(std::uint64_t n);
  void load_page(std::uint64_t page);
  void flush_page();
  std::uint32_t& slot(std::uint64_t index);

  util::TempFile file_;
  std::fstream io_;
  std::uint64_t size_ = 0;
  std::uint64_t file_entries_ = 0;  ///< zeroed records in the file
  std::size_t page_entries_;
  std::vector<std::uint32_t> page_;
  std::uint64_t page_index_ = ~std::uint64_t{0};
  bool page_dirty_ = false;
};

/// Which use-count store the breadth-first checker builds.
enum class UseCountMode : std::uint8_t {
  InMemory,    ///< one counter per learned clause in RAM
  FileBacked,  ///< counters in a temp file (paper's low-memory variant)
};

/// Factory for the configured store.
[[nodiscard]] std::unique_ptr<UseCountStore> make_use_count_store(
    UseCountMode mode);

}  // namespace satproof::checker
