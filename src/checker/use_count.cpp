#include "src/checker/use_count.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace satproof::checker {

// ---------------------------------------------------------------- in-memory

void InMemoryUseCounts::resize(std::uint64_t n) { counts_.assign(n, 0); }

void InMemoryUseCounts::grow(std::uint64_t n) { counts_.resize(n, 0); }

void InMemoryUseCounts::increment(std::uint64_t index) { ++counts_.at(index); }

std::uint32_t InMemoryUseCounts::decrement(std::uint64_t index) {
  std::uint32_t& c = counts_.at(index);
  if (c == 0) {
    throw std::logic_error("UseCountStore: decrement below zero");
  }
  return --c;
}

void InMemoryUseCounts::decrement_batch(std::span<const std::uint64_t> indices,
                                        std::vector<std::uint64_t>& exhausted) {
  // One tight loop over the flat counter array: no per-antecedent virtual
  // dispatch, no repeated bounds machinery beyond .at()'s check.
  for (const std::uint64_t index : indices) {
    std::uint32_t& c = counts_.at(index);
    if (c == 0) {
      throw std::logic_error("UseCountStore: decrement below zero");
    }
    if (--c == 0) exhausted.push_back(index);
  }
}

std::uint32_t InMemoryUseCounts::get(std::uint64_t index) {
  return counts_.at(index);
}

std::size_t InMemoryUseCounts::memory_bytes() const {
  return counts_.size() * sizeof(std::uint32_t);
}

// -------------------------------------------------------------- file-backed

FileBackedUseCounts::FileBackedUseCounts(std::size_t page_entries)
    : file_("satproof-usecounts"), page_entries_(page_entries) {
  io_.open(file_.path(),
           std::ios::binary | std::ios::in | std::ios::out | std::ios::trunc);
  if (!io_) {
    throw std::runtime_error("FileBackedUseCounts: cannot open temp file");
  }
}

FileBackedUseCounts::~FileBackedUseCounts() = default;

void FileBackedUseCounts::resize(std::uint64_t n) {
  size_ = n;
  page_index_ = ~std::uint64_t{0};
  page_dirty_ = false;
  file_entries_ = 0;  // rewrite every record as zero
  extend_file(n);
}

void FileBackedUseCounts::grow(std::uint64_t n) {
  if (n <= size_) return;
  // Records at and past size_ are zero in the file and in the cached page
  // alike, so the page stays valid. The file grows geometrically: growing
  // one counter at a time costs amortized O(1) writes.
  if (n > file_entries_) extend_file(std::max(n, 2 * file_entries_));
  size_ = n;
}

void FileBackedUseCounts::extend_file(std::uint64_t n) {
  io_.seekp(static_cast<std::streamoff>(file_entries_ * sizeof(std::uint32_t)));
  const std::vector<std::uint32_t> zeros(page_entries_, 0);
  while (file_entries_ < n) {
    const std::uint64_t chunk =
        std::min<std::uint64_t>(page_entries_, n - file_entries_);
    io_.write(reinterpret_cast<const char*>(zeros.data()),
              static_cast<std::streamsize>(chunk * sizeof(std::uint32_t)));
    file_entries_ += chunk;
  }
  io_.flush();
  if (!io_) throw std::runtime_error("FileBackedUseCounts: resize failed");
}

void FileBackedUseCounts::load_page(std::uint64_t page) {
  if (page == page_index_) return;
  flush_page();
  const std::uint64_t first = page * page_entries_;
  const std::uint64_t count =
      std::min<std::uint64_t>(page_entries_, size_ - first);
  page_.assign(page_entries_, 0);
  io_.seekg(static_cast<std::streamoff>(first * sizeof(std::uint32_t)));
  io_.read(reinterpret_cast<char*>(page_.data()),
           static_cast<std::streamsize>(count * sizeof(std::uint32_t)));
  if (!io_) throw std::runtime_error("FileBackedUseCounts: read failed");
  page_index_ = page;
  page_dirty_ = false;
}

void FileBackedUseCounts::flush_page() {
  if (!page_dirty_ || page_index_ == ~std::uint64_t{0}) return;
  const std::uint64_t first = page_index_ * page_entries_;
  const std::uint64_t count =
      std::min<std::uint64_t>(page_entries_, size_ - first);
  io_.seekp(static_cast<std::streamoff>(first * sizeof(std::uint32_t)));
  io_.write(reinterpret_cast<const char*>(page_.data()),
            static_cast<std::streamsize>(count * sizeof(std::uint32_t)));
  io_.flush();
  if (!io_) throw std::runtime_error("FileBackedUseCounts: write failed");
  page_dirty_ = false;
}

std::uint32_t& FileBackedUseCounts::slot(std::uint64_t index) {
  if (index >= size_) {
    throw std::out_of_range("FileBackedUseCounts: index out of range");
  }
  load_page(index / page_entries_);
  return page_[index % page_entries_];
}

void FileBackedUseCounts::increment(std::uint64_t index) {
  ++slot(index);
  page_dirty_ = true;
}

std::uint32_t FileBackedUseCounts::decrement(std::uint64_t index) {
  std::uint32_t& c = slot(index);
  if (c == 0) {
    throw std::logic_error("UseCountStore: decrement below zero");
  }
  page_dirty_ = true;
  return --c;
}

std::uint32_t FileBackedUseCounts::get(std::uint64_t index) {
  return slot(index);
}

std::size_t FileBackedUseCounts::memory_bytes() const {
  return page_entries_ * sizeof(std::uint32_t);
}

std::unique_ptr<UseCountStore> make_use_count_store(UseCountMode mode) {
  switch (mode) {
    case UseCountMode::InMemory:
      return std::make_unique<InMemoryUseCounts>();
    case UseCountMode::FileBacked:
      return std::make_unique<FileBackedUseCounts>();
  }
  throw std::logic_error("make_use_count_store: unknown mode");
}

}  // namespace satproof::checker
