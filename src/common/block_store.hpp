// Paged block store: one heap block per populated index behind a paged
// index, each block owned by exactly one store.
//
// The mining state (graph nodes with their per-file payload) is dense by
// FileId but populated sparsely: a shard holds blocks only for the files
// its streams touched. `BlockStore` keeps that state as
//
//   * a vector of page pointers, one per `kPageSize` consecutive indices,
//     where a page exists only once one of its indices is populated;
//   * one heap block per populated index, owned by its page slot. Block
//     addresses are stable: growing the index never moves a block, so a
//     reference into one block survives writes to others.
//
// Footprint accounting is O(1): the store keeps running counters of its
// populated pages, its blocks and the summed heap bytes of its values. The
// heap sum is adjusted where the store itself creates a value (`mutate()`)
// and wherever a caller changes the heap a value owns
// (`note_heap_change()`). `T` reports that heap through
// `std::size_t heap_bytes() const`. `recount_footprint_bytes()` keeps the
// full walk as the oracle the counters are tested against.
//
// Single-owner: the store is move-only, and external synchronization is
// required, like every mining structure.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace farmer {

template <typename T, std::size_t PageSizeN = 256>
class BlockStore {
  static_assert(PageSizeN > 0, "page size must be positive");

 public:
  static constexpr std::size_t kPageSize = PageSizeN;

  BlockStore() = default;
  /// Move-only. A move leaves the source an empty store, counters included,
  /// so footprint_bytes() still equals the walk on it.
  BlockStore(BlockStore&& other) noexcept { *this = std::move(other); }
  BlockStore& operator=(BlockStore&& other) noexcept {
    if (this != &other) {
      size_ = std::exchange(other.size_, 0);
      pages_ = std::move(other.pages_);
      other.pages_.clear();
      blocks_ = std::exchange(other.blocks_, 0);
      populated_pages_ = std::exchange(other.populated_pages_, 0);
      heap_bytes_ = std::exchange(other.heap_bytes_, 0);
    }
    return *this;
  }

  /// Logical size: one past the highest index ever touched (dense-table
  /// semantics; absent indices read as "no block").
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Grows the logical size without populating anything.
  void grow_to(std::size_t n) {
    if (n > size_) size_ = n;
  }

  /// Block value at `i`, or nullptr when absent / out of range.
  [[nodiscard]] const T* find(std::size_t i) const noexcept {
    if (i >= size_) return nullptr;
    const std::size_t p = i / kPageSize;
    if (p >= pages_.size() || !pages_[p]) return nullptr;
    return pages_[p]->slots[i % kPageSize].get();
  }

  /// The write gate: returns a mutable reference to the block at `i`,
  /// default-constructing it (and its page) when absent. A caller that
  /// then changes the heap the value owns must report it
  /// (note_heap_change).
  [[nodiscard]] T& mutate(std::size_t i) {
    const std::size_t p = i / kPageSize;
    if (p >= pages_.size()) pages_.resize(p + 1);
    if (i >= size_) size_ = i + 1;
    PagePtr& page = pages_[p];
    if (!page) {
      page = std::make_unique<Page>();
      ++populated_pages_;
    }
    BlockPtr& b = page->slots[i % kPageSize];
    if (!b) {
      b = std::make_unique<T>();
      heap_bytes_ += b->heap_bytes();
      ++blocks_;
    }
    return *b;
  }

  /// Populated indices right now.
  [[nodiscard]] std::size_t block_count() const noexcept { return blocks_; }

  /// Reports that a value reached through mutate() changed the heap it
  /// owns from `before` to `after` bytes. Every mutation that can change a
  /// value's heap (a SmallVector growing past its capacity, an assignment
  /// that reallocates) must report here, or footprint_bytes() drifts from
  /// recount_footprint_bytes().
  void note_heap_change(std::size_t before, std::size_t after) noexcept {
    heap_bytes_ -= before;
    heap_bytes_ += after;
  }

  /// Index table + pages + blocks + the heap the values own, from the
  /// running counters: O(1).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return index_bytes() + populated_pages_ * sizeof(Page) +
           blocks_ * sizeof(T) + heap_bytes_;
  }

  /// footprint_bytes() by walking every page and block — the oracle the
  /// running counters are tested against; O(blocks).
  [[nodiscard]] std::size_t recount_footprint_bytes() const {
    std::size_t bytes = index_bytes();
    for (const PagePtr& page : pages_) {
      if (!page) continue;
      bytes += sizeof(Page);
      for (const BlockPtr& b : page->slots)
        if (b) bytes += sizeof(T) + b->heap_bytes();
    }
    return bytes;
  }

 private:
  using BlockPtr = std::unique_ptr<T>;
  struct Page {
    std::array<BlockPtr, kPageSize> slots;
  };
  using PagePtr = std::unique_ptr<Page>;

  [[nodiscard]] std::size_t index_bytes() const noexcept {
    return sizeof(*this) + pages_.capacity() * sizeof(PagePtr);
  }

  std::size_t size_ = 0;
  std::vector<PagePtr> pages_;
  std::size_t blocks_ = 0;           ///< populated slots over all pages
  std::size_t populated_pages_ = 0;  ///< non-null entries of pages_
  std::size_t heap_bytes_ = 0;       ///< sum of heap_bytes() over blocks
};

}  // namespace farmer
