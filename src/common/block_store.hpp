// Paged block store: blocks held by value in fixed chunks behind a paged
// index of 4-byte block numbers, each block owned by exactly one store.
//
// The mining state (graph nodes with their per-file payload) is dense by
// FileId but populated sparsely: a shard holds blocks only for the files
// its streams touched. `BlockStore` keeps that state as
//
//   * a vector of page pointers, one per `kPageSize` consecutive indices,
//     where a page exists only once one of its indices is populated. A
//     page slot is a 32-bit block number: 0 for "no block", else the
//     block's creation rank plus one, so a zeroed page is an empty page;
//   * the blocks themselves, by value, in chunks of `kChunkBlocks` that are
//     allocated as blocks are created: block k lives in chunk
//     k / kChunkBlocks. A chunk never moves or shrinks, and growing the
//     index only moves page pointers, so a reference into one block
//     survives writes to others and the creation of new ones.
//
// Blocks are created in rank order, so every chunk but the last is full.
// Storing them by value in chunks costs no allocation per block and no
// 8-byte owning pointer per index slot.
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
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace farmer {

template <typename T, std::size_t PageSizeN = 256>
class BlockStore {
  static_assert(PageSizeN > 0, "page size must be positive");

 public:
  static constexpr std::size_t kPageSize = PageSizeN;
  /// Blocks per chunk: the unit of block allocation. A constant, not an
  /// option: at most kChunkBlocks - 1 created-but-unused blocks per store.
  static constexpr std::size_t kChunkBlocks = 16;

  BlockStore() = default;
  /// Move-only. A move leaves the source an empty store, counters included,
  /// so footprint_bytes() still equals the walk on it.
  BlockStore(BlockStore&& other) noexcept { *this = std::move(other); }
  BlockStore& operator=(BlockStore&& other) noexcept {
    if (this != &other) {
      size_ = std::exchange(other.size_, 0);
      pages_ = std::move(other.pages_);
      other.pages_.clear();
      chunks_ = std::move(other.chunks_);
      other.chunks_.clear();
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
    const std::uint32_t slot = (*pages_[p])[i % kPageSize];
    return slot == 0 ? nullptr : &block(slot);
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
    std::uint32_t& slot = (*page)[i % kPageSize];
    if (slot == 0) {
      if (blocks_ == std::numeric_limits<std::uint32_t>::max())
        throw std::length_error("BlockStore is full at 2^32 - 1 blocks");
      if (blocks_ % kChunkBlocks == 0)
        chunks_.push_back(std::make_unique<Chunk>());
      slot = static_cast<std::uint32_t>(++blocks_);
      heap_bytes_ += block(slot).heap_bytes();
    }
    return block(slot);
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

  /// The store object, the page-pointer vector, the populated pages and
  /// the chunk table, from the running counters.
  [[nodiscard]] std::size_t index_bytes() const noexcept {
    return table_bytes() + populated_pages_ * sizeof(Page);
  }
  /// The allocated chunks: every created block's inline bytes, plus the
  /// unused tail of the last chunk.
  [[nodiscard]] std::size_t block_bytes() const noexcept {
    return chunks_.size() * sizeof(Chunk);
  }
  /// Index, blocks and the heap the values own: O(1).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return index_bytes() + block_bytes() + heap_bytes_;
  }

  /// footprint_bytes() by walking every page and the block each populated
  /// slot names — the oracle the running counters are tested against;
  /// O(indices). The chunk bytes follow from the blocks the walk finds.
  [[nodiscard]] std::size_t recount_footprint_bytes() const {
    std::size_t bytes = table_bytes();
    std::size_t blocks = 0;
    for (const PagePtr& page : pages_) {
      if (!page) continue;
      bytes += sizeof(Page);
      for (const std::uint32_t slot : *page) {
        if (slot == 0) continue;
        bytes += block(slot).heap_bytes();
        ++blocks;
      }
    }
    return bytes + (blocks + kChunkBlocks - 1) / kChunkBlocks * sizeof(Chunk);
  }

 private:
  using Page = std::array<std::uint32_t, kPageSize>;
  using PagePtr = std::unique_ptr<Page>;
  struct Chunk {
    std::array<T, kChunkBlocks> blocks;
  };
  using ChunkPtr = std::unique_ptr<Chunk>;

  [[nodiscard]] T& block(std::uint32_t slot) const noexcept {
    const std::size_t k = slot - 1;
    return chunks_[k / kChunkBlocks]->blocks[k % kChunkBlocks];
  }

  [[nodiscard]] std::size_t table_bytes() const noexcept {
    return sizeof(*this) + pages_.capacity() * sizeof(PagePtr) +
           chunks_.capacity() * sizeof(ChunkPtr);
  }

  std::size_t size_ = 0;
  std::vector<PagePtr> pages_;
  std::vector<ChunkPtr> chunks_;     ///< block k in chunks_[k / kChunkBlocks]
  std::size_t blocks_ = 0;           ///< blocks created, all ranks < blocks_
  std::size_t populated_pages_ = 0;  ///< non-null entries of pages_
  std::size_t heap_bytes_ = 0;       ///< sum of heap_bytes() over blocks
};

}  // namespace farmer
