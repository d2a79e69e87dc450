// Copy-on-write block store: refcounted immutable per-index blocks behind a
// paged index, with generation-counted lazy cloning.
//
// The mining state that a snapshot publish used to deep-copy (graph nodes,
// per-file semantic state) is dense-by-FileId but mutated with heavy skew: a
// drain round under a Zipf head touches a few hundred files out of a
// 100k-file shard. `CowBlockStore` makes publication cost proportional to
// that *dirty set* instead of the shard size:
//
//   * Every populated index holds a heap block (`shared_ptr<Block>`) tagged
//     with the store generation it was created or cloned at. Block addresses
//     are stable: growing the index never moves a block.
//   * `share()` bumps the generation and returns a second store whose pages
//     structurally share every block — O(pages) pointer copies, no block is
//     touched. After a share, *both* stores see `block.gen < gen_` and will
//     clone before the first mutation, so either side may keep mutating
//     while the other stays frozen (the exported-snapshot use only ever
//     mutates the live side).
//   * `mutate(i)` is the single write gate: it clones the page (an array of
//     `kPageSize` shared_ptrs) and then the block exactly when they are
//     still shared with an earlier `share()`, marks them current, and hands
//     out a mutable reference. A hot file is cloned once per publish epoch
//     and then written in place — the implicit dirty set.
//
// No atomics are read on the write path: sharing is tracked by generation
// counters the owning thread wrote itself, never by `use_count()` (whose
// reader-side decrements would race the check). Cross-thread publication
// safety comes from the caller's release/acquire edge (the RCU table swap):
// after that edge the snapshot side is read-only, so shared blocks are
// immutable by construction and reclamation is plain shared_ptr counting.
//
// Footprint accounting is O(1): the store keeps running counters of its
// populated pages, its blocks and the summed heap bytes of its values. The
// heap sum is adjusted where the store itself creates or clones a value
// (`mutate()`) and wherever a caller changes the heap a value owns
// (`note_heap_change()`). `T` reports that heap through
// `std::size_t heap_bytes() const`. `recount_footprint_bytes()` keeps the
// full walk as the oracle the counters are tested against.
//
// The store itself is single-owner (external synchronization required, like
// every mining structure); only the *blocks* are shared across stores.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace farmer {

/// Tag selecting the structural-sharing copy of a COW-backed structure
/// (Farmer, CorrelationGraph): `Farmer snap(CowShare{}, live)`.
struct CowShare {};

/// Cumulative write-path counters (monotone for the lifetime of a store;
/// `share()` copies them into the snapshot, deep copies reset them).
struct CowStoreStats {
  std::uint64_t blocks = 0;   ///< populated indices right now
  std::uint64_t creates = 0;  ///< blocks first populated
  std::uint64_t clones = 0;   ///< blocks copied because a snapshot shared them

  /// Write-path events total: every block that is *not* structurally shared
  /// with the previous share() was counted here exactly once.
  [[nodiscard]] std::uint64_t mutations() const noexcept {
    return creates + clones;
  }
};

template <typename T, std::size_t PageSizeN = 256>
class CowBlockStore {
  static_assert(PageSizeN > 0, "page size must be positive");

 public:
  static constexpr std::size_t kPageSize = PageSizeN;

  CowBlockStore() = default;

  /// Copying a store is always a *deep* copy (every block duplicated,
  /// nothing shared, counters reset to a fresh baseline). Structural
  /// sharing is only ever handed out by the explicit `share()` below, so a
  /// defaulted member copy can never silently alias mining state.
  CowBlockStore(const CowBlockStore& other) { deep_copy_from(other); }
  CowBlockStore& operator=(const CowBlockStore& other) {
    if (this != &other) {
      pages_.clear();
      page_gens_.clear();
      deep_copy_from(other);
    }
    return *this;
  }
  /// Moves leave the source an empty store, counters included.
  CowBlockStore(CowBlockStore&& other) noexcept { *this = std::move(other); }
  CowBlockStore& operator=(CowBlockStore&& other) noexcept {
    if (this != &other) {
      gen_ = other.gen_;
      size_ = std::exchange(other.size_, 0);
      pages_ = std::move(other.pages_);
      page_gens_ = std::move(other.page_gens_);
      stats_ = std::exchange(other.stats_, CowStoreStats{});
      populated_pages_ = std::exchange(other.populated_pages_, 0);
      heap_bytes_ = std::exchange(other.heap_bytes_, 0);
    }
    return *this;
  }

  /// Structurally sharing copy for snapshot publication: O(pages) pointer
  /// copies. Bumps this store's generation first, so every block either
  /// side touches afterwards is cloned before the write.
  [[nodiscard]] CowBlockStore share() {
    ++gen_;
    CowBlockStore snap;
    snap.gen_ = gen_;
    snap.size_ = size_;
    snap.pages_ = pages_;          // shared_ptr copies: pages + blocks shared
    snap.page_gens_ = page_gens_;  // all < gen_, so the snapshot also clones
    snap.stats_ = stats_;
    snap.populated_pages_ = populated_pages_;
    snap.heap_bytes_ = heap_bytes_;
    return snap;
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
    const BlockPtr& b = pages_[p]->slots[i % kPageSize];
    return b ? &b->value : nullptr;
  }

  /// The write gate: returns a mutable reference to the block at `i`,
  /// default-constructing it when absent and COW-cloning page and block
  /// when they are still shared with an earlier share(). A caller that then
  /// changes the heap the value owns must report it (note_heap_change).
  [[nodiscard]] T& mutate(std::size_t i) {
    const std::size_t p = i / kPageSize;
    if (p >= pages_.size()) {
      pages_.resize(p + 1);
      page_gens_.resize(p + 1, 0);
    }
    if (i >= size_) size_ = i + 1;
    PagePtr& page = pages_[p];
    if (!page) {
      page = std::make_shared<Page>();
      page_gens_[p] = gen_;
      ++populated_pages_;
    } else if (page_gens_[p] != gen_) {
      page = std::make_shared<Page>(*page);  // kPageSize pointer copies
      page_gens_[p] = gen_;
    }
    BlockPtr& b = page->slots[i % kPageSize];
    if (!b) {
      b = std::make_shared<Block>();
      b->gen = gen_;
      heap_bytes_ += b->value.heap_bytes();
      ++stats_.blocks;
      ++stats_.creates;
    } else if (b->gen != gen_) {
      auto fresh = std::make_shared<Block>(*b);  // the actual dirty-copy
      fresh->gen = gen_;
      // A copy may allocate tighter than its source (SmallVector reserves
      // the size, not the capacity), so the clone is re-measured.
      heap_bytes_ -= b->value.heap_bytes();
      heap_bytes_ += fresh->value.heap_bytes();
      b = std::move(fresh);
      ++stats_.clones;
    }
    return b->value;
  }

  /// Stable identity of the block at `i` (nullptr when absent): two stores
  /// returning the same pointer are structurally sharing that block — the
  /// COW-invariant tests pin snapshots down with exactly this.
  [[nodiscard]] const void* block_identity(std::size_t i) const noexcept {
    if (i >= size_) return nullptr;
    const std::size_t p = i / kPageSize;
    if (p >= pages_.size() || !pages_[p]) return nullptr;
    return pages_[p]->slots[i % kPageSize].get();
  }

  [[nodiscard]] const CowStoreStats& stats() const noexcept { return stats_; }

  /// Inline bytes of one block as allocated by this store (without the
  /// heap its value owns).
  [[nodiscard]] static constexpr std::size_t block_inline_bytes() noexcept {
    return sizeof(Block);
  }

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
  /// running counters: O(1). Shared blocks are counted in full by every
  /// store referencing them, so summing stores over-counts shared state —
  /// callers that publish snapshots document the bound they report.
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return index_bytes() + populated_pages_ * sizeof(Page) +
           static_cast<std::size_t>(stats_.blocks) * sizeof(Block) +
           heap_bytes_;
  }

  /// footprint_bytes() by walking every page and block — the oracle the
  /// running counters are tested against; O(blocks).
  [[nodiscard]] std::size_t recount_footprint_bytes() const {
    std::size_t bytes = index_bytes();
    for (const PagePtr& page : pages_) {
      if (!page) continue;
      bytes += sizeof(Page);
      for (const BlockPtr& b : page->slots)
        if (b) bytes += sizeof(Block) + b->value.heap_bytes();
    }
    return bytes;
  }

 private:
  struct Block {
    std::uint64_t gen = 0;  ///< generation this block was created/cloned at
    T value{};
  };
  using BlockPtr = std::shared_ptr<Block>;
  struct Page {
    std::array<BlockPtr, kPageSize> slots;
  };
  using PagePtr = std::shared_ptr<Page>;

  [[nodiscard]] std::size_t index_bytes() const noexcept {
    return sizeof(*this) + pages_.capacity() * sizeof(PagePtr) +
           page_gens_.capacity() * sizeof(std::uint64_t);
  }

  void deep_copy_from(const CowBlockStore& other) {
    gen_ = 1;
    size_ = other.size_;
    pages_.reserve(other.pages_.size());
    page_gens_.assign(other.pages_.size(), 1);
    stats_ = CowStoreStats{};
    populated_pages_ = 0;
    heap_bytes_ = 0;
    for (const PagePtr& src : other.pages_) {
      if (!src) {
        pages_.push_back(nullptr);
        continue;
      }
      auto page = std::make_shared<Page>();
      for (std::size_t s = 0; s < kPageSize; ++s) {
        if (!src->slots[s]) continue;
        page->slots[s] = std::make_shared<Block>(*src->slots[s]);
        page->slots[s]->gen = 1;
        heap_bytes_ += page->slots[s]->value.heap_bytes();
        ++stats_.blocks;
      }
      pages_.push_back(std::move(page));
      ++populated_pages_;
    }
    stats_.creates = stats_.blocks;
  }

  // Invariant: page_gens_[p] == gen_ iff this store created/cloned page p
  // since the last share(), i.e. the page (and via block gens, each block)
  // is exclusively owned and writable in place.
  std::uint64_t gen_ = 1;
  std::size_t size_ = 0;
  std::vector<PagePtr> pages_;
  std::vector<std::uint64_t> page_gens_;
  CowStoreStats stats_;
  std::size_t populated_pages_ = 0;  ///< non-null entries of pages_
  std::size_t heap_bytes_ = 0;       ///< sum of heap_bytes() over blocks
};

}  // namespace farmer
