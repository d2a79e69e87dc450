// SmallVector: a vector with inline storage for the first N elements.
//
// A signature holds at most 7 tokens on the paper traces; a successor set
// holds up to `max_successors` (16) edges, but at most 4 for a file seen
// once under the default window of 4; a Correlator List holds up to
// `correlator_capacity` (8) entries. Storing the common size inline avoids
// a heap allocation per file request on the mining hot path (Core
// Guidelines Per.14: minimize allocations, Per.15: do not allocate on a
// critical branch), and every inline element is paid in every per-file
// block, so each inline capacity is sized to the traffic it serves.
//
// Layout: the inline buffer and the heap pointer share one union, followed
// by a 32-bit size and a 32-bit capacity, so the header beside the N inline
// elements is 8 bytes, not the 24 a pointer-size-capacity triple takes. Every
// per-file block holds several of these, so the header is paid per array per
// file. The vector is inline exactly while `capacity() == N`: the first
// spill allocates at least 2N, and from then on the pointer occupies the
// first bytes of the buffer. That is why `push_back` and `resize` copy their
// argument before they grow: it may alias an element the growth overwrites
// or frees. Capacities past 2^32 - 1 throw `std::length_error`.
//
// Only the operations the library needs are implemented; the element type is
// required to be trivially copyable, which all our interned-token and id
// types are. This keeps the grow path a single memcpy.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <new>
#include <stdexcept>
#include <type_traits>

namespace farmer {

template <typename T, std::size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector requires trivially copyable elements");
  static_assert(N > 0, "inline capacity must be positive");
  static_assert(N <= std::numeric_limits<std::uint32_t>::max() / 2,
                "the first spill's capacity 2N must fit the 32-bit capacity");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  // User-provided (not defaulted) so `const SmallVector<T, N> v{};` is
  // well-formed; the inline byte storage is deliberately left raw.
  SmallVector() noexcept {}  // NOLINT(modernize-use-equals-default)

  SmallVector(std::initializer_list<T> init) {
    reserve(init.size());
    for (const T& v : init) push_back(v);
  }

  SmallVector(const SmallVector& other) { copy_from(other); }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      clear_storage();
      copy_from(other);
    }
    return *this;
  }

  SmallVector(SmallVector&& other) noexcept { move_from(std::move(other)); }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      clear_storage();
      move_from(std::move(other));
    }
    return *this;
  }

  ~SmallVector() { clear_storage(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool is_inline() const noexcept { return capacity_ == N; }

  [[nodiscard]] T* data() noexcept {
    return is_inline() ? inline_data() : heap_;
  }
  [[nodiscard]] const T* data() const noexcept {
    return is_inline() ? inline_data() : heap_;
  }

  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    assert(i < size_);
    return data()[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return data()[i];
  }

  [[nodiscard]] T& front() noexcept { return (*this)[0]; }
  [[nodiscard]] const T& front() const noexcept { return (*this)[0]; }
  [[nodiscard]] T& back() noexcept { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return (*this)[size_ - 1]; }

  [[nodiscard]] iterator begin() noexcept { return data(); }
  [[nodiscard]] iterator end() noexcept { return data() + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data(); }
  [[nodiscard]] const_iterator end() const noexcept { return data() + size_; }

  void push_back(const T& v) {
    const T value = v;  // `v` may alias the storage grow() replaces
    if (size_ == capacity_) grow(std::size_t{capacity_} * 2);
    data()[size_++] = value;
  }

  void pop_back() noexcept {
    assert(size_ > 0);
    --size_;
  }

  void clear() noexcept { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }

  void resize(std::size_t n, const T& fill = T{}) {
    const T value = fill;  // `fill` may alias the storage grow() replaces
    reserve(n);
    T* d = data();
    for (std::size_t i = size_; i < n; ++i) d[i] = value;
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Removes the element at index i by shifting the tail left. O(size).
  void erase_at(std::size_t i) noexcept {
    assert(i < size_);
    T* d = data();
    std::memmove(d + i, d + i + 1, (size_ - i - 1) * sizeof(T));
    --size_;
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) noexcept {
    return a.size_ == b.size_ &&
           std::equal(a.begin(), a.end(), b.begin());
  }

  /// Heap bytes owned by this vector (0 when inline) — footprint accounting.
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return is_inline() ? 0 : capacity_ * sizeof(T);
  }

 private:
  [[nodiscard]] T* inline_data() noexcept {
    return std::launder(reinterpret_cast<T*>(inline_storage_));
  }
  [[nodiscard]] const T* inline_data() const noexcept {
    return std::launder(reinterpret_cast<const T*>(inline_storage_));
  }

  void grow(std::size_t new_cap) {
    new_cap = std::max<std::size_t>(new_cap, N * 2);
    if (new_cap > std::numeric_limits<std::uint32_t>::max())
      throw std::length_error("SmallVector capacity exceeds 2^32 - 1");
    T* heap = static_cast<T*>(::operator new(new_cap * sizeof(T)));
    std::memcpy(heap, data(), size_ * sizeof(T));
    if (!is_inline()) ::operator delete(heap_);
    heap_ = heap;  // overwrites the first inline bytes, copied above
    capacity_ = static_cast<std::uint32_t>(new_cap);
  }

  void clear_storage() noexcept {
    if (!is_inline()) ::operator delete(heap_);
    capacity_ = N;
    size_ = 0;
  }

  void copy_from(const SmallVector& other) {
    reserve(other.size_);
    std::memcpy(data(), other.data(), other.size_ * sizeof(T));
    size_ = other.size_;
  }

  void move_from(SmallVector&& other) noexcept {
    if (other.is_inline()) {
      std::memcpy(inline_data(), other.inline_data(), other.size_ * sizeof(T));
    } else {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      other.capacity_ = N;
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  union {
    alignas(T) std::byte inline_storage_[N * sizeof(T)];
    T* heap_;  ///< the elements once spilled (capacity_ > N)
  };
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
};

}  // namespace farmer
