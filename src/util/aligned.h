// Cache-line aligned storage. Model replicas and per-worker accumulators
// are allocated on cache-line boundaries so that adjacent replicas never
// share a line (false sharing is one of the hardware-efficiency effects the
// paper studies, so we must control it, not suffer from it accidentally).
#pragma once

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "util/logging.h"

namespace dw {

/// Cache line size assumed throughout (x86-64).
inline constexpr size_t kCacheLineBytes = 64;

/// Rounds `n` up to a multiple of `alignment`.
inline constexpr size_t RoundUp(size_t n, size_t alignment) {
  return (n + alignment - 1) / alignment * alignment;
}

/// Fixed-size array of T aligned to (and padded to) cache-line boundaries.
/// Zero-initialized, except through ResizeForOverwrite.
template <typename T>
class AlignedArray {
 public:
  AlignedArray() = default;

  /// Allocates `size` zeroed elements.
  explicit AlignedArray(size_t size) { Resize(size); }

  AlignedArray(AlignedArray&& other) noexcept { *this = std::move(other); }
  AlignedArray& operator=(AlignedArray&& other) noexcept {
    if (this != &other) {
      Free();
      data_ = other.data_;
      size_ = other.size_;
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }

  AlignedArray(const AlignedArray&) = delete;
  AlignedArray& operator=(const AlignedArray&) = delete;

  ~AlignedArray() { Free(); }

  /// Reallocates to `size` zeroed elements (contents are NOT preserved).
  void Resize(size_t size) {
    Free();
    size_ = size;
    if (size == 0) return;
    const size_t bytes = RoundUp(size * sizeof(T), kCacheLineBytes);
    void* p = std::aligned_alloc(kCacheLineBytes, bytes);
    DW_CHECK(p != nullptr) << "aligned_alloc of " << bytes << " bytes failed";
    std::memset(p, 0, bytes);
    data_ = static_cast<T*>(p);
  }

  /// Resize without the zero fill: the contents are indeterminate, for
  /// buffers the caller overwrites before it reads them.
  void ResizeForOverwrite(size_t size) {
    Free();
    size_ = size;
    if (size == 0) return;
    const size_t bytes = RoundUp(size * sizeof(T), kCacheLineBytes);
    data_ = static_cast<T*>(std::aligned_alloc(kCacheLineBytes, bytes));
    DW_CHECK(data_ != nullptr) << "aligned_alloc of " << bytes
                               << " bytes failed";
  }

  /// Element access (unchecked on release hot paths).
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void Free() {
    if (data_ != nullptr) {
      std::free(data_);
      data_ = nullptr;
    }
    size_ = 0;
  }

  T* data_ = nullptr;
  size_t size_ = 0;
};

/// A value padded to occupy a full cache line; arrays of PerCoreCounter do
/// not induce coherence traffic between writers.
template <typename T>
struct alignas(kCacheLineBytes) Padded {
  T value{};
};

}  // namespace dw
