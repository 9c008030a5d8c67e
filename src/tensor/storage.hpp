// Contiguous FP32 slab backing one or more tensors.
//
// A Storage is a flat, owning float buffer with no layout of its own.
// Tensors reference a Storage via shared_ptr plus an element offset, so
// several tensors can alias disjoint ranges of one allocation.  This is the
// substrate of the slab memory model (see DESIGN.md "Memory model"): the
// parameter, gradient, and optimizer-state slabs built by nn::ParamStore are
// Storages, and the per-layer tensors are views into them.  The buffer never
// reallocates after construction, so raw pointers into a Storage stay valid
// for its whole lifetime.  It starts on a 64-byte cache line
// (par/aligned.hpp), so a kernel's SIMD loads from it split lines the same
// way on every allocation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "par/aligned.hpp"

namespace msa::tensor {

class Storage {
 public:
  /// Tag of the constructor that leaves the elements unwritten.
  struct Uninitialized {};

  Storage() = default;
  explicit Storage(std::size_t n, float value = 0.0f) : data_(n, value) {}
  /// n elements left unwritten, for a caller that writes every one of them
  /// before anything reads it: no fill pass.
  Storage(std::size_t n, Uninitialized /*tag*/) : data_(n) {}
  /// Copies data into an aligned buffer.
  explicit Storage(const std::vector<float>& data)
      : data_(data.begin(), data.end()) {}
  /// Copies [first, last) into an aligned buffer, in one pass.
  Storage(const float* first, const float* last) : data_(first, last) {}

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::span<float> span() { return data_; }
  [[nodiscard]] std::span<const float> span() const { return data_; }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

 private:
  // The cache-line allocator, except that a construct without a value
  // default-initialises: a float sized in by vector(n) stays unwritten.
  template <class T>
  struct Allocator : par::CacheLineAllocator<T> {
    template <class U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
    template <class U, class... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };

  std::vector<float, Allocator<float>> data_;
};

}  // namespace msa::tensor
