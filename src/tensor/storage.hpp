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
#include <span>
#include <vector>

#include "par/aligned.hpp"

namespace msa::tensor {

class Storage {
 public:
  Storage() = default;
  explicit Storage(std::size_t n, float value = 0.0f) : data_(n, value) {}
  /// Copies data into an aligned buffer.
  explicit Storage(const std::vector<float>& data)
      : data_(data.begin(), data.end()) {}

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::span<float> span() { return data_; }
  [[nodiscard]] std::span<const float> span() const { return data_; }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

 private:
  par::CacheLineVector<float> data_;
};

}  // namespace msa::tensor
