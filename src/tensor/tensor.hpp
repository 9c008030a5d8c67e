// Dense row-major FP32 tensor.
//
// Deliberately simple: a shape plus a contiguous float range.  All layout
// decisions (strides, views) stay implicit/contiguous, which keeps every
// kernel auditable — important for a reproduction whose claims rest on the
// numerics being exactly what the algorithms specify.
//
// A tensor references its elements through a shared Storage slab plus an
// element offset.  Ordinary tensors own a private Storage and keep full
// value semantics: copies are deep, exactly as when the class wrapped a
// std::vector.  Views created with view_of() alias a caller-provided
// Storage instead; they are how nn::ParamStore lays every parameter and
// gradient tensor into one contiguous slab per role while layers keep
// operating on their own (now aliased) members.  Copy *assignment* onto a
// view writes through to the aliased range rather than rebinding, so
// assigning a whole tensor onto a relocated layer member (`*param = value`)
// fills the slab in place; move assignment rebinds, which is what
// relocation uses.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/storage.hpp"

namespace msa::tensor {

using Shape = std::vector<std::size_t>;

class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(Shape shape) : shape_(std::move(shape)) {
    numel_ = numel_of(shape_);
    storage_ = std::make_shared<Storage>(numel_);
    base_ = storage_->data();
  }

  Tensor(Shape shape, const std::vector<float>& data)
      : shape_(std::move(shape)) {
    if (data.size() != numel_of(shape_)) {
      throw std::invalid_argument("Tensor: data does not match shape");
    }
    numel_ = data.size();
    storage_ = std::make_shared<Storage>(data);
    base_ = storage_->data();
  }

  Tensor(const Tensor& other) { assign_deep(other); }
  Tensor(Tensor&& other) noexcept { take(std::move(other)); }

  /// Deep copy for owning tensors.  Assignment *onto a view* copies the
  /// elements into the aliased slab range instead (element count must
  /// match), preserving the aliasing that ParamStore established.
  Tensor& operator=(const Tensor& other);
  /// Rebinds: this tensor ends up referencing whatever other referenced
  /// (views stay views) — the relocation primitive.
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) take(std::move(other));
    return *this;
  }

  // ---- factories -----------------------------------------------------------
  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  /// A tensor whose elements are left unwritten (no fill pass), for a
  /// kernel that writes every element before anything reads it.
  static Tensor uninitialized(Shape shape);
  static Tensor full(Shape shape, float value);
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f);
  static Tensor uniform(Shape shape, Rng& rng, float lo, float hi);
  /// 1-D tensor from values.
  static Tensor of(std::initializer_list<float> values);

  /// Aliasing view of [offset, offset + numel(shape)) within @p storage.
  /// The view shares the slab: writes through the view are visible to every
  /// other view of the same range, and the storage must outlive it (shared
  /// ownership guarantees that here).
  static Tensor view_of(std::shared_ptr<Storage> storage, std::size_t offset,
                        Shape shape);

  // ---- shape ---------------------------------------------------------------
  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::size_t ndim() const { return shape_.size(); }
  [[nodiscard]] std::size_t numel() const { return numel_; }
  [[nodiscard]] std::size_t dim(std::size_t i) const { return shape_.at(i); }
  [[nodiscard]] bool same_shape(const Tensor& other) const {
    return shape_ == other.shape_;
  }
  [[nodiscard]] std::string shape_str() const;

  /// Reshape in place (element count must be preserved; metadata only).
  Tensor& reshape(Shape shape);
  [[nodiscard]] Tensor reshaped(Shape shape) const;

  // ---- storage --------------------------------------------------------------
  /// True when this tensor aliases an externally owned slab.
  [[nodiscard]] bool is_view() const { return view_; }
  [[nodiscard]] const std::shared_ptr<Storage>& storage() const {
    return storage_;
  }
  /// Element offset of this tensor within its storage.
  [[nodiscard]] std::size_t storage_offset() const { return offset_; }

  // ---- element access ------------------------------------------------------
  [[nodiscard]] float* data() { return base_; }
  [[nodiscard]] const float* data() const { return base_; }
  [[nodiscard]] std::span<float> flat() { return {base_, numel_}; }
  [[nodiscard]] std::span<const float> flat() const { return {base_, numel_}; }

  float& operator[](std::size_t i) { return base_[i]; }
  float operator[](std::size_t i) const { return base_[i]; }

  float& at2(std::size_t i, std::size_t j) {
    return base_[i * shape_[1] + j];
  }
  [[nodiscard]] float at2(std::size_t i, std::size_t j) const {
    return base_[i * shape_[1] + j];
  }
  float& at3(std::size_t i, std::size_t j, std::size_t k) {
    return base_[(i * shape_[1] + j) * shape_[2] + k];
  }
  [[nodiscard]] float at3(std::size_t i, std::size_t j, std::size_t k) const {
    return base_[(i * shape_[1] + j) * shape_[2] + k];
  }
  float& at4(std::size_t i, std::size_t j, std::size_t k, std::size_t l) {
    return base_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
  }
  [[nodiscard]] float at4(std::size_t i, std::size_t j, std::size_t k,
                          std::size_t l) const {
    return base_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
  }

  // ---- in-place arithmetic ---------------------------------------------------
  // add_, sub_, mul_, scale_ and axpy_ run on the par pool in chunks of 2^14
  // elements (inline below that).  Each element depends only on its own
  // operands, so the bits do not depend on the pool size.
  Tensor& fill(float v);
  Tensor& add_(const Tensor& other);              ///< this += other
  Tensor& sub_(const Tensor& other);              ///< this -= other
  Tensor& mul_(const Tensor& other);              ///< Hadamard product
  Tensor& scale_(float s);                        ///< this *= s
  Tensor& axpy_(float alpha, const Tensor& x);    ///< this += alpha * x

  // ---- reductions ------------------------------------------------------------
  [[nodiscard]] float sum() const;
  [[nodiscard]] float mean() const;
  [[nodiscard]] float max() const;
  [[nodiscard]] float min() const;
  /// Squared L2 norm of all elements.
  [[nodiscard]] float squared_norm() const;
  /// Index of the maximum element (first on ties).
  [[nodiscard]] std::size_t argmax() const;

  static std::size_t numel_of(const Shape& shape);

 private:
  void assign_deep(const Tensor& other);
  void take(Tensor&& other) noexcept {
    shape_ = std::move(other.shape_);
    storage_ = std::move(other.storage_);
    offset_ = other.offset_;
    numel_ = other.numel_;
    base_ = other.base_;
    view_ = other.view_;
    other.offset_ = 0;
    other.numel_ = 0;
    other.base_ = nullptr;
    other.view_ = false;
  }

  Shape shape_;
  std::shared_ptr<Storage> storage_;
  std::size_t offset_ = 0;
  std::size_t numel_ = 0;
  float* base_ = nullptr;  // cached storage_->data() + offset_
  bool view_ = false;
};

/// Element count sanity check helper for kernels.
void check_same_shape(const Tensor& a, const Tensor& b, const char* what);

}  // namespace msa::tensor
