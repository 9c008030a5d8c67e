#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "par/pool.hpp"

namespace msa::tensor {

namespace {
// Grain of the elementwise in-place ops, as for the elementwise layers.
constexpr std::size_t kEwGrain = 1 << 14;

// y[i] = op(y[i], x[i]) for every i < n, in chunks on the pool.  Each
// element depends on its own inputs alone, so the bits do not depend on the
// pool size.
template <typename Op>
void zip_inplace(float* y, const float* x, std::size_t n, Op op) {
  par::parallel_for(0, n, kEwGrain, [=](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) y[i] = op(y[i], x[i]);
  });
}
}  // namespace

std::size_t Tensor::numel_of(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}

void Tensor::assign_deep(const Tensor& other) {
  shape_ = other.shape_;
  numel_ = other.numel_;
  offset_ = 0;
  view_ = false;
  storage_ = std::make_shared<Storage>(other.base_, other.base_ + numel_);
  base_ = storage_->data();
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (base_ != nullptr && numel_ == other.numel_) {
    // Same element count: copy through into the existing range.  For views
    // this is the only correct behaviour (the slab aliasing must survive);
    // for owning tensors it just avoids a reallocation.
    shape_ = other.shape_;
    std::copy(other.base_, other.base_ + numel_, base_);
    return *this;
  }
  if (view_) {
    throw std::invalid_argument(
        "Tensor: cannot size-change a view by assignment");
  }
  assign_deep(other);
  return *this;
}

Tensor Tensor::view_of(std::shared_ptr<Storage> storage, std::size_t offset,
                       Shape shape) {
  const std::size_t n = numel_of(shape);
  if (!storage || offset + n > storage->size()) {
    throw std::invalid_argument("Tensor::view_of: range outside storage");
  }
  Tensor t;
  t.shape_ = std::move(shape);
  t.storage_ = std::move(storage);
  t.offset_ = offset;
  t.numel_ = n;
  t.base_ = t.storage_->data() + offset;
  t.view_ = true;
  return t;
}

Tensor Tensor::uninitialized(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = numel_of(t.shape_);
  t.storage_ = std::make_shared<Storage>(t.numel_, Storage::Uninitialized{});
  t.base_ = t.storage_->data();
  return t;
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.flat()) v = static_cast<float>(rng.normal()) * stddev;
  return t;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& v : t.flat()) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::of(std::initializer_list<float> values) {
  return Tensor({values.size()}, std::vector<float>(values));
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

Tensor& Tensor::reshape(Shape shape) {
  if (numel_of(shape) != numel_) {
    throw std::invalid_argument("reshape: element count mismatch");
  }
  shape_ = std::move(shape);
  return *this;
}

Tensor Tensor::reshaped(Shape shape) const {
  Tensor t = *this;
  t.reshape(std::move(shape));
  return t;
}

Tensor& Tensor::fill(float v) {
  std::fill(base_, base_ + numel_, v);
  return *this;
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* what) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch " +
                                a.shape_str() + " vs " + b.shape_str());
  }
}

Tensor& Tensor::add_(const Tensor& other) {
  check_same_shape(*this, other, "add_");
  zip_inplace(base_, other.base_, numel_,
              [](float y, float x) { return y + x; });
  return *this;
}

Tensor& Tensor::sub_(const Tensor& other) {
  check_same_shape(*this, other, "sub_");
  zip_inplace(base_, other.base_, numel_,
              [](float y, float x) { return y - x; });
  return *this;
}

Tensor& Tensor::mul_(const Tensor& other) {
  check_same_shape(*this, other, "mul_");
  zip_inplace(base_, other.base_, numel_,
              [](float y, float x) { return y * x; });
  return *this;
}

Tensor& Tensor::scale_(float s) {
  float* y = base_;
  par::parallel_for(0, numel_, kEwGrain, [=](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) y[i] *= s;
  });
  return *this;
}

Tensor& Tensor::axpy_(float alpha, const Tensor& x) {
  check_same_shape(*this, x, "axpy_");
  zip_inplace(base_, x.base_, numel_,
              [alpha](float y, float xi) { return y + alpha * xi; });
  return *this;
}

float Tensor::sum() const {
  // Pairwise-ish accumulation in double for stability on large tensors.
  double acc = 0.0;
  for (std::size_t i = 0; i < numel_; ++i) acc += base_[i];
  return static_cast<float>(acc);
}

float Tensor::mean() const {
  return numel_ == 0 ? 0.0f : sum() / static_cast<float>(numel_);
}

float Tensor::max() const {
  return *std::max_element(base_, base_ + numel_);
}

float Tensor::min() const {
  return *std::min_element(base_, base_ + numel_);
}

float Tensor::squared_norm() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < numel_; ++i) {
    acc += static_cast<double>(base_[i]) * base_[i];
  }
  return static_cast<float>(acc);
}

std::size_t Tensor::argmax() const {
  return static_cast<std::size_t>(
      std::distance(base_, std::max_element(base_, base_ + numel_)));
}

}  // namespace msa::tensor
