// Dense, ReLU, Flatten and Dropout layers.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"

namespace msa::nn {

/// Fully-connected layer: y = x W + b, x is (B, in), W is (in, out).
class Dense : public Layer {
 public:
  Dense(std::size_t in, std::size_t out, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  [[nodiscard]] std::string name() const override { return "Dense"; }
  [[nodiscard]] double forward_flops() const override { return flops_; }

  [[nodiscard]] const Tensor& weight() const { return w_; }
  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }

 private:
  std::size_t in_, out_;
  bool has_bias_;
  Tensor w_, b_, gw_, gb_;
  Tensor x_cache_;
  double flops_ = 0.0;
};

/// Element-wise max(x, 0): y = x where x > 0, else +0 (so -0 and NaN give
/// +0).  The forward is one select pass on the pool that writes y and a
/// one-byte 0/1 mask; the mask buffer is reused while the input size stays
/// the same.  The backward multiplies, gx = g * float(mask), rather than
/// selecting: that is what gives -0 for a negative g at a masked element
/// and NaN for g = +-inf there, and those bits are part of the layer's
/// contract.
class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  Shape shape_;
  std::vector<std::uint8_t> mask_;  // 1 where x > 0
};

/// Collapse all non-batch dimensions: (B, ...) -> (B, prod(...)).
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "Flatten"; }

 private:
  Shape in_shape_;
};

/// Inverted dropout with per-layer RNG (deterministic given the seed).
class Dropout : public Layer {
 public:
  explicit Dropout(double p, std::uint64_t seed = 1234);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "Dropout"; }

 private:
  double p_;
  Rng rng_;
  Tensor mask_;
  bool was_training_ = false;
};

}  // namespace msa::nn
