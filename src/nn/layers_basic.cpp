#include "nn/layers_basic.hpp"

#include <cmath>

#include "par/pool.hpp"
#include "tensor/ops.hpp"

namespace msa::nn {

namespace {
// Grain of the elementwise loops, as in activations.cpp.
constexpr std::size_t kEwGrain = 1 << 14;
}  // namespace

std::size_t parameter_count(Layer& layer) {
  std::size_t n = 0;
  for (Tensor* p : layer.params()) n += p->numel();
  return n;
}

// ---- Dense -------------------------------------------------------------------

Dense::Dense(std::size_t in, std::size_t out, Rng& rng, bool bias)
    : in_(in),
      out_(out),
      has_bias_(bias),
      w_(Tensor::randn({in, out}, rng,
                       std::sqrt(2.0f / static_cast<float>(in)))),  // He init
      b_(Tensor::zeros({out})),
      gw_(Tensor::zeros({in, out})),
      gb_(Tensor::zeros({out})) {}

Tensor Dense::forward(const Tensor& x, bool /*training*/) {
  if (x.ndim() != 2 || x.dim(1) != in_) {
    throw std::invalid_argument("Dense: bad input shape " + x.shape_str());
  }
  x_cache_ = x;
  Tensor y = tensor::matmul(x, w_);
  if (has_bias_) {
    for (std::size_t i = 0; i < y.dim(0); ++i) {
      for (std::size_t j = 0; j < out_; ++j) y.at2(i, j) += b_[j];
    }
  }
  flops_ = tensor::gemm_flops(x.dim(0), out_, in_);
  return y;
}

Tensor Dense::backward(const Tensor& grad_out) {
  // gW += x^T g;  gb += colsum(g);  gx = g W^T.
  tensor::gemm(/*trans_a=*/true, /*trans_b=*/false, 1.0f, x_cache_, grad_out,
               1.0f, gw_);
  if (has_bias_) {
    for (std::size_t i = 0; i < grad_out.dim(0); ++i) {
      for (std::size_t j = 0; j < out_; ++j) gb_[j] += grad_out.at2(i, j);
    }
  }
  Tensor gx({grad_out.dim(0), in_});
  tensor::gemm(false, /*trans_b=*/true, 1.0f, grad_out, w_, 0.0f, gx);
  return gx;
}

std::vector<Tensor*> Dense::params() {
  if (has_bias_) return {&w_, &b_};
  return {&w_};
}

std::vector<Tensor*> Dense::grads() {
  if (has_bias_) return {&gw_, &gb_};
  return {&gw_};
}

// ---- ReLU --------------------------------------------------------------------

Tensor ReLU::forward(const Tensor& x, bool /*training*/) {
  shape_ = x.shape();
  mask_.resize(x.numel());
  Tensor y = Tensor::uninitialized(x.shape());
  const float* in = x.data();
  float* out = y.data();
  std::uint8_t* mask = mask_.data();
  par::parallel_for(0, x.numel(), kEwGrain, [=](std::size_t b, std::size_t e) {
    // Byte stores may alias anything: copy the pointers out of the closure
    // so the loop keeps them in registers and vectorises.
    const float* src = in;
    float* dst = out;
    std::uint8_t* pos = mask;
    for (std::size_t i = b; i < e; ++i) {
      const bool keep = src[i] > 0.0f;
      dst[i] = keep ? src[i] : 0.0f;
      pos[i] = keep;
    }
  });
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (grad_out.shape() != shape_) {
    throw std::invalid_argument("ReLU backward: shape mismatch " +
                                grad_out.shape_str());
  }
  Tensor gx = Tensor::uninitialized(grad_out.shape());
  const float* g = grad_out.data();
  const std::uint8_t* mask = mask_.data();
  float* out = gx.data();
  par::parallel_for(0, gx.numel(), kEwGrain, [=](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      out[i] = g[i] * static_cast<float>(mask[i]);
    }
  });
  return gx;
}

// ---- Flatten -----------------------------------------------------------------

Tensor Flatten::forward(const Tensor& x, bool /*training*/) {
  in_shape_ = x.shape();
  const std::size_t batch = x.dim(0);
  return x.reshaped({batch, x.numel() / batch});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(in_shape_);
}

// ---- Dropout -----------------------------------------------------------------

Dropout::Dropout(double p, std::uint64_t seed) : p_(p), rng_(seed) {
  if (p < 0.0 || p >= 1.0) {
    throw std::invalid_argument("Dropout: p must be in [0, 1)");
  }
}

Tensor Dropout::forward(const Tensor& x, bool training) {
  was_training_ = training;
  if (!training || p_ == 0.0) return x;
  mask_ = Tensor(x.shape());
  Tensor y = x;
  const float scale = 1.0f / static_cast<float>(1.0 - p_);
  for (std::size_t i = 0; i < y.numel(); ++i) {
    const bool keep = !rng_.bernoulli(p_);
    mask_[i] = keep ? scale : 0.0f;
    y[i] *= mask_[i];
  }
  return y;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (!was_training_ || p_ == 0.0) return grad_out;
  Tensor g = grad_out;
  g.mul_(mask_);
  return g;
}

}  // namespace msa::nn
