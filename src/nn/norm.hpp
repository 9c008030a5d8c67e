// Batch normalisation (2-D feature maps).
#pragma once

#include "nn/layer.hpp"

namespace msa::nn {

/// BatchNorm over (B, H, W) per channel, NCHW input.  Tracks running
/// statistics for inference, standard full backward through the batch
/// statistics.
///
/// Each chunk on the pool takes a group of consecutive channels, 4 in the
/// forward and 2 in the backward (the channels left over form a smaller
/// last group), and runs their double sums (mean and variance; sum(g) and
/// sum(g * xhat)) interleaved: element i of every channel in the group
/// before element i + 1.  Each channel still adds its own values in
/// (sample, pixel) order into its own accumulator, so every sum, and every
/// output bit, is what one channel at a time gives; the interleave only
/// lets the chains of dependent adds overlap.  The xhat cache is reused
/// while the input shape stays the same.
class BatchNorm2D : public Layer {
 public:
  explicit BatchNorm2D(std::size_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> grads() override { return {&ggamma_, &gbeta_}; }
  [[nodiscard]] std::string name() const override { return "BatchNorm2D"; }

  [[nodiscard]] const Tensor& running_mean() const { return running_mean_; }
  [[nodiscard]] const Tensor& running_var() const { return running_var_; }

 private:
  std::size_t channels_;
  float momentum_, eps_;
  Tensor gamma_, beta_, ggamma_, gbeta_;
  Tensor running_mean_, running_var_;
  // caches for backward
  Tensor xhat_;
  std::vector<float> inv_std_;
  Shape in_shape_;
};

}  // namespace msa::nn
