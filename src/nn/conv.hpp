// Convolution and pooling layers (NCHW layout).
#pragma once

#include "nn/layer.hpp"

namespace msa::nn {

/// 2-D convolution via im2col + GEMM.  Input (B, C, H, W).  The batch
/// splits into at most 8 chunks, a fixed function of B; each chunk runs in
/// groups of consecutive samples whose columns share one matrix, with one
/// GEMM per group for the forward and one for the input gradient.  The
/// weight gradient takes one GEMM per sample into its chunk's partial, and
/// the partials are summed in chunk order, so every output is bit-identical
/// for any MSA_THREADS and any grouping.
class Conv2D : public Layer {
 public:
  Conv2D(std::size_t in_ch, std::size_t out_ch, std::size_t kernel,
         std::size_t stride, std::size_t pad, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  [[nodiscard]] std::string name() const override { return "Conv2D"; }
  [[nodiscard]] double forward_flops() const override { return flops_; }

 private:
  std::size_t in_ch_, out_ch_, kernel_, stride_, pad_;
  bool has_bias_;
  Tensor w_;   // (out_ch, in_ch*k*k)
  Tensor b_;   // (out_ch)
  Tensor gw_, gb_;
  Tensor x_cache_;
  double flops_ = 0.0;
};

/// 1-D convolution for sequence models.  Input (B, C, T).
class Conv1D : public Layer {
 public:
  Conv1D(std::size_t in_ch, std::size_t out_ch, std::size_t kernel,
         std::size_t stride, std::size_t pad, Rng& rng);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&gw_, &gb_}; }
  [[nodiscard]] std::string name() const override { return "Conv1D"; }
  [[nodiscard]] double forward_flops() const override { return flops_; }

 private:
  std::size_t in_ch_, out_ch_, kernel_, stride_, pad_;
  Tensor w_;  // (out_ch, in_ch, k)
  Tensor b_;
  Tensor gw_, gb_;
  Tensor x_cache_;
  double flops_ = 0.0;
};

/// Max pooling.  Input (B, C, H, W).
class MaxPool2D : public Layer {
 public:
  MaxPool2D(std::size_t kernel, std::size_t stride);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "MaxPool2D"; }

 private:
  std::size_t kernel_, stride_;
  Shape in_shape_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
};

/// Global average pooling: (B, C, H, W) -> (B, C).
class GlobalAvgPool : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }

 private:
  Shape in_shape_;
};

}  // namespace msa::nn
