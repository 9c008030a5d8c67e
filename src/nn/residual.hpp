// Residual block (He et al. [17], the building block of the paper's
// RESNET-50 case study).
#pragma once

#include <functional>

#include "nn/conv.hpp"
#include "nn/layer.hpp"
#include "nn/layers_basic.hpp"
#include "nn/norm.hpp"

namespace msa::nn {

/// Factory producing the normalisation layer for a given channel count.
/// Defaults to plain BatchNorm2D; distributed code injects SyncBatchNorm2D
/// here to compute statistics over the global batch.
using NormFactory = std::function<std::unique_ptr<Layer>(std::size_t)>;

/// The default: per-process BatchNorm2D.
[[nodiscard]] NormFactory default_norm_factory();

/// Basic residual block: conv-bn-relu-conv-bn + identity (or 1x1 projection
/// when shape changes), followed by ReLU.
class ResidualBlock : public Layer {
 public:
  /// @p stride > 1 downsamples and triggers a projection shortcut, as does
  /// in_ch != out_ch.
  ResidualBlock(std::size_t in_ch, std::size_t out_ch, std::size_t stride,
                Rng& rng);
  ResidualBlock(std::size_t in_ch, std::size_t out_ch, std::size_t stride,
                Rng& rng, const NormFactory& norm);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  [[nodiscard]] std::string name() const override { return "ResidualBlock"; }
  [[nodiscard]] double forward_flops() const override;

 private:
  Sequential main_;
  std::unique_ptr<Conv2D> proj_;   // nullptr for identity shortcut
  std::unique_ptr<Layer> proj_bn_; // norm on the projection path
  ReLU out_relu_;
};

}  // namespace msa::nn
