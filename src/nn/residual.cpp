#include "nn/residual.hpp"

namespace msa::nn {

NormFactory default_norm_factory() {
  return [](std::size_t channels) -> std::unique_ptr<Layer> {
    return std::make_unique<BatchNorm2D>(channels);
  };
}

ResidualBlock::ResidualBlock(std::size_t in_ch, std::size_t out_ch,
                             std::size_t stride, Rng& rng)
    : ResidualBlock(in_ch, out_ch, stride, rng, default_norm_factory()) {}

ResidualBlock::ResidualBlock(std::size_t in_ch, std::size_t out_ch,
                             std::size_t stride, Rng& rng,
                             const NormFactory& norm) {
  main_.emplace<Conv2D>(in_ch, out_ch, 3, stride, 1, rng, /*bias=*/false);
  main_.add(norm(out_ch));
  main_.emplace<ReLU>();
  main_.emplace<Conv2D>(out_ch, out_ch, 3, 1, 1, rng, /*bias=*/false);
  main_.add(norm(out_ch));
  if (stride != 1 || in_ch != out_ch) {
    proj_ = std::make_unique<Conv2D>(in_ch, out_ch, 1, stride, 0, rng,
                                     /*bias=*/false);
    proj_bn_ = norm(out_ch);
  }
}

Tensor ResidualBlock::forward(const Tensor& x, bool training) {
  Tensor sum = main_.forward(x, training);
  if (proj_) {
    sum.add_(proj_bn_->forward(proj_->forward(x, training), training));
  } else {
    sum.add_(x);
  }
  return out_relu_.forward(sum, training);
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  Tensor g_sum = out_relu_.backward(grad_out);
  Tensor gx = main_.backward(g_sum);
  if (proj_) {
    Tensor g_short = proj_->backward(proj_bn_->backward(g_sum));
    gx.add_(g_short);
  } else {
    gx.add_(g_sum);
  }
  return gx;
}

std::vector<Tensor*> ResidualBlock::params() {
  auto out = main_.params();
  if (proj_) {
    for (Tensor* p : proj_->params()) out.push_back(p);
    for (Tensor* p : proj_bn_->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> ResidualBlock::grads() {
  auto out = main_.grads();
  if (proj_) {
    for (Tensor* g : proj_->grads()) out.push_back(g);
    for (Tensor* g : proj_bn_->grads()) out.push_back(g);
  }
  return out;
}

double ResidualBlock::forward_flops() const {
  double f = main_.forward_flops();
  if (proj_) f += proj_->forward_flops();
  return f;
}

}  // namespace msa::nn
