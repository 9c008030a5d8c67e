// Finite-difference gradient verification for every layer's backward pass.
//
// Strategy: loss L = sum(forward(x) .* R) for a fixed random projection R,
// so dL/dy = R.  The analytic gradients from backward(R) must match central
// finite differences on parameters and inputs.  FP32 limits precision, so we
// use a relative-error tolerance with an absolute floor.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/conv.hpp"
#include "nn/activations.hpp"
#include "nn/gru.hpp"
#include "nn/lstm.hpp"
#include "nn/layers_basic.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"
#include "nn/models.hpp"
#include "nn/norm.hpp"
#include "nn/residual.hpp"

namespace {

using msa::nn::Layer;
using msa::tensor::Rng;
using msa::tensor::Tensor;

double projected_loss(Layer& layer, const Tensor& x, const Tensor& r,
                      bool training) {
  Tensor y = layer.forward(x, training);
  double acc = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    acc += static_cast<double>(y[i]) * r[i];
  }
  return acc;
}

/// Checks d(sum(y*R))/dθ for a sampled subset of parameter and input
/// coordinates.  Layers must be deterministic across repeated forwards.
void check_gradients(Layer& layer, Tensor x, bool training = true,
                     double tol = 4e-2, int samples_per_tensor = 12) {
  Rng rng(99);
  Tensor y0 = layer.forward(x, training);
  Tensor r = Tensor::randn(y0.shape(), rng);

  layer.zero_grads();
  layer.forward(x, training);
  Tensor gx = layer.backward(r);

  auto check_coord = [&](float* value, float analytic, const char* what,
                         std::size_t idx) {
    const float eps = 1e-2f;
    const float saved = *value;
    *value = saved + eps;
    const double lp = projected_loss(layer, x, r, training);
    *value = saved - eps;
    const double lm = projected_loss(layer, x, r, training);
    *value = saved;
    const double numeric = (lp - lm) / (2.0 * eps);
    const double denom =
        std::max({std::fabs(numeric), std::fabs(static_cast<double>(analytic)),
                  1e-3});
    EXPECT_LT(std::fabs(numeric - analytic) / denom, tol)
        << what << "[" << idx << "]: numeric=" << numeric
        << " analytic=" << analytic;
  };

  // Parameter gradients.
  auto params = layer.params();
  auto grads = layer.grads();
  ASSERT_EQ(params.size(), grads.size());
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& p = *params[pi];
    const Tensor& g = *grads[pi];
    for (int s = 0; s < samples_per_tensor; ++s) {
      const std::size_t idx = rng.uniform_index(p.numel());
      check_coord(&p[idx], g[idx], "param", idx);
    }
  }
  // Input gradients.
  for (int s = 0; s < samples_per_tensor; ++s) {
    const std::size_t idx = rng.uniform_index(x.numel());
    check_coord(&x[idx], gx[idx], "input", idx);
  }
}

TEST(GradCheck, Dense) {
  Rng rng(1);
  msa::nn::Dense layer(7, 5, rng);
  check_gradients(layer, Tensor::randn({4, 7}, rng));
}

TEST(GradCheck, DenseNoBias) {
  Rng rng(2);
  msa::nn::Dense layer(6, 3, rng, /*bias=*/false);
  check_gradients(layer, Tensor::randn({3, 6}, rng));
}

TEST(GradCheck, ReLU) {
  Rng rng(3);
  msa::nn::ReLU layer;
  check_gradients(layer, Tensor::randn({4, 9}, rng));
}

TEST(GradCheck, Conv2DBasic) {
  Rng rng(4);
  msa::nn::Conv2D layer(2, 3, 3, 1, 1, rng);
  check_gradients(layer, Tensor::randn({2, 2, 6, 6}, rng));
}

TEST(GradCheck, Conv2DStridedNoPad) {
  Rng rng(5);
  msa::nn::Conv2D layer(3, 4, 3, 2, 0, rng);
  check_gradients(layer, Tensor::randn({2, 3, 7, 7}, rng));
}

TEST(GradCheck, Conv2D1x1Projection) {
  Rng rng(6);
  msa::nn::Conv2D layer(4, 8, 1, 2, 0, rng, /*bias=*/false);
  check_gradients(layer, Tensor::randn({2, 4, 6, 6}, rng));
}

TEST(GradCheck, Conv1D) {
  Rng rng(7);
  msa::nn::Conv1D layer(3, 4, 3, 1, 1, rng);
  check_gradients(layer, Tensor::randn({2, 3, 8}, rng));
}

TEST(GradCheck, Conv1DStride2) {
  Rng rng(8);
  msa::nn::Conv1D layer(2, 5, 3, 2, 1, rng);
  check_gradients(layer, Tensor::randn({3, 2, 9}, rng));
}

TEST(GradCheck, MaxPool) {
  Rng rng(9);
  msa::nn::MaxPool2D layer(2, 2);
  // Margin between values avoids argmax flips under the fd-epsilon.
  Tensor x = Tensor::randn({2, 2, 6, 6}, rng, 5.0f);
  check_gradients(layer, x);
}

TEST(GradCheck, GlobalAvgPool) {
  Rng rng(10);
  msa::nn::GlobalAvgPool layer;
  check_gradients(layer, Tensor::randn({3, 4, 5, 5}, rng));
}

TEST(GradCheck, BatchNormTraining) {
  Rng rng(11);
  msa::nn::BatchNorm2D layer(3);
  // BatchNorm updates running stats each forward; that does not affect the
  // training-mode output, so the finite-difference loss is still consistent.
  check_gradients(layer, Tensor::randn({4, 3, 5, 5}, rng), /*training=*/true,
                  /*tol=*/6e-2);
}

// Composite blocks contain ReLUs fed by batch-normalised (≈N(0,1))
// pre-activations, so finite differences are dominated by kink-crossing
// noise.  The primitive layers are FD-verified above; here we verify the
// *routing*: a ResidualBlock must match a manually-composed
// conv-bn-relu-conv-bn + shortcut + relu pipeline sharing the same weights,
// in outputs, input gradients, and every parameter gradient.
void check_residual_against_manual(std::size_t in_ch, std::size_t out_ch,
                                   std::size_t stride) {
  Rng rng(12);
  msa::nn::ResidualBlock block(in_ch, out_ch, stride, rng);

  Rng rng2(77);
  msa::nn::Conv2D conv1(in_ch, out_ch, 3, stride, 1, rng2, false);
  msa::nn::BatchNorm2D bn1(out_ch);
  msa::nn::ReLU relu1;
  msa::nn::Conv2D conv2(out_ch, out_ch, 3, 1, 1, rng2, false);
  msa::nn::BatchNorm2D bn2(out_ch);
  msa::nn::Conv2D proj(in_ch, out_ch, 1, stride, 0, rng2, false);
  msa::nn::BatchNorm2D proj_bn(out_ch);
  msa::nn::ReLU relu_out;
  const bool has_proj = stride != 1 || in_ch != out_ch;

  // Copy the block's weights into the manual layers (param order is
  // conv1.w, bn1.gamma, bn1.beta, conv2.w, bn2.gamma, bn2.beta[, proj...]).
  std::vector<Tensor*> manual_params = {conv1.params()[0], bn1.params()[0],
                                        bn1.params()[1],   conv2.params()[0],
                                        bn2.params()[0],   bn2.params()[1]};
  std::vector<Tensor*> manual_grads = {conv1.grads()[0], bn1.grads()[0],
                                       bn1.grads()[1],   conv2.grads()[0],
                                       bn2.grads()[0],   bn2.grads()[1]};
  if (has_proj) {
    manual_params.push_back(proj.params()[0]);
    manual_params.push_back(proj_bn.params()[0]);
    manual_params.push_back(proj_bn.params()[1]);
    manual_grads.push_back(proj.grads()[0]);
    manual_grads.push_back(proj_bn.grads()[0]);
    manual_grads.push_back(proj_bn.grads()[1]);
  }
  auto block_params = block.params();
  auto block_grads = block.grads();
  ASSERT_EQ(block_params.size(), manual_params.size());
  for (std::size_t i = 0; i < block_params.size(); ++i) {
    ASSERT_TRUE(block_params[i]->same_shape(*manual_params[i])) << i;
    *manual_params[i] = *block_params[i];
  }

  Tensor x = Tensor::randn({2, in_ch, 6, 6}, rng);
  Tensor y_block = block.forward(x, true);

  Tensor h = conv1.forward(x, true);
  h = bn1.forward(h, true);
  h = relu1.forward(h, true);
  h = conv2.forward(h, true);
  h = bn2.forward(h, true);
  Tensor shortcut =
      has_proj ? proj_bn.forward(proj.forward(x, true), true) : x;
  h.add_(shortcut);
  Tensor y_manual = relu_out.forward(h, true);

  ASSERT_TRUE(y_block.same_shape(y_manual));
  for (std::size_t i = 0; i < y_block.numel(); ++i) {
    ASSERT_NEAR(y_block[i], y_manual[i], 1e-5f) << "output " << i;
  }

  Tensor r = Tensor::randn(y_block.shape(), rng);
  block.zero_grads();
  Tensor gx_block = block.backward(r);

  conv1.zero_grads();
  bn1.zero_grads();
  conv2.zero_grads();
  bn2.zero_grads();
  proj.zero_grads();
  proj_bn.zero_grads();
  // Re-run forward so caches are fresh for the manual backward.
  Tensor h2 = relu1.forward(bn1.forward(conv1.forward(x, true), true), true);
  h2 = bn2.forward(conv2.forward(h2, true), true);
  Tensor sc = has_proj ? proj_bn.forward(proj.forward(x, true), true) : x;
  h2.add_(sc);
  relu_out.forward(h2, true);
  Tensor gsum = relu_out.backward(r);
  Tensor gmain = conv1.backward(bn1.backward(relu1.backward(
      conv2.backward(bn2.backward(gsum)))));
  Tensor gshort = has_proj ? proj.backward(proj_bn.backward(gsum)) : gsum;
  gmain.add_(gshort);

  for (std::size_t i = 0; i < gx_block.numel(); ++i) {
    ASSERT_NEAR(gx_block[i], gmain[i], 1e-4f) << "input grad " << i;
  }
  for (std::size_t pi = 0; pi < block_grads.size(); ++pi) {
    const Tensor& gb = *block_grads[pi];
    const Tensor& gm = *manual_grads[pi];
    for (std::size_t i = 0; i < gb.numel(); ++i) {
      ASSERT_NEAR(gb[i], gm[i], 1e-3f) << "param " << pi << "[" << i << "]";
    }
  }
}

TEST(GradCheck, ResidualBlockIdentityMatchesManualComposition) {
  check_residual_against_manual(4, 4, 1);
}

TEST(GradCheck, ResidualBlockProjectionMatchesManualComposition) {
  check_residual_against_manual(3, 6, 2);
}

TEST(GradCheck, GRU) {
  Rng rng(14);
  msa::nn::GRU layer(3, 5, rng);
  check_gradients(layer, Tensor::randn({2, 6, 3}, rng), true, 5e-2,
                  /*samples=*/20);
}

TEST(GradCheck, Sigmoid) {
  Rng rng(31);
  msa::nn::Sigmoid layer;
  check_gradients(layer, Tensor::randn({4, 6}, rng));
}

TEST(GradCheck, TanhLayer) {
  Rng rng(32);
  msa::nn::Tanh layer;
  check_gradients(layer, Tensor::randn({4, 6}, rng));
}

TEST(GradCheck, LayerNorm) {
  Rng rng(33);
  msa::nn::LayerNorm layer(7);
  check_gradients(layer, Tensor::randn({5, 7}, rng), true, 5e-2);
}

TEST(GradCheck, LayerNorm3D) {
  Rng rng(34);
  msa::nn::LayerNorm layer(5);
  check_gradients(layer, Tensor::randn({2, 4, 5}, rng), true, 5e-2);
}

TEST(GradCheck, Lstm) {
  Rng rng(35);
  msa::nn::LSTM layer(3, 4, rng);
  check_gradients(layer, Tensor::randn({2, 5, 3}, rng), true, 5e-2,
                  /*samples=*/20);
}

TEST(GradCheck, LstmLongSequence) {
  Rng rng(36);
  msa::nn::LSTM layer(2, 3, rng);
  check_gradients(layer, Tensor::randn({1, 12, 2}, rng), true, 6e-2,
                  /*samples=*/15);
}

TEST(GradCheck, SliceLastTimestep) {
  Rng rng(15);
  msa::nn::SliceLastTimestep layer;
  check_gradients(layer, Tensor::randn({3, 4, 5}, rng));
}

TEST(GradCheck, StackedGruModelEvalMode) {
  // The full ARDS model in eval mode (dropout inactive -> deterministic).
  Rng rng(16);
  auto net = msa::nn::make_ards_gru(4, rng, /*units=*/6, /*dropout=*/0.2);
  check_gradients(*net, Tensor::randn({2, 5, 4}, rng), /*training=*/false,
                  6e-2, 15);
}

TEST(GradCheck, SmallResNetEndToEndTrainingReducesLoss) {
  // End-to-end sanity of the full graph: a few SGD steps on a fixed batch
  // must reduce the cross-entropy loss substantially (this catches any
  // mis-routed gradient that the per-layer checks cannot see).
  Rng rng(17);
  auto net = msa::nn::make_resnet(2, 3, {4, 8}, 1, rng);
  Tensor x = Tensor::randn({6, 2, 8, 8}, rng);
  const std::vector<std::int32_t> labels = {0, 1, 2, 0, 1, 2};
  msa::nn::ParamStore store(*net);
  msa::nn::Sgd opt(0.05, 0.9);
  store.attach_optimizer(opt);
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int step = 0; step < 30; ++step) {
    store.zero_grads();
    Tensor logits = net->forward(x, true);
    auto res = msa::nn::softmax_cross_entropy(logits, labels);
    if (step == 0) first_loss = res.loss;
    last_loss = res.loss;
    net->backward(res.grad);
    store.step(opt);
  }
  EXPECT_LT(last_loss, 0.5f * first_loss);
}

// ---- loss gradients ----------------------------------------------------------

TEST(GradCheck, SoftmaxCrossEntropy) {
  Rng rng(18);
  Tensor logits = Tensor::randn({3, 4}, rng);
  const std::vector<std::int32_t> labels = {1, 3, 0};
  auto res = msa::nn::softmax_cross_entropy(logits, labels);
  for (int s = 0; s < 8; ++s) {
    const std::size_t idx = rng.uniform_index(logits.numel());
    const float eps = 1e-3f;
    const float saved = logits[idx];
    logits[idx] = saved + eps;
    const float lp = msa::nn::softmax_cross_entropy(logits, labels).loss;
    logits[idx] = saved - eps;
    const float lm = msa::nn::softmax_cross_entropy(logits, labels).loss;
    logits[idx] = saved;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(numeric, res.grad[idx], 5e-3);
  }
}

TEST(GradCheck, MseLoss) {
  Rng rng(19);
  Tensor pred = Tensor::randn({4, 2}, rng);
  Tensor target = Tensor::randn({4, 2}, rng);
  auto res = msa::nn::mse_loss(pred, target);
  for (std::size_t idx = 0; idx < pred.numel(); ++idx) {
    const float eps = 1e-3f;
    const float saved = pred[idx];
    pred[idx] = saved + eps;
    const float lp = msa::nn::mse_loss(pred, target).loss;
    pred[idx] = saved - eps;
    const float lm = msa::nn::mse_loss(pred, target).loss;
    pred[idx] = saved;
    EXPECT_NEAR((lp - lm) / (2.0 * eps), res.grad[idx], 5e-3);
  }
}

TEST(GradCheck, MaeLoss) {
  Rng rng(20);
  Tensor pred = Tensor::randn({4, 2}, rng);
  Tensor target = Tensor::randn({4, 2}, rng);
  auto res = msa::nn::mae_loss(pred, target);
  for (std::size_t idx = 0; idx < pred.numel(); ++idx) {
    // MAE gradient is sign(d)/n wherever |d| > fd step.
    const float d = pred[idx] - target[idx];
    if (std::fabs(d) < 1e-2f) continue;
    const float expected =
        (d > 0 ? 1.0f : -1.0f) / static_cast<float>(pred.numel());
    EXPECT_FLOAT_EQ(res.grad[idx], expected);
  }
}

}  // namespace
