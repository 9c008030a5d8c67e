// Edge-case and error-path coverage across modules.
#include <gtest/gtest.h>

#include <vector>

#include "comm/runtime.hpp"
#include "core/machine_builder.hpp"
#include "core/module.hpp"
#include "data/synthetic.hpp"
#include "nn/conv.hpp"
#include "nn/layers_basic.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"

namespace {

using msa::comm::Comm;
using msa::comm::Runtime;
using msa::simnet::ComputeProfile;
using msa::simnet::Machine;
using msa::simnet::MachineConfig;
using msa::tensor::Rng;
using msa::tensor::Tensor;

// ---- tensor ------------------------------------------------------------------

TEST(TensorEdge, ShapeMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({3, 2});
  EXPECT_THROW(a.add_(b), std::invalid_argument);
  EXPECT_THROW(a.mul_(b), std::invalid_argument);
  EXPECT_THROW(a.axpy_(1.0f, b), std::invalid_argument);
}

TEST(TensorEdge, ReshapeValidation) {
  Tensor a({2, 6});
  EXPECT_NO_THROW(a.reshape({3, 4}));
  EXPECT_NO_THROW(a.reshape({12}));
  EXPECT_THROW(a.reshape({5, 2}), std::invalid_argument);
}

TEST(TensorEdge, ConstructorValidatesData) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), std::invalid_argument);
  EXPECT_NO_THROW(Tensor({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f}));
}

TEST(TensorEdge, EmptyShapeHasZeroElements) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0u);
  EXPECT_EQ(t.ndim(), 0u);
}

TEST(TensorEdge, GemmDimensionChecks) {
  Tensor a({2, 3}), b({4, 5}), c({2, 5});
  EXPECT_THROW(msa::tensor::gemm(false, false, 1.0f, a, b, 0.0f, c),
               std::invalid_argument);
  Tensor b2({3, 5});
  EXPECT_NO_THROW(msa::tensor::gemm(false, false, 1.0f, a, b2, 0.0f, c));
  Tensor c_bad({3, 5});
  EXPECT_THROW(msa::tensor::gemm(false, false, 1.0f, a, b2, 0.0f, c_bad),
               std::invalid_argument);
}

TEST(TensorEdge, ArgmaxFirstOnTies) {
  Tensor t = Tensor::of({1.0f, 5.0f, 5.0f, 2.0f});
  EXPECT_EQ(t.argmax(), 1u);
}

// ---- rng ---------------------------------------------------------------------

TEST(RngEdge, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngEdge, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
    EXPECT_LT(rng.uniform_index(17), 17u);
  }
}

TEST(RngEdge, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

// ---- layers ------------------------------------------------------------------

TEST(LayerEdge, DenseRejectsWrongWidth) {
  Rng rng(1);
  msa::nn::Dense d(4, 2, rng);
  Tensor bad({3, 5});
  EXPECT_THROW(d.forward(bad, true), std::invalid_argument);
}

TEST(LayerEdge, ConvOutSizeRejectsBadGeometry) {
  using msa::tensor::conv_out_size;
  EXPECT_EQ(conv_out_size(4, 5, 1, 1), 2u);  // kernel == in + 2 * pad fits
  EXPECT_THROW((void)conv_out_size(4, 0, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)conv_out_size(4, 5, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)conv_out_size(4, 5, 2, 0), std::invalid_argument);
  EXPECT_THROW((void)conv_out_size(1, 4, 1, 1), std::invalid_argument);
}

// Kept apart: before the check, a stride of 0 divided by zero.
TEST(LayerEdge, ConvOutSizeRejectsZeroStride) {
  EXPECT_THROW((void)msa::tensor::conv_out_size(4, 2, 0, 0),
               std::invalid_argument);
}

TEST(LayerEdge, ConvAndPoolRejectZeroKernelOrStride) {
  Rng rng(5);
  EXPECT_THROW(msa::nn::Conv2D(1, 1, 0, 1, 0, rng), std::invalid_argument);
  EXPECT_THROW(msa::nn::Conv2D(1, 1, 3, 0, 1, rng), std::invalid_argument);
  EXPECT_THROW(msa::nn::Conv1D(1, 1, 0, 1, 0, rng), std::invalid_argument);
  EXPECT_THROW(msa::nn::Conv1D(1, 1, 3, 0, 1, rng), std::invalid_argument);
  EXPECT_THROW(msa::nn::MaxPool2D(0, 2), std::invalid_argument);
  EXPECT_THROW(msa::nn::MaxPool2D(2, 0), std::invalid_argument);
}

TEST(LayerEdge, ConvRejectsKernelWiderThanPaddedInput) {
  Rng rng(6);
  const Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
  msa::nn::Conv2D conv(1, 1, 5, 1, 0, rng);
  EXPECT_THROW((void)conv.forward(x, false), std::invalid_argument);
  msa::nn::Conv2D padded(1, 1, 5, 1, 1, rng);
  EXPECT_EQ(padded.forward(x, false).shape(), (msa::tensor::Shape{1, 1, 2, 2}));
  msa::nn::MaxPool2D pool(5, 1);
  EXPECT_THROW((void)pool.forward(x, false), std::invalid_argument);
}

TEST(LayerEdge, DropoutValidatesProbability) {
  EXPECT_THROW(msa::nn::Dropout(-0.1), std::invalid_argument);
  EXPECT_THROW(msa::nn::Dropout(1.0), std::invalid_argument);
  EXPECT_NO_THROW(msa::nn::Dropout(0.0));
}

TEST(LayerEdge, DropoutIdentityInEval) {
  msa::nn::Dropout d(0.5);
  Rng rng(2);
  Tensor x = Tensor::randn({4, 8}, rng);
  Tensor y = d.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(LayerEdge, DropoutPreservesScaleInTraining) {
  msa::nn::Dropout d(0.3);
  Rng rng(3);
  Tensor x = Tensor::full({100, 100}, 1.0f);
  Tensor y = d.forward(x, true);
  // Inverted dropout keeps the expectation: mean stays ~1.
  EXPECT_NEAR(y.mean(), 1.0f, 0.02f);
}

TEST(LayerEdge, ZeroGradsClearsAccumulation) {
  Rng rng(4);
  msa::nn::Dense d(3, 2, rng);
  Tensor x = Tensor::randn({2, 3}, rng);
  d.forward(x, true);
  Tensor g = Tensor::ones({2, 2});
  d.backward(g);
  const float before = d.grads()[0]->squared_norm();
  EXPECT_GT(before, 0.0f);
  d.zero_grads();
  EXPECT_EQ(d.grads()[0]->squared_norm(), 0.0f);
}

TEST(LayerEdge, GradientsAccumulateAcrossBackwards) {
  Rng rng(5);
  msa::nn::Dense d(3, 2, rng);
  Tensor x = Tensor::randn({2, 3}, rng);
  Tensor g = Tensor::ones({2, 2});
  d.zero_grads();
  d.forward(x, true);
  d.backward(g);
  const Tensor once = *d.grads()[0];
  d.forward(x, true);
  d.backward(g);
  for (std::size_t i = 0; i < once.numel(); ++i) {
    EXPECT_NEAR((*d.grads()[0])[i], 2.0f * once[i], 1e-5f);
  }
}

// ---- optimizers ----------------------------------------------------------------

TEST(OptimizerEdge, RejectsMismatchedSpans) {
  std::vector<float> p(4, 1.0f), g(4, 0.5f), short_g(3, 0.5f);
  std::vector<float> one_role(4), two_roles(8), three_roles(12);
  msa::nn::Adam adam(1e-3);
  msa::nn::Sgd sgd(0.1, 0.9);
  // Grads shorter than params.
  EXPECT_THROW(adam.step(p, short_g, two_roles), std::invalid_argument);
  EXPECT_THROW(sgd.step(p, short_g, one_role), std::invalid_argument);
  // State that is not state_roles() x params.
  EXPECT_THROW(adam.step(p, g, one_role), std::invalid_argument);
  EXPECT_THROW(adam.step(p, g, three_roles), std::invalid_argument);
  EXPECT_THROW(sgd.step(p, g, two_roles), std::invalid_argument);
  // A rejected step touches nothing, not even Adam's step counter.
  EXPECT_EQ(p, std::vector<float>(4, 1.0f));
  EXPECT_EQ(adam.scalar_state(), std::vector<double>{0.0});
  adam.step(p, g, two_roles);
  EXPECT_EQ(adam.scalar_state(), std::vector<double>{1.0});
}

TEST(OptimizerEdge, WeightDecayShrinksWeights) {
  Tensor p = Tensor::full({4}, 1.0f);
  Tensor g = Tensor::zeros({4});
  std::vector<float> velocity(4);
  msa::nn::Sgd opt(0.1, 0.0, /*weight_decay=*/0.5);
  opt.step(p.flat(), g.flat(), velocity);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(p[i], 0.95f, 1e-6f);
}

TEST(OptimizerEdge, NesterovDiffersFromPlainMomentum) {
  Tensor p1 = Tensor::full({3}, 1.0f), p2 = p1;
  Tensor g = Tensor::full({3}, 0.1f);
  std::vector<float> v1(3), v2(3);
  msa::nn::Sgd plain(0.1, 0.9, 0.0, false);
  msa::nn::Sgd nesterov(0.1, 0.9, 0.0, true);
  for (int i = 0; i < 3; ++i) {
    plain.step(p1.flat(), g.flat(), v1);
    nesterov.step(p2.flat(), g.flat(), v2);
  }
  EXPECT_NE(p1[0], p2[0]);
  EXPECT_LT(p2[0], p1[0]);  // Nesterov looks ahead, moves further downhill
}

// ---- comm runtime reuse ----------------------------------------------------------

TEST(RuntimeEdge, MultipleRunsResetClocks) {
  MachineConfig cfg;
  Runtime rt(Machine::homogeneous(2, 1, cfg, ComputeProfile{}));
  rt.run([](Comm& comm) { comm.charge_seconds(1.0); });
  EXPECT_NEAR(rt.max_sim_time(), 1.0, 1e-12);
  rt.run([](Comm& comm) { comm.charge_seconds(0.25); });
  EXPECT_NEAR(rt.max_sim_time(), 0.25, 1e-12);  // reset, not accumulated
}

TEST(RuntimeEdge, SendToInvalidRankThrows) {
  MachineConfig cfg;
  Runtime rt(Machine::homogeneous(2, 1, cfg, ComputeProfile{}));
  // Both ranks hit the same bug; the runtime aggregates every rank's error
  // rather than reporting an arbitrary first one.
  try {
    rt.run([](Comm& comm) {
      const int v = 1;
      comm.send(std::span<const int>(&v, 1), 5, 0);
    });
    FAIL() << "expected AggregateRankError";
  } catch (const msa::comm::AggregateRankError& e) {
    EXPECT_EQ(e.rank_errors().size(), 2u);
    EXPECT_NE(std::string(e.what()).find("send: bad dest"), std::string::npos);
  }
}

TEST(RuntimeEdge, RecvSizeMismatchThrows) {
  MachineConfig cfg;
  Runtime rt(Machine::homogeneous(2, 1, cfg, ComputeProfile{}));
  // Rank 0 sends (non-blocking) and returns; rank 1's mismatched recv
  // throws, which must surface from run() after both threads finish.
  EXPECT_THROW(rt.run([](Comm& comm) {
                 if (comm.rank() == 0) {
                   const std::array<int, 3> v = {1, 2, 3};
                   comm.send(std::span<const int>(v), 1, 0);
                 } else {
                   std::array<int, 2> v{};  // wrong size
                   comm.recv(std::span<int>(v), 0, 0);
                 }
               }),
               std::runtime_error);
}

// ---- machine builder / datasets ----------------------------------------------------

TEST(BuilderEdge, RejectsEmptyAllocations) {
  const auto deep = msa::core::make_deep_est();
  EXPECT_THROW(msa::core::build_machine(deep, {}), std::invalid_argument);
}

TEST(DatasetEdge, BatchOfEmptyIndexList) {
  msa::data::MultispectralConfig cfg;
  cfg.samples = 4;
  cfg.patch = 4;
  auto ds = msa::data::make_multispectral(cfg);
  auto [x, y] = ds.batch({});
  EXPECT_EQ(x.dim(0), 0u);
  EXPECT_TRUE(y.empty());
}

TEST(DatasetEdge, IcuRequiresTwoFeatures) {
  msa::data::IcuConfig cfg;
  cfg.features = 1;
  EXPECT_THROW(msa::data::make_icu_timeseries(cfg), std::invalid_argument);
}

}  // namespace
