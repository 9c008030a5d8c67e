// Tests for nn::ParamStore: slab relocation, aliasing invariants, optimizer
// steps against a scalar reference, the slab gradient reducer against the
// exact mean, and slab checkpoint round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "comm/runtime.hpp"
#include "dist/distributed.hpp"
#include "nn/layers_basic.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"
#include "nn/serialize.hpp"
#include "simnet/machine.hpp"

namespace {

using msa::comm::Comm;
using msa::comm::Runtime;
using msa::dist::AllreduceOptions;
using msa::nn::ParamStore;
using msa::nn::Sequential;
using msa::nn::Tensor;
using msa::simnet::ComputeProfile;
using msa::simnet::Machine;
using msa::simnet::MachineConfig;
using msa::tensor::Rng;

MachineConfig test_config() {
  MachineConfig cfg;
  cfg.intra_node = {0.3e-6, 100e9, 0.1e-6};
  cfg.intra_module = {1.0e-6, 10e9, 0.3e-6};
  cfg.federation = {2.0e-6, 5e9, 0.5e-6};
  return cfg;
}

/// Model whose parameter tensors have odd sizes (3*7+7 = 28, 7*5+5 = 40, ...)
/// so slab ranges straddle small allreduce bucket boundaries.
std::unique_ptr<Sequential> odd_model(unsigned seed) {
  Rng rng(seed);
  return msa::nn::make_mlp(3, {7, 5}, 2, rng);
}

// ---- relocation & aliasing ---------------------------------------------------

TEST(ParamStore, RelocationPreservesValuesAndAliases) {
  auto model = odd_model(11);
  // Snapshot pre-relocation values in registration order.
  std::vector<float> before;
  for (Tensor* p : model->params()) {
    before.insert(before.end(), p->data(), p->data() + p->numel());
  }

  ParamStore store(*model);
  ASSERT_EQ(store.size(), before.size());

  // Values survived the move and the slab is their concatenation.
  auto slab = store.param_span();
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(slab[i], before[i]) << i;
  }

  // Every layer tensor is now a view into the store's slab, laid out at the
  // recorded ranges, and the cached pointer list matches a fresh walk.
  auto fresh = model->params();
  ASSERT_EQ(fresh.size(), store.params().size());
  std::size_t at = 0;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(fresh[i], store.params()[i]);
    EXPECT_TRUE(fresh[i]->is_view());
    EXPECT_EQ(fresh[i]->storage(), store.param_storage());
    EXPECT_EQ(fresh[i]->storage_offset(), store.ranges()[i].offset);
    EXPECT_EQ(at, store.ranges()[i].offset);
    at += fresh[i]->numel();
  }
  EXPECT_EQ(at, store.size());

  // Writing through the slab is visible in the layer tensor and vice versa.
  slab[0] = 42.0f;
  EXPECT_EQ((*fresh[0])[0], 42.0f);
  (*fresh[0])[1] = -3.0f;
  EXPECT_EQ(slab[1], -3.0f);
}

TEST(ParamStore, ZeroGradsClearsEveryGradient) {
  auto model = odd_model(12);
  ParamStore store(*model);
  for (std::size_t i = 0; i < store.size(); ++i) {
    store.grad_span()[i] = static_cast<float>(i) + 1.0f;
  }
  store.zero_grads();
  for (Tensor* g : model->grads()) {
    for (std::size_t j = 0; j < g->numel(); ++j) ASSERT_EQ((*g)[j], 0.0f);
  }
}

TEST(ParamStore, ForwardBackwardUnchangedByRelocation) {
  // The same model, same input: relocation must not perturb a single bit of
  // forward or backward results.
  auto plain = odd_model(13);
  auto stored = odd_model(13);
  ParamStore store(*stored);

  Rng rng(99);
  Tensor x = Tensor::randn({4, 3}, rng);
  std::vector<std::int32_t> y = {0, 1, 1, 0};

  plain->zero_grads();
  store.zero_grads();
  auto ra = msa::nn::softmax_cross_entropy(plain->forward(x, true), y);
  auto rb = msa::nn::softmax_cross_entropy(stored->forward(x, true), y);
  EXPECT_EQ(ra.loss, rb.loss);
  plain->backward(ra.grad);
  stored->backward(rb.grad);

  auto ga = plain->grads();
  auto gb = stored->grads();
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    for (std::size_t j = 0; j < ga[i]->numel(); ++j) {
      ASSERT_EQ((*ga[i])[j], (*gb[i])[j]) << i << "," << j;
    }
  }
}

// ---- optimizer steps on the slab ----------------------------------------------

/// Model wide enough (17413 parameters) that the update's parallel_for
/// splits the slab into more than one chunk.
std::unique_ptr<Sequential> wide_model(unsigned seed) {
  Rng rng(seed);
  return msa::nn::make_mlp(3, {130, 127}, 2, rng);
}

/// Scalar reference of a rule: updates @p p in place from @p g, with the
/// role-major state @p state, one element at a time.
using ScalarRule = std::function<void(std::vector<float>& p,
                                      const std::vector<float>& g,
                                      std::vector<float>& state)>;

/// Trains a model through store.step(@p opt) for several steps and replays
/// every step's gradient through @p reference on a copy of the parameter
/// slab.  Parameters and optimizer state must agree bit for bit.
void expect_step_matches_scalar_reference(msa::nn::Optimizer& opt,
                                          const ScalarRule& reference) {
  auto model = wide_model(21);
  ParamStore store(*model);
  store.attach_optimizer(opt);
  ASSERT_EQ(store.opt_span().size(), opt.state_roles() * store.size());

  std::vector<float> p(store.param_span().begin(), store.param_span().end());
  std::vector<float> state(opt.state_roles() * store.size(), 0.0f);
  Rng rng(55);
  for (int s = 0; s < 5; ++s) {
    Tensor x = Tensor::randn({4, 3}, rng);
    std::vector<std::int32_t> y = {1, 0, 1, 1};
    store.zero_grads();
    auto res = msa::nn::softmax_cross_entropy(model->forward(x, true), y);
    model->backward(res.grad);
    const std::vector<float> g(store.grad_span().begin(),
                               store.grad_span().end());

    store.step(opt);
    reference(p, g, state);

    for (std::size_t j = 0; j < p.size(); ++j) {
      ASSERT_EQ(store.param_span()[j], p[j]) << "step " << s << " param " << j;
    }
    for (std::size_t j = 0; j < state.size(); ++j) {
      ASSERT_EQ(store.opt_span()[j], state[j]) << "step " << s << " state " << j;
    }
  }
}

/// nn::Sgd's float expressions, written out element by element.
ScalarRule scalar_sgd(double lr, double momentum, double weight_decay,
                      bool nesterov) {
  return [=](std::vector<float>& p, const std::vector<float>& g,
             std::vector<float>& v) {
    const auto lr_f = static_cast<float>(lr);
    const auto mu = static_cast<float>(momentum);
    const auto wd = static_cast<float>(weight_decay);
    for (std::size_t j = 0; j < p.size(); ++j) {
      const float grad = g[j] + wd * p[j];
      v[j] = mu * v[j] + grad;
      const float update = nesterov ? grad + mu * v[j] : v[j];
      p[j] -= lr_f * update;
    }
  };
}

/// nn::Adam's float expressions, written out element by element; the state
/// is [all m | all v] and the step counter lives in the closure.
ScalarRule scalar_adam(double lr, double beta1, double beta2, double eps,
                       double weight_decay) {
  return [=, t = 0L](std::vector<float>& p, const std::vector<float>& g,
                     std::vector<float>& state) mutable {
    ++t;
    const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
    const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
    const auto lr_t = static_cast<float>(lr * std::sqrt(bc2) / bc1);
    const auto b1 = static_cast<float>(beta1);
    const auto b2 = static_cast<float>(beta2);
    const auto wd = static_cast<float>(weight_decay);
    const auto eps_f = static_cast<float>(eps);
    float* m = state.data();
    float* v = state.data() + p.size();
    for (std::size_t j = 0; j < p.size(); ++j) {
      const float grad = g[j] + wd * p[j];
      m[j] = b1 * m[j] + (1.0f - b1) * grad;
      v[j] = b2 * v[j] + (1.0f - b2) * grad * grad;
      p[j] -= lr_t * m[j] / (std::sqrt(v[j]) + eps_f);
    }
  };
}

TEST(ParamStore, SgdStepMatchesScalarReference) {
  msa::nn::Sgd opt(0.1, 0.9, 1e-3, false);
  expect_step_matches_scalar_reference(opt, scalar_sgd(0.1, 0.9, 1e-3, false));
}

TEST(ParamStore, NesterovSgdStepMatchesScalarReference) {
  msa::nn::Sgd opt(0.1, 0.9, 1e-3, true);
  expect_step_matches_scalar_reference(opt, scalar_sgd(0.1, 0.9, 1e-3, true));
}

TEST(ParamStore, AdamStepMatchesScalarReference) {
  msa::nn::Adam opt(1e-2, 0.9, 0.999, 1e-8, 1e-3);
  expect_step_matches_scalar_reference(
      opt, scalar_adam(1e-2, 0.9, 0.999, 1e-8, 1e-3));
}

TEST(ParamStore, StepRejectsUnattachedOptimizer) {
  auto model = odd_model(23);
  ParamStore store(*model);
  for (float& g : store.grad_span()) g = 1.0f;
  const std::vector<float> before(store.param_span().begin(),
                                  store.param_span().end());
  msa::nn::Sgd never_attached(0.1, 0.9);
  EXPECT_THROW(store.step(never_attached), std::logic_error);

  // Attaching another optimizer does not make this one steppable.
  msa::nn::Sgd attached(0.1, 0.9);
  store.attach_optimizer(attached);
  EXPECT_THROW(store.step(never_attached), std::logic_error);
  EXPECT_TRUE(std::equal(before.begin(), before.end(),
                         store.param_span().begin()));
}

TEST(ParamStore, AdamStateSlabIsPositional) {
  // Adam's opt slab is [all m | all v]: element j of each half corresponds
  // to element j of the parameter slab.
  auto model = odd_model(22);
  ParamStore store(*model);
  msa::nn::Adam opt(1e-2);
  store.attach_optimizer(opt);
  ASSERT_EQ(store.opt_span().size(), 2 * store.size());

  for (std::size_t i = 0; i < store.size(); ++i) {
    store.grad_span()[i] = 1.0f;  // uniform gradient
  }
  store.step(opt);
  // Uniform gradient -> uniform m and v across the whole slab.
  auto s = store.opt_span();
  for (std::size_t i = 0; i < store.size(); ++i) {
    ASSERT_EQ(s[i], s[0]) << "m at " << i;
    ASSERT_EQ(s[store.size() + i], s[store.size()]) << "v at " << i;
  }
}

// ---- Sequential::release_layer (regression) ----------------------------------

TEST(Sequential, ReleaseLayerErasesSlot) {
  Rng rng(31);
  auto model = std::make_unique<Sequential>();
  model->emplace<msa::nn::Dense>(4, 8, rng);
  model->emplace<msa::nn::ReLU>();
  model->emplace<msa::nn::Dense>(8, 2, rng);
  ASSERT_EQ(model->size(), 3u);

  auto taken = model->release_layer(0);
  ASSERT_NE(taken, nullptr);
  // The slot is erased, not left null: size shrinks and the remaining
  // layers shift down.
  ASSERT_EQ(model->size(), 2u);

  // params()/grads()/forward on the donor must not dereference a null slot.
  auto ps = model->params();
  for (Tensor* p : ps) ASSERT_NE(p, nullptr);
  Tensor h = Tensor::randn({2, 8}, rng);
  Tensor out = model->forward(h, false);
  EXPECT_EQ(out.dim(1), 2u);

  // And a ParamStore over the post-release donor walks only live layers.
  ParamStore store(*model);
  EXPECT_EQ(store.params().size(), ps.size());
}

// ---- slab gradient reducer vs the exact mean --------------------------------

/// Small integer gradient of slab element @p j on rank @p rank: every partial
/// sum is exact in fp32 and fp16, and so is the mean over 4 ranks.
float integer_grad(int rank, std::size_t j) {
  return static_cast<float>(
             (j * 7 + static_cast<std::size_t>(rank) * 3) % 17) -
         8.0f;
}

void expect_reducer_matches_exact_mean(bool fp16) {
  constexpr int P = 4;
  for (const bool overlap : {false, true}) {
    Runtime rt(Machine::homogeneous(P, 1, test_config(), ComputeProfile{}));
    rt.run([&](Comm& comm) {
      auto model = odd_model(41);
      ParamStore store(*model);
      const std::span<float> g = store.grad_span();
      for (std::size_t j = 0; j < g.size(); ++j) {
        g[j] = integer_grad(comm.rank(), j);
      }

      AllreduceOptions opts;
      // 13 floats per bucket: every parameter tensor of the odd-sized MLP
      // (28, 7, 40, ...) straddles at least one bucket boundary.
      opts.bucket_bytes = 13 * sizeof(float);
      opts.fp16_compression = fp16;
      opts.overlap = overlap;
      msa::dist::OverlappedReducer reducer(comm, store, opts);
      reducer.begin_step();
      reducer.finish();

      for (std::size_t j = 0; j < g.size(); ++j) {
        float sum = 0.0f;
        for (int r = 0; r < P; ++r) sum += integer_grad(r, j);
        ASSERT_EQ(g[j], sum / P)
            << "elem " << j << " fp16=" << fp16 << " overlap=" << overlap;
      }
    });
  }
}

TEST(DistSlab, ReducerMatchesExactMeanFp32) {
  expect_reducer_matches_exact_mean(false);
}

TEST(DistSlab, ReducerMatchesExactMeanFp16) {
  expect_reducer_matches_exact_mean(true);
}

TEST(DistSlab, BroadcastSlabMakesReplicasIdentical) {
  Runtime rt(Machine::homogeneous(4, 2, test_config(), ComputeProfile{}));
  rt.run([](Comm& comm) {
    auto model = odd_model(50u + static_cast<unsigned>(comm.rank()));
    ParamStore store(*model);
    msa::dist::broadcast_parameters(comm, store);
    float sum = 0.0f;
    for (Tensor* p : model->params()) sum += p->sum();
    auto all = comm.allgather(std::span<const float>(&sum, 1));
    for (float v : all) EXPECT_EQ(v, all[0]);
  });
}

// ---- slab checkpoint round-trip ----------------------------------------------

class ParamStoreCkptTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::filesystem::remove(prefix_ + ".params.bin");
    std::filesystem::remove(prefix_ + ".optstate.bin");
  }
  std::string prefix_ = "/tmp/msalib_param_store_ckpt";
};

/// Trains @p steps steps through the store, checkpoints, restores into a
/// freshly-initialised model/optimizer pair, and asserts that parameters,
/// optimizer tensor state, and scalar state are all bit-exact.
template <typename Opt, typename... Args>
void roundtrip_checkpoint(const std::string& prefix, Args... args) {
  auto model = odd_model(61);
  ParamStore store(*model);
  Opt opt(args...);
  store.attach_optimizer(opt);

  Rng rng(62);
  for (int s = 0; s < 3; ++s) {
    Tensor x = Tensor::randn({4, 3}, rng);
    std::vector<std::int32_t> y = {0, 1, 0, 1};
    store.zero_grads();
    auto res = msa::nn::softmax_cross_entropy(model->forward(x, true), y);
    model->backward(res.grad);
    store.step(opt);
  }
  const auto ckpt = msa::nn::save_checkpoint(prefix, store, opt);

  // Different init — every byte must come from the restore.
  auto resumed = odd_model(999);
  ParamStore rstore(*resumed);
  Opt ropt(args...);
  rstore.attach_optimizer(ropt);
  msa::nn::load_checkpoint(ckpt, rstore, ropt);

  // Weights bit-exact.
  ASSERT_EQ(rstore.size(), store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    ASSERT_EQ(rstore.param_span()[i], store.param_span()[i]) << i;
  }
  // Optimizer tensor state bit-exact.
  ASSERT_EQ(rstore.opt_span().size(), store.opt_span().size());
  for (std::size_t i = 0; i < store.opt_span().size(); ++i) {
    ASSERT_EQ(rstore.opt_span()[i], store.opt_span()[i]) << i;
  }
  // Scalar state (e.g. Adam's step counter) bit-exact.
  EXPECT_EQ(ropt.scalar_state(), opt.scalar_state());

  // And the two continue identically.
  Tensor x = Tensor::randn({4, 3}, rng);
  std::vector<std::int32_t> y = {1, 1, 0, 0};
  store.zero_grads();
  auto ra = msa::nn::softmax_cross_entropy(model->forward(x, true), y);
  model->backward(ra.grad);
  store.step(opt);
  rstore.zero_grads();
  auto rb = msa::nn::softmax_cross_entropy(resumed->forward(x, true), y);
  resumed->backward(rb.grad);
  rstore.step(ropt);
  for (std::size_t i = 0; i < store.size(); ++i) {
    ASSERT_EQ(rstore.param_span()[i], store.param_span()[i]) << i;
  }
}

TEST_F(ParamStoreCkptTest, AdamRoundTripBitExact) {
  roundtrip_checkpoint<msa::nn::Adam>(prefix_, 1e-2);
}

TEST_F(ParamStoreCkptTest, MomentumSgdRoundTripBitExact) {
  roundtrip_checkpoint<msa::nn::Sgd>(prefix_, 0.1, 0.9);
}

TEST_F(ParamStoreCkptTest, LoadRejectsSizeMismatch) {
  auto model = odd_model(71);
  ParamStore store(*model);
  msa::nn::save_parameters(prefix_ + ".params.bin", store);

  Rng rng(72);
  auto other = msa::nn::make_mlp(3, {9, 5}, 2, rng);  // different layout
  ParamStore other_store(*other);
  EXPECT_THROW(
      msa::nn::load_parameters(prefix_ + ".params.bin", other_store),
      std::runtime_error);
}

TEST_F(ParamStoreCkptTest, CheckpointRequiresAttachedOptimizer) {
  auto model = odd_model(73);
  ParamStore store(*model);
  msa::nn::Adam opt(1e-2);  // never attached
  EXPECT_THROW((void)msa::nn::save_checkpoint(prefix_, store, opt),
               std::runtime_error);
}

}  // namespace
