// Tests for Horovod-style data parallelism.
//
// The central invariant: P-way data-parallel SGD with gradient averaging on
// disjoint microbatches is mathematically identical to serial SGD on the
// concatenated global batch.  We verify it end-to-end through the comm
// runtime, plus fp16 compression, bucketing, sharding and broadcast.  The
// reduction tests drive the gradient reducer directly over a ParamStore.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "comm/runtime.hpp"
#include "dist/compression.hpp"
#include "dist/distributed.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"

namespace {

using msa::comm::Comm;
using msa::comm::Runtime;
using msa::dist::AllreduceOptions;
using msa::dist::broadcast_parameters;
using msa::dist::DistributedTrainer;
using msa::dist::Half;
using msa::dist::OverlappedReducer;
using msa::dist::ShardedSampler;
using msa::simnet::ComputeProfile;
using msa::simnet::Machine;
using msa::simnet::MachineConfig;
using msa::tensor::Rng;
using msa::tensor::Tensor;

MachineConfig test_config() {
  MachineConfig cfg;
  cfg.intra_node = {0.3e-6, 100e9, 0.1e-6};
  cfg.intra_module = {1.0e-6, 10e9, 0.3e-6};
  cfg.federation = {2.0e-6, 5e9, 0.5e-6};
  return cfg;
}

/// Average @p store's gradient slab across @p comm: one reducer step.
void average_gradients(Comm& comm, msa::nn::ParamStore& store,
                       const AllreduceOptions& options) {
  OverlappedReducer reducer(comm, store, options);
  reducer.begin_step();
  reducer.finish();
}

// ---- fp16 --------------------------------------------------------------------

TEST(Half, RoundTripExactValues) {
  // Values exactly representable in binary16 round-trip bit-exactly.
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, -0.25f, 65504.0f}) {
    EXPECT_EQ(Half(v).to_float(), v) << v;
  }
}

TEST(Half, RoundsToNearest) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half (1+2^-10);
  // round-to-even goes down to 1.0.
  EXPECT_EQ(Half(1.0f + 0x1.0p-11f).to_float(), 1.0f);
  // Slightly above halfway rounds up.
  EXPECT_EQ(Half(1.0f + 0x1.2p-11f).to_float(), 1.0f + 0x1.0p-10f);
}

TEST(Half, HandlesOverflowAndSubnormals) {
  EXPECT_TRUE(std::isinf(Half(1e6f).to_float()));
  EXPECT_TRUE(std::isinf(Half(-1e6f).to_float()));
  // Smallest positive half subnormal is 2^-24.
  EXPECT_EQ(Half(0x1.0p-24f).to_float(), 0x1.0p-24f);
  // Underflow to zero below half of that.
  EXPECT_EQ(Half(0x1.0p-26f).to_float(), 0.0f);
}

TEST(Half, RelativeErrorBounded) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const float v = static_cast<float>(rng.normal()) * 10.0f;
    const float r = Half(v).to_float();
    EXPECT_LE(std::fabs(r - v), std::fabs(v) * 1.0f / 1024.0f + 1e-7f);
  }
}

// ---- sharding ---------------------------------------------------------------

TEST(ShardedSampler, ShardsAreDisjointAndCover) {
  const std::size_t n = 103;
  const int world = 4;
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (int r = 0; r < world; ++r) {
    ShardedSampler sampler(n, r, world);
    auto idx = sampler.epoch_indices(3);
    EXPECT_EQ(idx.size(), n / world);
    for (auto i : idx) {
      EXPECT_LT(i, n);
      EXPECT_TRUE(seen.insert(i).second) << "duplicate index " << i;
    }
    total += idx.size();
  }
  EXPECT_EQ(total, (n / world) * world);
}

TEST(ShardedSampler, EpochsReshuffle) {
  ShardedSampler sampler(64, 0, 2);
  EXPECT_NE(sampler.epoch_indices(0), sampler.epoch_indices(1));
}

TEST(ShardedSampler, DeterministicAcrossCalls) {
  ShardedSampler a(64, 1, 4), b(64, 1, 4);
  EXPECT_EQ(a.epoch_indices(7), b.epoch_indices(7));
}

// ---- broadcast ---------------------------------------------------------------

TEST(Dist, BroadcastParametersMakesReplicasIdentical) {
  Runtime rt(Machine::homogeneous(4, 2, test_config(), ComputeProfile{}));
  rt.run([](Comm& comm) {
    Rng rng(1000 + comm.rank());  // deliberately different init per rank
    auto model = msa::nn::make_mlp(4, {8}, 2, rng);
    broadcast_parameters(comm, *model);
    // Checksum must agree across ranks.
    float sum = 0.0f;
    for (auto* p : model->params()) sum += p->sum();
    auto all = comm.allgather(std::span<const float>(&sum, 1));
    for (float v : all) EXPECT_FLOAT_EQ(v, all[0]);
  });
}

// ---- the equivalence property -------------------------------------------------

/// Serial reference: train on the full batch; return final parameter vector.
std::vector<float> train_serial(int steps, const Tensor& x_full,
                                const std::vector<std::int32_t>& y_full) {
  Rng rng(7);
  auto model = msa::nn::make_mlp(6, {10}, 3, rng);
  msa::nn::ParamStore store(*model);
  msa::nn::Sgd opt(0.1, 0.9);
  store.attach_optimizer(opt);
  for (int s = 0; s < steps; ++s) {
    store.zero_grads();
    Tensor logits = model->forward(x_full, true);
    auto res = msa::nn::softmax_cross_entropy(logits, y_full);
    model->backward(res.grad);
    store.step(opt);
  }
  std::vector<float> out;
  for (auto* p : model->params()) {
    out.insert(out.end(), p->data(), p->data() + p->numel());
  }
  return out;
}

class DistEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DistEquivalence, DataParallelMatchesSerialLargeBatch) {
  const int P = GetParam();
  const int steps = 5;
  const std::size_t per_rank = 4;
  const std::size_t B = per_rank * static_cast<std::size_t>(P);

  Rng data_rng(21);
  Tensor x_full = Tensor::randn({B, 6}, data_rng);
  std::vector<std::int32_t> y_full(B);
  for (auto& y : y_full) y = static_cast<std::int32_t>(data_rng.uniform_index(3));

  const auto reference = train_serial(steps, x_full, y_full);

  std::vector<float> distributed;
  Runtime rt(Machine::homogeneous(P, 2, test_config(), ComputeProfile{}));
  std::mutex m;
  rt.run([&](Comm& comm) {
    Rng rng(7);  // same init everywhere (same seed -> same weights)
    auto model = msa::nn::make_mlp(6, {10}, 3, rng);
    broadcast_parameters(comm, *model);
    msa::nn::Sgd opt(0.1, 0.9);
    DistributedTrainer trainer(comm, *model, opt);
    // Rank r takes rows [r*per_rank, (r+1)*per_rank).
    Tensor x_mine({per_rank, 6});
    std::vector<std::int32_t> y_mine(per_rank);
    for (std::size_t i = 0; i < per_rank; ++i) {
      const std::size_t row = comm.rank() * per_rank + i;
      for (std::size_t c = 0; c < 6; ++c) x_mine.at2(i, c) = x_full.at2(row, c);
      y_mine[i] = y_full[row];
    }
    for (int s = 0; s < steps; ++s) {
      trainer.step_classification(x_mine, y_mine);
    }
    if (comm.rank() == 0) {
      std::lock_guard lock(m);
      for (auto* p : model->params()) {
        distributed.insert(distributed.end(), p->data(),
                           p->data() + p->numel());
      }
    }
  });

  ASSERT_EQ(distributed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    // FP32 summation order differs between ring-allreduce and serial batch;
    // tolerance covers the accumulated rounding over `steps` updates.
    ASSERT_NEAR(distributed[i], reference[i], 2e-4f) << "param " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, DistEquivalence, ::testing::Values(1, 2, 4, 8));

TEST(Dist, Fp16CompressionCloseToFp32) {
  const int P = 4;
  std::vector<float> fp32_params, fp16_params;
  for (bool fp16 : {false, true}) {
    Runtime rt(Machine::homogeneous(P, 2, test_config(), ComputeProfile{}));
    std::mutex m;
    rt.run([&](Comm& comm) {
      Rng rng(7);
      auto model = msa::nn::make_mlp(5, {8}, 2, rng);
      broadcast_parameters(comm, *model);
      msa::nn::Sgd opt(0.05);
      AllreduceOptions opts;
      opts.fp16_compression = fp16;
      DistributedTrainer trainer(comm, *model, opt, opts);
      Rng drng(300 + comm.rank());
      for (int s = 0; s < 8; ++s) {
        Tensor x = Tensor::randn({4, 5}, drng);
        std::vector<std::int32_t> y(4);
        for (auto& v : y) v = static_cast<std::int32_t>(drng.uniform_index(2));
        trainer.step_classification(x, y);
      }
      if (comm.rank() == 0) {
        std::lock_guard lock(m);
        auto& dst = fp16 ? fp16_params : fp32_params;
        for (auto* p : model->params()) {
          dst.insert(dst.end(), p->data(), p->data() + p->numel());
        }
      }
    });
  }
  ASSERT_EQ(fp16_params.size(), fp32_params.size());
  double max_err = 0.0;
  for (std::size_t i = 0; i < fp32_params.size(); ++i) {
    max_err = std::max(max_err, static_cast<double>(std::fabs(
                                    fp16_params[i] - fp32_params[i])));
  }
  EXPECT_LT(max_err, 5e-2);  // compression noise stays small
  EXPECT_GT(max_err, 0.0);   // but it is actually lossy (fp16 really applied)
}

TEST(Dist, Fp16HalvesWireTraffic) {
  const int P = 4;
  std::array<std::uint64_t, 2> traffic{};
  for (int pass = 0; pass < 2; ++pass) {
    const bool fp16 = pass == 1;
    Runtime rt(Machine::homogeneous(P, 1, test_config(), ComputeProfile{}));
    rt.run([&](Comm& comm) {
      Rng rng(7);
      auto model = msa::nn::make_mlp(16, {32}, 4, rng);
      msa::nn::ParamStore store(*model);
      AllreduceOptions opts;
      opts.fp16_compression = fp16;
      opts.algorithm = msa::simnet::CollectiveAlgorithm::Ring;
      average_gradients(comm, store, opts);
    });
    traffic[static_cast<std::size_t>(pass)] = rt.bytes_sent()[0];
  }
  EXPECT_NEAR(static_cast<double>(traffic[1]) / static_cast<double>(traffic[0]),
              0.5, 0.05);
}

TEST(Dist, BucketingDoesNotChangeResult) {
  // Tiny buckets (force many flushes) must give the same averaged gradients
  // as one big bucket.
  const int P = 3;
  std::array<std::vector<float>, 2> results;
  for (int pass = 0; pass < 2; ++pass) {
    Runtime rt(Machine::homogeneous(P, 1, test_config(), ComputeProfile{}));
    std::mutex m;
    rt.run([&](Comm& comm) {
      Rng rng(7);
      auto model = msa::nn::make_mlp(9, {7}, 3, rng);
      msa::nn::ParamStore store(*model);
      // Fill gradients with rank-dependent values.
      int k = 0;
      for (auto* g : model->grads()) {
        for (std::size_t i = 0; i < g->numel(); ++i) {
          (*g)[i] = static_cast<float>((comm.rank() + 1) * (++k % 17)) * 0.01f;
        }
      }
      AllreduceOptions opts;
      opts.bucket_bytes = pass == 0 ? (1u << 22) : 64;  // 16 floats per bucket
      average_gradients(comm, store, opts);
      if (comm.rank() == 0) {
        std::lock_guard lock(m);
        for (auto* g : model->grads()) {
          results[static_cast<std::size_t>(pass)].insert(
              results[static_cast<std::size_t>(pass)].end(), g->data(),
              g->data() + g->numel());
        }
      }
    });
  }
  ASSERT_EQ(results[0].size(), results[1].size());
  for (std::size_t i = 0; i < results[0].size(); ++i) {
    ASSERT_FLOAT_EQ(results[0][i], results[1][i]) << i;
  }
}

TEST(Dist, SimTimeGrowsWithGradientSize) {
  // Bigger models => more allreduce traffic => more simulated time.
  std::array<double, 2> times{};
  for (int pass = 0; pass < 2; ++pass) {
    Runtime rt(Machine::homogeneous(4, 1, test_config(), ComputeProfile{}));
    rt.run([&](Comm& comm) {
      Rng rng(7);
      auto model = pass == 0 ? msa::nn::make_mlp(8, {8}, 2, rng)
                             : msa::nn::make_mlp(64, {128, 128}, 10, rng);
      msa::nn::ParamStore store(*model);
      average_gradients(comm, store, {});
    });
    times[static_cast<std::size_t>(pass)] = rt.max_sim_time();
  }
  EXPECT_GT(times[1], times[0]);
}

}  // namespace
