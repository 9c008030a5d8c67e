// Tests for the advanced parallelism features: reduce-scatter/all-to-all
// collectives, ZeRO-1 optimizer sharding, synchronised BatchNorm, pipeline
// parallelism, and checkpoint/restart.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>

#include "comm/runtime.hpp"
#include "dist/distributed.hpp"
#include "dist/pipeline.hpp"
#include "dist/sync_batchnorm.hpp"
#include "dist/zero.hpp"
#include "nn/conv.hpp"
#include "nn/layers_basic.hpp"
#include "nn/models.hpp"
#include "nn/norm.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"
#include "nn/serialize.hpp"

namespace {

using msa::comm::Comm;
using msa::comm::ReduceOp;
using msa::comm::Runtime;
using msa::simnet::ComputeProfile;
using msa::simnet::Machine;
using msa::simnet::MachineConfig;
using msa::tensor::Rng;
using msa::tensor::Tensor;

Runtime make_runtime(int ranks, int per_node = 2) {
  MachineConfig cfg;
  cfg.intra_node = {0.3e-6, 100e9, 0.1e-6};
  cfg.intra_module = {1.0e-6, 10e9, 0.3e-6};
  cfg.federation = {2.0e-6, 5e9, 0.5e-6};
  return Runtime(
      Machine::homogeneous(ranks, per_node, cfg, ComputeProfile{}));
}

// ---- collectives ------------------------------------------------------------

class ReduceScatterTest : public ::testing::TestWithParam<int> {};

TEST_P(ReduceScatterTest, ChunkOwnershipAndSums) {
  const int P = GetParam();
  const std::size_t chunk = 5;
  Runtime rt = make_runtime(P);
  rt.run([&](Comm& comm) {
    std::vector<double> data(chunk * static_cast<std::size_t>(P));
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = (comm.rank() + 1) * 100.0 + static_cast<double>(i);
    }
    auto mine = comm.reduce_scatter(std::span<double>(data), chunk,
                                    ReduceOp::Sum);
    ASSERT_EQ(mine.size(), chunk);
    const double rank_sum = P * (P + 1) / 2.0;
    for (std::size_t i = 0; i < chunk; ++i) {
      const double idx =
          static_cast<double>(chunk * static_cast<std::size_t>(comm.rank()) + i);
      EXPECT_NEAR(mine[i], rank_sum * 100.0 + P * idx, 1e-9) << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, ReduceScatterTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

class AlltoallTest : public ::testing::TestWithParam<int> {};

TEST_P(AlltoallTest, BlocksArriveFromEveryPeer) {
  const int P = GetParam();
  const std::size_t chunk = 3;
  Runtime rt = make_runtime(P);
  rt.run([&](Comm& comm) {
    std::vector<int> data(chunk * static_cast<std::size_t>(P));
    for (int dest = 0; dest < P; ++dest) {
      for (std::size_t i = 0; i < chunk; ++i) {
        data[static_cast<std::size_t>(dest) * chunk + i] =
            comm.rank() * 1000 + dest * 10 + static_cast<int>(i);
      }
    }
    auto out = comm.alltoall(std::span<const int>(data), chunk);
    ASSERT_EQ(out.size(), data.size());
    for (int src = 0; src < P; ++src) {
      for (std::size_t i = 0; i < chunk; ++i) {
        EXPECT_EQ(out[static_cast<std::size_t>(src) * chunk + i],
                  src * 1000 + comm.rank() * 10 + static_cast<int>(i));
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, AlltoallTest, ::testing::Values(1, 2, 3, 4, 6));

// ---- ZeRO -------------------------------------------------------------------

using RuleFactory = std::function<std::unique_ptr<msa::nn::Optimizer>()>;

/// ZeRO-1 sharding of the rule @p make_rule builds must produce the same
/// parameters as the unsharded gradient reducer + the full-state rule
/// (element-wise update) when @p P ranks train an MLP of @p in -> @p hidden
/// -> @p classes.  ZeRO sizes its shard state by the rule's state_roles().
void expect_zero_matches_unsharded(const RuleFactory& make_rule, int P,
                                   std::size_t in,
                                   const std::vector<std::size_t>& hidden,
                                   std::size_t classes) {
  const int steps = 4;
  std::vector<float> zero_params, plain_params;
  std::mutex m;
  for (int variant = 0; variant < 2; ++variant) {
    Runtime rt = make_runtime(P);
    rt.run([&](Comm& comm) {
      Rng rng(7);
      auto model = msa::nn::make_mlp(in, hidden, classes, rng);
      msa::nn::ParamStore store(*model);
      msa::dist::broadcast_parameters(comm, store);
      const auto plain_opt = make_rule();
      store.attach_optimizer(*plain_opt);
      msa::dist::OverlappedReducer reducer(comm, store, {});
      msa::dist::ZeroOptimizer zero_opt(comm, make_rule());
      Rng rank_rng(50 + comm.rank());
      for (int s = 0; s < steps; ++s) {
        Tensor x = Tensor::randn({4, in}, rank_rng);
        std::vector<std::int32_t> y(4);
        for (auto& v : y) {
          v = static_cast<std::int32_t>(rank_rng.uniform_index(classes));
        }
        store.zero_grads();
        Tensor logits = model->forward(x, true);
        auto res = msa::nn::softmax_cross_entropy(logits, y);
        model->backward(res.grad);
        if (variant == 0) {
          zero_opt.step(store);
        } else {
          reducer.begin_step();
          reducer.finish();
          store.step(*plain_opt);
        }
      }
      if (comm.rank() == 0) {
        std::lock_guard lock(m);
        auto& dst = variant == 0 ? zero_params : plain_params;
        const auto slab = store.param_span();
        dst.assign(slab.begin(), slab.end());
      }
    });
  }
  ASSERT_EQ(zero_params.size(), plain_params.size());
  for (std::size_t i = 0; i < zero_params.size(); ++i) {
    ASSERT_NEAR(zero_params[i], plain_params[i], 1e-5f)
        << "P=" << P << " param " << i;
  }
}

TEST(Zero, MatchesUnshardedOptimizer) {
  // Adam has two state roles (m, v), momentum SGD one (the velocity).
  const RuleFactory adam = [] { return std::make_unique<msa::nn::Adam>(1e-2); };
  const RuleFactory momentum = [] {
    return std::make_unique<msa::nn::Sgd>(0.1, 0.9);
  };
  for (const RuleFactory& rule : {adam, momentum}) {
    expect_zero_matches_unsharded(rule, 4, 9, {11}, 3);
    // 80 parameters over 3 ranks: the shards are padded.
    expect_zero_matches_unsharded(rule, 3, 3, {7, 5}, 2);
  }
}

TEST(Zero, StateMemoryShrinksWithRanks) {
  for (int P : {2, 4, 8}) {
    Runtime rt = make_runtime(P);
    rt.run([&](Comm& comm) {
      Rng rng(3);
      auto model = msa::nn::make_mlp(16, {16}, 4, rng);
      msa::nn::ParamStore store(*model);
      msa::dist::ZeroOptimizer opt(comm,
                                   std::make_unique<msa::nn::Adam>(1e-3));
      store.zero_grads();
      opt.step(store);
      EXPECT_NEAR(opt.state_memory_fraction(), 1.0 / comm.size(), 1e-6);
      EXPECT_EQ(opt.shard_elements() * static_cast<std::size_t>(comm.size()),
                opt.padded_elements());
    });
  }
}

TEST(Zero, ReplicasStayConsistent) {
  // After each ZeRO step, every replica must hold identical parameters.
  Runtime rt = make_runtime(3);
  rt.run([](Comm& comm) {
    Rng rng(5);
    auto model = msa::nn::make_mlp(7, {5}, 2, rng);
    msa::nn::ParamStore store(*model);
    msa::dist::broadcast_parameters(comm, store);
    msa::dist::ZeroOptimizer opt(comm, std::make_unique<msa::nn::Sgd>(0.1));
    Rng drng(60 + comm.rank());
    for (int s = 0; s < 3; ++s) {
      Tensor x = Tensor::randn({2, 7}, drng);
      std::vector<std::int32_t> y = {0, 1};
      store.zero_grads();
      auto res = msa::nn::softmax_cross_entropy(model->forward(x, true), y);
      model->backward(res.grad);
      opt.step(store);
      float checksum = 0.0f;
      for (auto* p : model->params()) checksum += p->sum();
      auto all = comm.allgather(std::span<const float>(&checksum, 1));
      for (float v : all) ASSERT_FLOAT_EQ(v, all[0]);
    }
  });
}

// ---- SyncBatchNorm ------------------------------------------------------------

TEST(SyncBatchNorm, MatchesSingleProcessOnConcatenatedBatch) {
  const int P = 4;
  const std::size_t B_local = 2, C = 3, H = 4, W = 4;
  Rng data_rng(31);
  Tensor x_full = Tensor::randn({B_local * P, C, H, W}, data_rng);
  Tensor g_full = Tensor::randn({B_local * P, C, H, W}, data_rng);

  // Reference: plain BatchNorm over the whole batch.
  msa::nn::BatchNorm2D ref(C);
  Tensor y_ref = ref.forward(x_full, true);
  ref.zero_grads();
  Tensor gx_ref = ref.backward(g_full);

  // Distributed: each rank holds B_local samples.
  std::mutex m;
  std::vector<float> y_dist(x_full.numel()), gx_dist(x_full.numel());
  std::vector<float> ggamma(C), gbeta(C);
  Runtime rt = make_runtime(P);
  rt.run([&](Comm& comm) {
    msa::dist::SyncBatchNorm2D bn(C, comm);
    const std::size_t stride = C * H * W;
    const std::size_t lo = static_cast<std::size_t>(comm.rank()) * B_local;
    Tensor x_local({B_local, C, H, W});
    Tensor g_local({B_local, C, H, W});
    std::copy(x_full.data() + lo * stride,
              x_full.data() + (lo + B_local) * stride, x_local.data());
    std::copy(g_full.data() + lo * stride,
              g_full.data() + (lo + B_local) * stride, g_local.data());
    Tensor y = bn.forward(x_local, true);
    bn.zero_grads();
    Tensor gx = bn.backward(g_local);
    std::lock_guard lock(m);
    std::copy(y.data(), y.data() + y.numel(), y_dist.data() + lo * stride);
    std::copy(gx.data(), gx.data() + gx.numel(), gx_dist.data() + lo * stride);
    if (comm.rank() == 0) {
      // gamma/beta grads: sync-BN holds the *global* sums on every rank;
      // single-process grads are 1x those sums.
      for (std::size_t c = 0; c < C; ++c) {
        ggamma[c] = (*bn.grads()[0])[c];
        gbeta[c] = (*bn.grads()[1])[c];
      }
    }
  });

  for (std::size_t i = 0; i < y_dist.size(); ++i) {
    ASSERT_NEAR(y_dist[i], y_ref[i], 1e-4f) << "y " << i;
    ASSERT_NEAR(gx_dist[i], gx_ref[i], 1e-3f) << "gx " << i;
  }
  for (std::size_t c = 0; c < C; ++c) {
    EXPECT_NEAR(ggamma[c], (*ref.grads()[0])[c], 1e-2f);
    EXPECT_NEAR(gbeta[c], (*ref.grads()[1])[c], 1e-2f);
  }
}

TEST(SyncBatchNorm, SingleRankReducesToPlainBatchNorm) {
  Rng rng(41);
  Tensor x = Tensor::randn({4, 2, 3, 3}, rng);
  msa::nn::BatchNorm2D plain(2);
  Tensor y_plain = plain.forward(x, true);
  Runtime rt = make_runtime(1);
  rt.run([&](Comm& comm) {
    msa::dist::SyncBatchNorm2D bn(2, comm);
    Tensor y = bn.forward(x, true);
    for (std::size_t i = 0; i < y.numel(); ++i) {
      ASSERT_NEAR(y[i], y_plain[i], 1e-5f);
    }
  });
}

// ---- pipeline parallelism -----------------------------------------------------

TEST(Pipeline, PartitionBalancesParameters) {
  Rng rng(51);
  auto model = msa::nn::make_mlp(32, {64, 64, 32}, 8, rng);
  const std::size_t total = msa::nn::parameter_count(*model);
  auto stages = msa::dist::partition_model(std::move(model), 2);
  ASSERT_EQ(stages.size(), 2u);
  const std::size_t p0 = msa::nn::parameter_count(*stages[0]);
  const std::size_t p1 = msa::nn::parameter_count(*stages[1]);
  EXPECT_EQ(p0 + p1, total);
  EXPECT_GT(p0, total / 5);
  EXPECT_GT(p1, total / 5);
}

TEST(Pipeline, EveryStageNonEmpty) {
  for (int parts : {2, 3, 4}) {
    Rng rng(52);
    auto model = msa::nn::make_mlp(8, {8, 8, 8}, 2, rng);
    auto stages = msa::dist::partition_model(std::move(model), parts);
    ASSERT_EQ(stages.size(), static_cast<std::size_t>(parts));
    for (const auto& s : stages) EXPECT_GT(s->size(), 0u);
  }
}

TEST(Pipeline, MatchesSerialGradientAccumulation) {
  // A 2-stage pipeline with 3 microbatches must produce the same parameters
  // as serial training with gradient accumulation over those microbatches.
  Rng data_rng(61);
  std::vector<Tensor> micro_x;
  std::vector<std::vector<std::int32_t>> micro_y;
  for (int mb = 0; mb < 3; ++mb) {
    micro_x.push_back(Tensor::randn({4, 6}, data_rng));
    std::vector<std::int32_t> y(4);
    for (auto& v : y) v = static_cast<std::int32_t>(data_rng.uniform_index(3));
    micro_y.push_back(y);
  }

  // Serial reference with gradient accumulation.
  Rng rng_ref(7);
  auto ref_model = msa::nn::make_mlp(6, {10, 8}, 3, rng_ref);
  msa::nn::ParamStore ref_store(*ref_model);
  msa::nn::Sgd ref_opt(0.1, 0.9);
  ref_store.attach_optimizer(ref_opt);
  float ref_loss = 0.0f;
  for (int step = 0; step < 3; ++step) {
    ref_store.zero_grads();
    float loss_sum = 0.0f;
    for (int mb = 0; mb < 3; ++mb) {
      Tensor logits = ref_model->forward(micro_x[static_cast<std::size_t>(mb)], true);
      auto res = msa::nn::softmax_cross_entropy(
          logits, micro_y[static_cast<std::size_t>(mb)]);
      res.grad.scale_(1.0f / 3.0f);
      loss_sum += res.loss;
      ref_model->backward(res.grad);
    }
    ref_loss = loss_sum / 3.0f;
    ref_store.step(ref_opt);
  }
  std::vector<float> ref_params;
  for (auto* p : ref_model->params()) {
    ref_params.insert(ref_params.end(), p->data(), p->data() + p->numel());
  }

  // Pipeline over 2 ranks.
  std::vector<float> pipe_params;
  float pipe_loss = 0.0f;
  std::mutex m;
  Runtime rt = make_runtime(2);
  rt.run([&](Comm& comm) {
    Rng rng(7);  // same init as reference
    auto model = msa::nn::make_mlp(6, {10, 8}, 3, rng);
    auto stages = msa::dist::partition_model(std::move(model), 2);
    msa::nn::Sgd opt(0.1, 0.9);
    msa::dist::PipelineStage stage(
        msa::dist::Mesh(comm, {.pipeline_stages = 2, .topology_aware = false}),
        *stages[static_cast<std::size_t>(comm.rank())], opt);
    float loss = 0.0f;
    for (int step = 0; step < 3; ++step) {
      loss = stage.step_classification(micro_x, micro_y).loss;
    }
    std::lock_guard lock(m);
    if (comm.rank() == 0) pipe_loss = loss;
    // Each rank deposits its stage's parameters; whichever rank runs this
    // critical section last assembles the complete rank-ordered merge.
    static std::vector<std::vector<float>> per_rank(2);
    auto& mine = per_rank[static_cast<std::size_t>(comm.rank())];
    mine.clear();
    for (auto* p : stage.stage().params()) {
      mine.insert(mine.end(), p->data(), p->data() + p->numel());
    }
    pipe_params.clear();
    pipe_params.insert(pipe_params.end(), per_rank[0].begin(),
                       per_rank[0].end());
    pipe_params.insert(pipe_params.end(), per_rank[1].begin(),
                       per_rank[1].end());
  });

  ASSERT_EQ(pipe_params.size(), ref_params.size());
  for (std::size_t i = 0; i < ref_params.size(); ++i) {
    ASSERT_NEAR(pipe_params[i], ref_params[i], 1e-5f) << i;
  }
  EXPECT_NEAR(pipe_loss, ref_loss, 1e-5f);
}

TEST(Pipeline, InferenceMatchesMonolithicModel) {
  Rng data_rng(71);
  Tensor x = Tensor::randn({5, 6}, data_rng);
  Rng rng_ref(9);
  auto ref = msa::nn::make_mlp(6, {12, 8}, 4, rng_ref);
  Tensor y_ref = ref->forward(x, false);

  std::vector<float> y_pipe(y_ref.numel());
  Runtime rt = make_runtime(3);
  rt.run([&](Comm& comm) {
    Rng rng(9);
    auto model = msa::nn::make_mlp(6, {12, 8}, 4, rng);
    auto stages = msa::dist::partition_model(std::move(model), 3);
    msa::nn::Sgd opt(0.1);
    msa::dist::PipelineStage stage(
        msa::dist::Mesh(comm, {.pipeline_stages = 3, .topology_aware = false}),
        *stages[static_cast<std::size_t>(comm.rank())], opt);
    Tensor out = stage.forward_inference(x);
    if (stage.is_last()) {
      std::copy(out.data(), out.data() + out.numel(), y_pipe.data());
    }
  });
  for (std::size_t i = 0; i < y_ref.numel(); ++i) {
    ASSERT_NEAR(y_pipe[i], y_ref[i], 1e-5f) << i;
  }
}

// ---- checkpoint / restart -------------------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  void TearDown() override { std::filesystem::remove(prefix_ + ".bin"); }
  std::string prefix_ = "/tmp/msalib_ckpt_test";
};

TEST_F(CheckpointTest, TensorArchiveRoundTrip) {
  Rng rng(81);
  Tensor a = Tensor::randn({3, 4}, rng);
  Tensor b = Tensor::randn({2, 2, 2}, rng);
  msa::nn::save_tensors(prefix_ + ".bin", {&a, &b});
  auto loaded = msa::nn::load_tensors(prefix_ + ".bin");
  ASSERT_EQ(loaded.size(), 2u);
  ASSERT_TRUE(loaded[0].same_shape(a));
  ASSERT_TRUE(loaded[1].same_shape(b));
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(loaded[0][i], a[i]);
  for (std::size_t i = 0; i < b.numel(); ++i) EXPECT_EQ(loaded[1][i], b[i]);
}

}  // namespace
