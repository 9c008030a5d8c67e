// forward_inference tests: the serving-side forward must produce the exact
// logits of a monolithic training-mode-off forward, must leave gradients and
// parameters untouched (no optimizer state, no accumulation), and must honor
// the broadcast_result option so non-head stages can observe logits too.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <vector>

#include "comm/runtime.hpp"
#include "dist/pipeline.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"

namespace {

using msa::comm::Comm;
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

/// Fresh reference logits: the same seeded model run as one local forward
/// with training=false.
Tensor reference_forward(const Tensor& x) {
  Rng rng(7);
  auto model = msa::nn::make_mlp(6, {12, 8}, 4, rng);
  return model->forward(x, false);
}

/// Rank comm.rank()'s stage of the seeded model split @p parts ways, with
/// the layers and optimizer its engine refers to.
struct StageRig {
  StageRig(Comm& comm, int parts)
      : part(std::move(split(parts)[static_cast<std::size_t>(comm.rank())])),
        stage(msa::dist::Mesh(comm, {.pipeline_stages = parts,
                                     .topology_aware = false}),
              *part, opt) {}

  static std::vector<std::unique_ptr<msa::nn::Sequential>> split(int parts) {
    Rng rng(7);
    return msa::dist::partition_model(msa::nn::make_mlp(6, {12, 8}, 4, rng),
                                      parts);
  }

  std::unique_ptr<msa::nn::Sequential> part;
  msa::nn::Sgd opt{0.1};
  msa::dist::PipelineStage stage;
};

TEST(Inference, MatchesTrainingForwardBitExact) {
  Rng data_rng(71);
  const Tensor x = Tensor::randn({5, 6}, data_rng);
  const Tensor y_ref = reference_forward(x);

  std::vector<float> y_pipe(y_ref.numel());
  Runtime rt = make_runtime(3);
  rt.run([&](Comm& comm) {
    StageRig rig(comm, 3);
    msa::dist::PipelineStage& stage = rig.stage;
    Tensor out = stage.forward_inference(x);
    if (stage.is_last()) {
      std::copy(out.data(), out.data() + out.numel(), y_pipe.data());
    }
  });
  // Stage boundaries only relay activations and parameters are relocated by
  // copy, so the pipelined forward is the same float program: exact match,
  // not approximate.
  for (std::size_t i = 0; i < y_ref.numel(); ++i) {
    ASSERT_EQ(y_pipe[i], y_ref[i]) << i;
  }
}

TEST(Inference, LeavesGradientsAndParametersUntouched) {
  Rng data_rng(72);
  const Tensor x = Tensor::randn({3, 6}, data_rng);
  Runtime rt = make_runtime(2);
  rt.run([&](Comm& comm) {
    StageRig rig(comm, 2);
    msa::dist::PipelineStage& stage = rig.stage;
    // Poison the gradient buffers and snapshot the parameters: inference
    // must not zero, accumulate, or step either of them.
    for (Tensor* g : stage.stage().grads()) g->fill(1.5f);
    std::vector<std::vector<float>> before;
    for (Tensor* p : stage.stage().params()) {
      before.emplace_back(p->data(), p->data() + p->numel());
    }

    (void)stage.forward_inference(x);

    for (Tensor* g : stage.stage().grads()) {
      for (std::size_t i = 0; i < g->numel(); ++i) {
        ASSERT_EQ(g->data()[i], 1.5f) << "gradient touched at " << i;
      }
    }
    const auto params = stage.stage().params();
    ASSERT_EQ(params.size(), before.size());
    for (std::size_t t = 0; t < params.size(); ++t) {
      for (std::size_t i = 0; i < params[t]->numel(); ++i) {
        ASSERT_EQ(params[t]->data()[i], before[t][i]) << "param touched";
      }
    }
  });
}

TEST(Inference, BroadcastResultDeliversLogitsToEveryStage) {
  Rng data_rng(73);
  const Tensor x = Tensor::randn({4, 6}, data_rng);
  const Tensor y_ref = reference_forward(x);

  // Default: only the last stage holds logits, everyone else gets an empty
  // tensor (no silent garbage to mistake for a result).
  Runtime rt = make_runtime(2);
  rt.run([&](Comm& comm) {
    StageRig rig(comm, 2);
    msa::dist::PipelineStage& stage = rig.stage;
    Tensor out = stage.forward_inference(x);
    if (stage.is_last()) {
      ASSERT_EQ(out.numel(), y_ref.numel());
    } else {
      ASSERT_EQ(out.numel(), 0u);
    }
  });

  // broadcast_result: every stage receives the identical logits.
  std::mutex mu;
  std::vector<std::vector<float>> per_rank(2);
  Runtime rt2 = make_runtime(2);
  rt2.run([&](Comm& comm) {
    StageRig rig(comm, 2);
    msa::dist::PipelineStage& stage = rig.stage;
    Tensor out = stage.forward_inference(x, /*broadcast_result=*/true);
    std::lock_guard lock(mu);
    per_rank[static_cast<std::size_t>(comm.rank())]
        .assign(out.data(), out.data() + out.numel());
  });
  for (const auto& logits : per_rank) {
    ASSERT_EQ(logits.size(), y_ref.numel());
    for (std::size_t i = 0; i < logits.size(); ++i) {
      ASSERT_EQ(logits[i], y_ref.data()[i]) << i;
    }
  }
}

TEST(Inference, PipelinedSingleRequestPass) {
  // The serving fast path: one row through a 2-stage pipeline — the
  // batch-1 shape every latency-sensitive dispatch takes.
  Rng data_rng(74);
  const Tensor x = Tensor::randn({1, 6}, data_rng);
  const Tensor y_ref = reference_forward(x);

  std::vector<float> y_pipe(y_ref.numel());
  Runtime rt = make_runtime(2);
  rt.run([&](Comm& comm) {
    StageRig rig(comm, 2);
    msa::dist::PipelineStage& stage = rig.stage;
    Tensor out = stage.forward_inference(x);
    if (stage.is_last()) {
      std::copy(out.data(), out.data() + out.numel(), y_pipe.data());
    }
  });
  for (std::size_t i = 0; i < y_ref.numel(); ++i) {
    ASSERT_EQ(y_pipe[i], y_ref[i]) << i;
  }
}

}  // namespace
