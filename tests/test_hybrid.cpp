// Composable parallelism mesh tests: grid carving, hybrid DP x PP
// bit-identity against single-process gradient accumulation, overlapped vs
// blocking data-axis reduction, ZeRO option combinations on the slab path,
// elastic recovery of a mesh run, and the obs attribution of pipeline
// activation traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "comm/runtime.hpp"
#include "core/machine_builder.hpp"
#include "core/module.hpp"
#include "dist/distributed.hpp"
#include "dist/hybrid.hpp"
#include "dist/mesh.hpp"
#include "dist/pipeline.hpp"
#include "dist/resilient.hpp"
#include "dist/zero.hpp"
#include "fault/injector.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"

namespace {

using msa::comm::Comm;
using msa::comm::ReduceOp;
using msa::comm::Runtime;
using msa::dist::AllreduceOptions;
using msa::dist::HybridOptions;
using msa::dist::Mesh;
using msa::dist::MeshOptions;
using msa::dist::PipelineStage;
using msa::dist::ResilienceReport;
using msa::dist::ResilientOptions;
using msa::dist::ResilientTrainer;
using msa::dist::ZeroOptimizer;
using msa::fault::FaultInjector;
using msa::fault::FaultPlan;
using msa::nn::ParamStore;
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

Runtime make_runtime(int ranks, int per_node = 2) {
  return Runtime(
      Machine::homogeneous(ranks, per_node, test_config(), ComputeProfile{}));
}

/// Deterministic test network (same seed => same init on every rank).
std::unique_ptr<msa::nn::Sequential> small_mlp(unsigned seed = 7) {
  Rng rng(seed);
  return msa::nn::make_mlp(6, {10, 8}, 3, rng);
}

/// Deterministic per-(rank, step) gradients, identical across model clones.
void fill_grads(msa::nn::Sequential& model, int seed) {
  std::size_t at = 0;
  for (auto* g : model.grads()) {
    for (std::size_t j = 0; j < g->numel(); ++j, ++at) {
      (*g)[j] =
          0.01f * static_cast<float>((at * 7 + static_cast<std::size_t>(seed) *
                                                   13) %
                                     23) -
          0.1f;
    }
  }
}

std::vector<float> flatten_params(msa::nn::Sequential& model) {
  std::vector<float> out;
  for (auto* p : model.params()) {
    out.insert(out.end(), p->data(), p->data() + p->numel());
  }
  return out;
}

// ---- mesh carving -----------------------------------------------------------

TEST(Mesh, CarvesDataAndPipeAxes) {
  // 6 ranks as a [3 stages x 2 replicas] grid in rank order: the stage is the
  // consecutive-group index, the sub-communicator ranks equal the grid
  // coordinates, and both axes are usable for collectives.
  Runtime rt = make_runtime(6);
  rt.run([&](Comm& comm) {
    Mesh mesh(comm, MeshOptions{.pipeline_stages = 3, .topology_aware = false});
    EXPECT_EQ(mesh.stages(), 3);
    EXPECT_EQ(mesh.replicas(), 2);
    EXPECT_EQ(mesh.stage(), comm.rank() / 2);
    EXPECT_EQ(mesh.replica(), comm.rank() % 2);
    EXPECT_EQ(mesh.data().rank(), mesh.replica());
    EXPECT_EQ(mesh.data().size(), 2);
    EXPECT_EQ(mesh.pipe().rank(), mesh.stage());
    EXPECT_EQ(mesh.pipe().size(), 3);
    EXPECT_EQ(mesh.is_first_stage(), mesh.stage() == 0);
    EXPECT_EQ(mesh.is_last_stage(), mesh.stage() == 2);
    EXPECT_FALSE(mesh.pipeline_crosses_modules());  // single-module machine

    double v = mesh.replica();
    mesh.data().allreduce(std::span<double>(&v, 1), ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(v, 1.0);  // replicas 0 + 1 of my stage
    double w = mesh.stage();
    mesh.pipe().allreduce(std::span<double>(&w, 1), ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(w, 3.0);  // stages 0 + 1 + 2 of my chain
  });
}

TEST(Mesh, RejectsIndivisibleWorld) {
  Runtime rt = make_runtime(5);
  std::atomic<int> threw{0};
  rt.run([&](Comm& comm) {
    try {
      Mesh mesh(comm, MeshOptions{.pipeline_stages = 2});
      (void)mesh;
    } catch (const std::invalid_argument&) {
      ++threw;
    }
  });
  EXPECT_EQ(threw.load(), 5);
}

TEST(Mesh, TopologyAwareCarvePlacesStagesAcrossModules) {
  // 2 Cluster ranks + 2 ESB ranks of the DEEP system: the topology-aware
  // carve must keep each stage's replicas inside one module and run the
  // pipeline axis across the module gateway (the MSA placement of Sec. III).
  const auto system = msa::core::make_deep_est();
  const auto& cm = system.module(msa::core::ModuleKind::Cluster);
  const auto& esb = system.module(msa::core::ModuleKind::ExtremeScaleBooster);
  Runtime rt(msa::core::build_machine(
      system, {{.module = &cm, .ranks = 2}, {.module = &esb, .ranks = 2}}));
  rt.run([&](Comm& comm) {
    Mesh mesh(comm, MeshOptions{.pipeline_stages = 2, .topology_aware = true});
    const int module = comm.machine().location(comm.world_rank()).module;
    EXPECT_EQ(mesh.stage(), module);
    EXPECT_EQ(mesh.data().size(), 2);
    EXPECT_TRUE(mesh.pipeline_crosses_modules());
  });
}

TEST(Mesh, CallerSplitAfterCarveGetsAFreshId) {
  // The carve advances the caller's split sequence, so a split the caller
  // makes afterwards can never be handed a mesh communicator's id.
  Runtime rt = make_runtime(4);
  std::mutex m;
  std::vector<std::uint64_t> mesh_ids;
  std::vector<std::uint64_t> later_ids;
  rt.run([&](Comm& comm) {
    Mesh mesh(comm, MeshOptions{.pipeline_stages = 2, .topology_aware = false});
    const Comm later = comm.split(0, comm.rank());
    std::lock_guard lock(m);
    mesh_ids.push_back(mesh.data().id());
    mesh_ids.push_back(mesh.pipe().id());
    later_ids.push_back(later.id());
  });
  for (const std::uint64_t id : later_ids) {
    EXPECT_EQ(std::count(mesh_ids.begin(), mesh_ids.end(), id), 0)
        << "split after the carve reused mesh communicator id " << id;
  }
}

TEST(Mesh, OneStageEngineCostsNothing) {
  // Plain data parallelism is the one-stage mesh, and every rank knows that
  // grid already: building it, the engine over it and a DistributedTrainer
  // sends no byte, charges no sim time and records no Comm span.
  msa::obs::Tracer::instance().set_enabled(true);
  msa::obs::Tracer::instance().clear();
  Runtime rt = make_runtime(4);
  rt.run([&](Comm& comm) {
    Mesh mesh(comm, MeshOptions{.pipeline_stages = 1});
    EXPECT_EQ(mesh.data().size(), 4);
    EXPECT_EQ(mesh.data().rank(), comm.rank());
    EXPECT_EQ(mesh.pipe().size(), 1);
    EXPECT_EQ(mesh.replica(), comm.rank());
    EXPECT_NE(mesh.data().id(), comm.id());
    EXPECT_NE(mesh.pipe().id(), mesh.data().id());
    auto model = small_mlp();
    msa::nn::Sgd opt(0.1);
    PipelineStage stage(mesh, *model, opt);
    EXPECT_NE(stage.reducer(), nullptr);
    auto other = small_mlp();
    msa::nn::Sgd other_opt(0.1);
    msa::dist::DistributedTrainer trainer(comm, *other, other_opt);
    EXPECT_NE(trainer.reducer(), nullptr);
  });
  for (const std::uint64_t b : rt.bytes_sent()) EXPECT_EQ(b, 0u);
  for (const double t : rt.sim_times()) EXPECT_EQ(t, 0.0);
  for (const auto& span : msa::obs::Tracer::instance().snapshot()) {
    EXPECT_NE(span.cat, msa::obs::Category::Comm) << span.name;
  }
  msa::obs::Tracer::instance().clear();
}

// ---- hybrid DP x PP bit-identity --------------------------------------------

struct HybridRun {
  std::vector<float> params;  ///< replica-0 chain, stage order
  float loss = 0.0f;
};

/// Train a [2 stages x 2 replicas] hybrid for @p steps over per-replica
/// microbatches; asserts replica consistency and returns the merged params.
HybridRun run_hybrid_2x2(
    const std::array<std::vector<Tensor>, 2>& micro_x,
    const std::array<std::vector<std::vector<std::int32_t>>, 2>& micro_y,
    int steps) {
  HybridRun out;
  std::mutex m;
  std::array<std::vector<float>, 4> per_rank;
  Runtime rt = make_runtime(4);
  rt.run([&](Comm& comm) {
    auto stages = msa::dist::partition_model(small_mlp(), 2);
    Mesh mesh(comm, MeshOptions{.pipeline_stages = 2, .topology_aware = false});
    msa::nn::Sgd opt(0.1, 0.9);
    PipelineStage stage(mesh, *stages[static_cast<std::size_t>(mesh.stage())],
                        opt);
    const auto r = static_cast<std::size_t>(mesh.replica());
    float loss = 0.0f;
    for (int s = 0; s < steps; ++s) {
      loss = stage.step_classification(micro_x[r], micro_y[r]).loss;
    }
    std::lock_guard lock(m);
    if (comm.rank() == 0) out.loss = loss;
    auto slab = stage.param_store().param_span();
    per_rank[static_cast<std::size_t>(comm.rank())].assign(slab.begin(),
                                                           slab.end());
  });
  // With rank-order carving ranks {0,1} are stage 0's replicas and {2,3}
  // stage 1's: data-parallel replicas of one stage must agree bit for bit.
  EXPECT_EQ(per_rank[0], per_rank[1]);
  EXPECT_EQ(per_rank[2], per_rank[3]);
  out.params = per_rank[0];
  out.params.insert(out.params.end(), per_rank[2].begin(), per_rank[2].end());
  return out;
}

TEST(Hybrid, MatchesSerialGradientAccumulationAcrossThreadCounts) {
  // True hybrid DP x PP (2 stages x 2 replicas, 3 microbatches each) must
  // reproduce single-process training where each replica's microbatch
  // gradients accumulate serially and the replica sums are averaged — and it
  // must do so bit-identically whether the kernel pool runs 1 or 8 threads.
  constexpr int kMicro = 3;
  constexpr int kSteps = 3;
  Rng data_rng(61);
  std::array<std::vector<Tensor>, 2> micro_x;
  std::array<std::vector<std::vector<std::int32_t>>, 2> micro_y;
  for (auto r = 0u; r < 2; ++r) {
    for (int mb = 0; mb < kMicro; ++mb) {
      micro_x[r].push_back(Tensor::randn({4, 6}, data_rng));
      std::vector<std::int32_t> y(4);
      for (auto& v : y) {
        v = static_cast<std::int32_t>(data_rng.uniform_index(3));
      }
      micro_y[r].push_back(y);
    }
  }

  // Serial reference: per-replica gradient accumulation, replica average.
  auto ref = small_mlp();
  ParamStore ref_store(*ref);
  msa::nn::Sgd ref_opt(0.1, 0.9);
  ref_store.attach_optimizer(ref_opt);
  float ref_loss = 0.0f;
  for (int s = 0; s < kSteps; ++s) {
    std::array<std::vector<float>, 2> acc;
    std::array<float, 2> replica_loss{};
    for (auto r = 0u; r < 2; ++r) {
      ref_store.zero_grads();
      float loss_sum = 0.0f;
      for (int mb = 0; mb < kMicro; ++mb) {
        Tensor logits =
            ref->forward(micro_x[r][static_cast<std::size_t>(mb)], true);
        auto res = msa::nn::softmax_cross_entropy(
            logits, micro_y[r][static_cast<std::size_t>(mb)]);
        res.grad.scale_(1.0f / kMicro);
        loss_sum += res.loss;
        ref->backward(res.grad);
      }
      replica_loss[r] = loss_sum / kMicro;
      for (auto* g : ref->grads()) {
        acc[r].insert(acc[r].end(), g->data(), g->data() + g->numel());
      }
    }
    ref_loss = (replica_loss[0] + replica_loss[1]) * 0.5f;
    std::size_t at = 0;
    for (auto* g : ref->grads()) {
      for (std::size_t j = 0; j < g->numel(); ++j, ++at) {
        (*g)[j] = (acc[0][at] + acc[1][at]) * 0.5f;
      }
    }
    ref_store.step(ref_opt);
  }
  const std::vector<float> ref_params = flatten_params(*ref);

  const std::size_t before = msa::par::num_threads();
  msa::par::set_num_threads(1);
  const HybridRun serial = run_hybrid_2x2(micro_x, micro_y, kSteps);
  msa::par::set_num_threads(8);
  const HybridRun threaded = run_hybrid_2x2(micro_x, micro_y, kSteps);
  msa::par::set_num_threads(before);

  // Thread-count invariance is exact.
  ASSERT_EQ(serial.params.size(), threaded.params.size());
  for (std::size_t i = 0; i < serial.params.size(); ++i) {
    ASSERT_EQ(serial.params[i], threaded.params[i]) << "param " << i;
  }
  EXPECT_EQ(serial.loss, threaded.loss);

  // And the hybrid matches the single-process reference.
  ASSERT_EQ(serial.params.size(), ref_params.size());
  for (std::size_t i = 0; i < ref_params.size(); ++i) {
    ASSERT_NEAR(serial.params[i], ref_params[i], 1e-5f) << "param " << i;
  }
  EXPECT_NEAR(serial.loss, ref_loss, 1e-5f);
}

// ---- data-axis reduction options on a pipeline stage ------------------------

struct DataAxisRun {
  std::array<std::vector<float>, 8> params;  ///< per rank: its stage's slab
  std::uint64_t bytes = 0;                   ///< bytes sent, summed over ranks
};

/// Train a [2 stages x 4 replicas] mesh for 3 steps of 3 microbatches with
/// @p options on the data axis.  The rank-order carve gives each stage four
/// replicas on two 2-device nodes, so a hierarchical split is live.
DataAxisRun run_pipeline_2x4(const AllreduceOptions& options) {
  constexpr int kMicro = 3;
  constexpr int kSteps = 3;
  DataAxisRun out;
  std::mutex m;
  Runtime rt = make_runtime(8, /*per_node=*/2);
  rt.run([&](Comm& comm) {
    auto stages = msa::dist::partition_model(small_mlp(), 2);
    Mesh mesh(comm, MeshOptions{.pipeline_stages = 2, .topology_aware = false});
    msa::nn::Sgd opt(0.1, 0.9);
    PipelineStage stage(mesh, *stages[static_cast<std::size_t>(mesh.stage())],
                        opt, options);
    // Every stage of one replica chain draws the same microbatches.
    Rng data_rng(70u + static_cast<unsigned>(mesh.replica()));
    std::vector<Tensor> xs;
    std::vector<std::vector<std::int32_t>> ys;
    for (int mb = 0; mb < kMicro; ++mb) {
      xs.push_back(Tensor::randn({4, 6}, data_rng));
      std::vector<std::int32_t> y(4);
      for (auto& v : y) {
        v = static_cast<std::int32_t>(data_rng.uniform_index(3));
      }
      ys.push_back(y);
    }
    for (int s = 0; s < kSteps; ++s) stage.step_classification(xs, ys);
    auto slab = stage.param_store().param_span();
    std::lock_guard lock(m);
    out.params[static_cast<std::size_t>(comm.rank())].assign(slab.begin(),
                                                             slab.end());
  });
  for (std::uint64_t b : rt.bytes_sent()) out.bytes += b;
  return out;
}

TEST(HybridPipeline, OverlappedDataAxisMatchesSyncForEveryOption) {
  // The pipeline's data-axis reduction must give the same parameters and
  // the same wire traffic whether its buckets go out during the final
  // backward (overlap) or blocking after it, under every fp16 x hierarchy
  // combination.
  for (const bool hier : {false, true}) {
    for (const bool fp16 : {false, true}) {
      AllreduceOptions sync;
      sync.bucket_bytes = 64;  // 16 floats: buckets straddle every tensor
      sync.hierarchical = hier;
      sync.fp16_compression = fp16;
      AllreduceOptions overlapped = sync;
      overlapped.overlap = true;
      const DataAxisRun a = run_pipeline_2x4(sync);
      const DataAxisRun b = run_pipeline_2x4(overlapped);
      EXPECT_EQ(a.bytes, b.bytes) << "hier=" << hier << " fp16=" << fp16;
      for (std::size_t r = 0; r < a.params.size(); ++r) {
        ASSERT_FALSE(a.params[r].empty());
        ASSERT_EQ(a.params[r], b.params[r])
            << "rank " << r << " hier=" << hier << " fp16=" << fp16;
      }
    }
  }
}

// ---- ZeRO option combinations on the slab -----------------------------------

TEST(HybridZero, OptionCombosMatchPlainStep) {
  // The ZeRO step under overlap / hierarchical / fp16 must agree with the
  // plain blocking fp32 step: overlap changes only the engine routing
  // (bit-exact), hierarchy changes the reduction order (fp tolerance), fp16
  // quantises the wire (half the traffic, small bounded drift).
  constexpr int P = 4;
  Runtime rt = make_runtime(P, /*per_node=*/2);
  rt.run([&](Comm& comm) {
    auto ref_model = small_mlp();
    ParamStore s_ref(*ref_model);
    ZeroOptimizer ref_opt(comm, std::make_unique<msa::nn::Adam>(1e-2));

    auto m_overlap = small_mlp();
    ParamStore s_overlap(*m_overlap);
    AllreduceOptions o_overlap;
    o_overlap.overlap = true;
    ZeroOptimizer z_overlap(comm, std::make_unique<msa::nn::Adam>(1e-2),
                            o_overlap);

    auto m_hier = small_mlp();
    ParamStore s_hier(*m_hier);
    AllreduceOptions o_hier;
    o_hier.hierarchical = true;
    ZeroOptimizer z_hier(comm, std::make_unique<msa::nn::Adam>(1e-2), o_hier);

    auto m_fp16 = small_mlp();
    ParamStore s_fp16(*m_fp16);
    AllreduceOptions o_fp16;
    o_fp16.fp16_compression = true;
    ZeroOptimizer z_fp16(comm, std::make_unique<msa::nn::Adam>(1e-2), o_fp16);

    auto m_combo = small_mlp();
    ParamStore s_combo(*m_combo);
    AllreduceOptions o_combo;
    o_combo.fp16_compression = true;
    o_combo.hierarchical = true;
    o_combo.overlap = true;
    ZeroOptimizer z_combo(comm, std::make_unique<msa::nn::Adam>(1e-2),
                          o_combo);

    for (int s = 0; s < 3; ++s) {
      const int seed = comm.rank() + 10 * s;
      fill_grads(*ref_model, seed);
      fill_grads(*m_overlap, seed);
      fill_grads(*m_hier, seed);
      fill_grads(*m_fp16, seed);
      fill_grads(*m_combo, seed);
      ref_opt.step(s_ref);
      z_overlap.step(s_overlap);
      z_hier.step(s_hier);
      z_fp16.step(s_fp16);
      z_combo.step(s_combo);
    }

    const auto ref_params = flatten_params(*ref_model);
    const auto overlap_params = flatten_params(*m_overlap);
    const auto hier_params = flatten_params(*m_hier);
    const auto fp16_params = flatten_params(*m_fp16);
    const auto combo_params = flatten_params(*m_combo);
    ASSERT_EQ(overlap_params.size(), ref_params.size());
    for (std::size_t i = 0; i < ref_params.size(); ++i) {
      ASSERT_EQ(overlap_params[i], ref_params[i]) << "overlap param " << i;
      ASSERT_NEAR(hier_params[i], ref_params[i], 1e-4f) << "hier param " << i;
      ASSERT_NEAR(fp16_params[i], ref_params[i], 5e-3f) << "fp16 param " << i;
      ASSERT_NEAR(combo_params[i], ref_params[i], 5e-3f)
          << "fp16+hier param " << i;
    }

    // Sharding geometry and wire accounting.
    EXPECT_EQ(z_overlap.shard_elements() * P, z_overlap.padded_elements());
    EXPECT_LT(z_overlap.state_memory_fraction(), 1.0);
    EXPECT_EQ(z_overlap.bytes_reduced(),
              3ull * z_overlap.padded_elements() * sizeof(float));
    EXPECT_EQ(z_overlap.bytes_reduced(), z_overlap.bytes_gathered());
    EXPECT_GT(z_hier.bytes_reduced(), 0u);
    // binary16 halves both phases relative to the matching fp32 run.
    EXPECT_EQ(z_fp16.bytes_reduced() * 2, z_overlap.bytes_reduced());
    EXPECT_EQ(z_fp16.bytes_gathered() * 2, z_overlap.bytes_gathered());
    EXPECT_EQ(z_combo.bytes_reduced() * 2, z_hier.bytes_reduced());
    EXPECT_EQ(z_combo.bytes_gathered() * 2, z_hier.bytes_gathered());

    // All replicas hold identical parameters after each fp16 gather.
    for (const auto* params : {&fp16_params, &combo_params}) {
      double sum = 0.0;
      for (float v : *params) sum += v;
      double mx = sum, mn = sum;
      comm.allreduce(std::span<double>(&mx, 1), ReduceOp::Max);
      comm.allreduce(std::span<double>(&mn, 1), ReduceOp::Min);
      EXPECT_EQ(mx, mn);
    }
  });
}

// ---- elastic recovery of a mesh run -----------------------------------------

struct HybridOutcome {
  double mean_loss = 0.0;
  int stages_end = 0;
  ResilienceReport report;
};

/// Drive ResilientTrainer over a HybridStrategy ([2 x 2] mesh requested);
/// optionally arm @p plan.
HybridOutcome run_hybrid_resilient(int P, const FaultPlan& plan,
                                   int epochs = 3) {
  const std::size_t N = 64, features = 6, classes = 3;
  Rng data_rng(21);
  Tensor x = Tensor::randn({N, features}, data_rng);
  std::vector<std::int32_t> y(N);
  for (auto& v : y) {
    v = static_cast<std::int32_t>(data_rng.uniform_index(classes));
  }

  Runtime rt = make_runtime(P);
  FaultInjector::arm(rt, plan);
  HybridOutcome out;
  std::mutex m;
  rt.run([&](Comm& comm) {
    HybridOptions hopts;
    hopts.pipeline_stages = 2;
    hopts.microbatches = 4;
    hopts.topology_aware = false;
    ResilientTrainer trainer(
        comm, []() { return small_mlp(); },
        []() { return std::make_unique<msa::nn::Sgd>(0.1, 0.9); }, hopts,
        ResilientOptions{});
    auto result = trainer.train_classification(x, y, /*batch_size=*/4, epochs);
    if (trainer.comm().rank() == 0) {
      std::lock_guard lock(m);
      out.mean_loss = result.mean_loss;
      out.report = trainer.report();
      out.stages_end = trainer.strategy().current_stages();
    }
  });
  return out;
}

TEST(Hybrid, MeshRunSurvivesRankKillAndMatchesFaultFreeLoss) {
  constexpr int P = 4;
  const HybridOutcome clean = run_hybrid_resilient(P, FaultPlan{});
  EXPECT_EQ(clean.report.recoveries, 0);
  EXPECT_EQ(clean.report.final_world, P);
  EXPECT_EQ(clean.stages_end, 2);
  EXPECT_TRUE(std::isfinite(clean.mean_loss));

  // Kill a pipeline rank mid-run: the survivors shrink to 3 ranks, which
  // cannot host 2 stages, so the strategy re-partitions to [3 x 1] pure data
  // parallelism and finishes the run.
  FaultPlan plan;
  plan.kills.push_back({.world_rank = 2, .step = 5});
  const HybridOutcome faulted = run_hybrid_resilient(P, plan);

  EXPECT_GE(faulted.report.recoveries, 1);
  EXPECT_EQ(faulted.report.final_world, P - 1);
  ASSERT_EQ(faulted.report.dead_ranks.size(), 1u);
  EXPECT_EQ(faulted.report.dead_ranks[0], 2);
  EXPECT_EQ(faulted.stages_end, 1);
  EXPECT_GT(faulted.report.restore_time_s, 0.0);
  EXPECT_TRUE(std::isfinite(faulted.mean_loss));
  EXPECT_NEAR(faulted.mean_loss, clean.mean_loss, 0.35)
      << "faulted " << faulted.mean_loss << " clean " << clean.mean_loss;
}

TEST(Hybrid, MeshRunSurvivesTwoSequentialKills) {
  // Two ranks die at different steps of ONE run: the mesh re-partitions
  // twice ([2 x 2] -> [3 x 1] -> [1 x 2], two survivors host the requested
  // two stages again) and still matches the fault-free loss.  Exercises the
  // repeated shrink path: the second recovery derives from the original
  // world with the full dead set.
  constexpr int P = 4;
  const HybridOutcome clean = run_hybrid_resilient(P, FaultPlan{});

  FaultPlan plan;
  plan.kills.push_back({.world_rank = 2, .step = 5});
  plan.kills.push_back({.world_rank = 1, .step = 9});
  const HybridOutcome faulted = run_hybrid_resilient(P, plan);

  EXPECT_GE(faulted.report.recoveries, 2);
  EXPECT_EQ(faulted.report.final_world, P - 2);
  ASSERT_EQ(faulted.report.dead_ranks.size(), 2u);
  EXPECT_EQ(faulted.report.dead_ranks[0], 1);
  EXPECT_EQ(faulted.report.dead_ranks[1], 2);
  EXPECT_EQ(faulted.stages_end, 2);
  EXPECT_TRUE(std::isfinite(faulted.mean_loss));
  EXPECT_NEAR(faulted.mean_loss, clean.mean_loss, 0.5)
      << "faulted " << faulted.mean_loss << " clean " << clean.mean_loss;
}

// ---- obs attribution of the pipeline ----------------------------------------

TEST(HybridObs, PipelineStepAttributesHiddenCommAndBubbles) {
  // The deferred activation/gradient stream must surface as *hidden* comm
  // (transfers replayed under the intervening microbatch compute) and the
  // structural 1F1B stalls as PipeBubble time.
  msa::obs::Tracer::instance().set_enabled(true);
  msa::obs::Tracer::instance().clear();

  Rng data_rng(91);
  std::vector<Tensor> micro_x;
  std::vector<std::vector<std::int32_t>> micro_y;
  for (int mb = 0; mb < 4; ++mb) {
    micro_x.push_back(Tensor::randn({8, 6}, data_rng));
    std::vector<std::int32_t> y(8);
    for (auto& v : y) v = static_cast<std::int32_t>(data_rng.uniform_index(3));
    micro_y.push_back(y);
  }

  Runtime rt = make_runtime(2);
  rt.run([&](Comm& comm) {
    Rng rng(9);
    auto model = msa::nn::make_mlp(6, {16, 12}, 3, rng);
    auto stages = msa::dist::partition_model(std::move(model), 2);
    msa::nn::Sgd opt(0.05);
    PipelineStage stage(
        Mesh(comm, MeshOptions{.pipeline_stages = 2, .topology_aware = false}),
        *stages[static_cast<std::size_t>(comm.rank())], opt);
    for (int s = 0; s < 2; ++s) {
      (void)stage.step_classification(micro_x, micro_y);
    }
  });

  const auto report = msa::obs::Report::from_tracer();
  EXPECT_GT(report.aggregate().comm_s, 0.0);
  EXPECT_GT(report.aggregate().comm_hidden_s, 0.0)
      << "activation prefetch never hid behind microbatch compute";
  EXPECT_GT(report.aggregate().bubble_s, 0.0)
      << "1F1B warmup/cooldown stalls not attributed";
  msa::obs::Tracer::instance().clear();
}

TEST(HybridPipeline, BackwardIsChargedBeforeTheGradientLeaves) {
  // A stage charges its backward before it sends the upstream gradient, so
  // the previous stage cannot receive it — and so cannot finish its own
  // backward — before the downstream forward and backward have run.  On a
  // [2 x 1] mesh of 1 GFLOP/s devices, stage 0 ends no earlier than its own
  // forward and backward plus stage 1's, back to back.
  msa::simnet::ComputeProfile gflop;
  gflop.peak_flops = 1e9;
  gflop.efficiency = 1.0;
  Runtime rt(Machine::homogeneous(2, 2, test_config(), gflop));
  Rng data_rng(5);
  const std::vector<Tensor> xs = {Tensor::randn({128, 32}, data_rng)};
  std::vector<std::vector<std::int32_t>> ys(1, std::vector<std::int32_t>(128));
  for (auto& v : ys[0]) {
    v = static_cast<std::int32_t>(data_rng.uniform_index(4));
  }
  std::array<double, 2> fwd_flops{};
  std::array<double, 2> end_s{};
  rt.run([&](Comm& comm) {
    Rng rng(3);
    auto stages = msa::dist::partition_model(
        msa::nn::make_mlp(32, {8, 2048, 2048}, 4, rng), 2);
    const auto r = static_cast<std::size_t>(comm.rank());
    msa::nn::Sgd opt(0.01);
    PipelineStage stage(
        Mesh(comm, MeshOptions{.pipeline_stages = 2, .topology_aware = false}),
        *stages[r], opt);
    (void)stage.step_classification(xs, ys);
    fwd_flops[r] = stage.stage().forward_flops();
    end_s[r] = comm.sim_now();
  });
  const auto t = [&](double flops) { return gflop.kernel_time(flops, 0.0); };
  const double compute_chain = t(fwd_flops[0]) + t(fwd_flops[1]) +
                               t(2.0 * fwd_flops[1]) + t(2.0 * fwd_flops[0]);
  ASSERT_GT(fwd_flops[1], 1e6);
  EXPECT_GE(end_s[0], compute_chain);
}

// ---- inference broadcast ----------------------------------------------------

TEST(HybridPipeline, InferenceBroadcastDeliversLogitsToEveryStage) {
  Rng data_rng(71);
  Tensor x = Tensor::randn({5, 6}, data_rng);
  Rng rng_ref(9);
  auto ref = msa::nn::make_mlp(6, {12, 8}, 4, rng_ref);
  Tensor y_ref = ref->forward(x, false);

  constexpr int P = 3;
  std::array<std::vector<float>, P> got;
  std::mutex m;
  Runtime rt = make_runtime(P);
  rt.run([&](Comm& comm) {
    Rng rng(9);
    auto model = msa::nn::make_mlp(6, {12, 8}, 4, rng);
    auto stages = msa::dist::partition_model(std::move(model), P);
    msa::nn::Sgd opt(0.1);
    PipelineStage stage(
        Mesh(comm, MeshOptions{.pipeline_stages = P, .topology_aware = false}),
        *stages[static_cast<std::size_t>(comm.rank())], opt);
    Tensor y = stage.forward_inference(x, /*broadcast_result=*/true);
    std::lock_guard lock(m);
    got[static_cast<std::size_t>(comm.rank())].assign(y.data(),
                                                      y.data() + y.numel());
  });

  for (int r = 0; r < P; ++r) {
    ASSERT_EQ(got[static_cast<std::size_t>(r)].size(), y_ref.numel())
        << "stage " << r << " did not receive the logits";
    for (std::size_t i = 0; i < y_ref.numel(); ++i) {
      ASSERT_NEAR(got[static_cast<std::size_t>(r)][i], y_ref.data()[i], 1e-6f)
          << "stage " << r << " logit " << i;
    }
  }
}

}  // namespace
