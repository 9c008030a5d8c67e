// Composable parallelism demo — the DeepSpeed-style axes of Sec. III-A,
// carved from one communicator with dist::Mesh and composed into hybrid
// DP x PP on a modular DEEP-EST allocation.
//
// A classifier too large for one device (pretend) is partitioned into 2
// pipeline stages; 3 data-parallel replicas of the chain train together.
// The mesh's topology-aware carve puts stage 0 on the Cluster and stage 1
// on the Extreme Scale Booster, so each replica chain crosses the module
// gateway exactly once: the heavy gradient allreduce stays on the fast
// intra-module fabrics and only the thin activation stream crosses modules.
// The run finishes with ZeRO-1 optimizer-state sharding on the ParamStore
// slab to show the third axis composes with the same substrate.
#include <cstdio>

#include "comm/runtime.hpp"
#include "core/machine_builder.hpp"
#include "core/module.hpp"
#include "data/synthetic.hpp"
#include "dist/mesh.hpp"
#include "dist/pipeline.hpp"
#include "dist/zero.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"

int main() {
  using namespace msa;

  const auto deep = core::make_deep_est();
  const auto& cluster = deep.module(core::ModuleKind::Cluster);
  const auto& esb = deep.module(core::ModuleKind::ExtremeScaleBooster);
  const int stages = 2, replicas = 3;

  const auto tab = data::make_tabular(512, 24, 4, 33);
  std::printf("== hybrid DP x PP: [%d stages x %d replicas] on Cluster+ESB ==\n",
              stages, replicas);

  comm::Runtime runtime(core::build_machine(
      deep, {{.module = &cluster, .ranks = replicas},
             {.module = &esb, .ranks = replicas}}));
  runtime.run([&](comm::Comm& comm) {
    // One collective call carves the 2-D grid: data() spans my stage's
    // replicas, pipe() spans my replica's stages.
    dist::Mesh mesh(comm, {.pipeline_stages = stages, .topology_aware = true});

    tensor::Rng rng(3);
    auto full = nn::make_mlp(24, {96, 96, 64}, 4, rng);
    if (comm.rank() == 0) {
      std::printf("full model: %zu parameters, split into %d stages\n",
                  nn::parameter_count(*full), stages);
    }
    auto parts = dist::partition_model(std::move(full), stages);
    nn::Sequential& mine = *parts[static_cast<std::size_t>(mesh.stage())];
    const std::size_t my_params = nn::parameter_count(mine);

    // The stage's gradients ride the same reduction machinery as plain data
    // parallelism — here with fp16 wire compression on the data axis.
    dist::AllreduceOptions opts;
    opts.fp16_compression = true;
    nn::Sgd opt(0.05, 0.9);
    dist::PipelineStage stage(mesh, mine, opt, opts);
    std::printf(
        "  rank %d -> grid (stage %d, replica %d), %zu parameters%s\n",
        comm.rank(), mesh.stage(), mesh.replica(), my_params,
        mesh.pipeline_crosses_modules() ? ", chain crosses modules" : "");

    // Train with 4 microbatches of 8 per step; each replica takes its own
    // shard of the batch stream, so the effective batch is 3x the legacy
    // pure-pipeline run.
    const std::size_t micro = 8, micros = 4;
    float loss = 0.0f;
    for (int step = 0; step < 40; ++step) {
      std::vector<nn::Tensor> xs;
      std::vector<std::vector<std::int32_t>> ys;
      for (std::size_t m = 0; m < micros; ++m) {
        const std::size_t at =
            ((static_cast<std::size_t>(step) * static_cast<std::size_t>(
                                                   mesh.replicas()) +
              static_cast<std::size_t>(mesh.replica())) *
                 micros +
             m) *
            micro % (tab.y.size() - micro);
        nn::Tensor x({micro, 24});
        std::vector<std::int32_t> y(micro);
        for (std::size_t i = 0; i < micro; ++i) {
          for (std::size_t j = 0; j < 24; ++j) {
            x.at2(i, j) = tab.x.at2(at + i, j);
          }
          y[i] = tab.y[at + i];
        }
        xs.push_back(std::move(x));
        ys.push_back(std::move(y));
      }
      loss = stage.step_classification(xs, ys).loss;
      if (comm.rank() == 0 && step % 10 == 9) {
        std::printf("step %2d  loss %.4f  (modelled t=%.2f ms)\n", step, loss,
                    comm.sim_now() * 1e3);
      }
    }
  });
  std::printf("hybrid makespan (modelled): %.2f ms\n\n",
              runtime.max_sim_time() * 1e3);

  // ZeRO-1 on the data-parallel axis, driven through the same ParamStore
  // slab the pipeline trains on: optimizer state shrinks 1/P.
  std::printf("== ZeRO-1 optimizer state sharding (DeepSpeed axis 2) ==\n");
  std::printf("%8s %26s\n", "ranks", "optimizer state / replica");
  for (int P : {1, 2, 4, 8}) {
    comm::Runtime rt(core::build_machine(deep, esb, P));
    rt.run([&](comm::Comm& comm) {
      tensor::Rng rng(3);
      auto model = nn::make_mlp(24, {96, 96, 64}, 4, rng);
      nn::ParamStore store(*model);
      dist::ZeroOptimizer opt(comm, std::make_unique<nn::Adam>(1e-3));
      model->zero_grads();
      opt.step(store);
      if (comm.rank() == 0) {
        std::printf("%8d %24.1f%%\n", comm.size(),
                    100.0 * opt.state_memory_fraction());
      }
    });
  }
  std::printf("\nall three parallelism axes compose on the MSA modules: the\n");
  std::printf("mesh keeps data parallelism inside a module, pipeline stages\n");
  std::printf("span the module gateway, and ZeRO keeps optimizer memory flat\n");
  std::printf("as replicas multiply — all on one slab + request substrate.\n");
  return 0;
}
