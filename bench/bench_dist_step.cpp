// Microbenchmark (google-benchmark) for the data-parallel inner loop: one
// gradient-reducer step + flat Adam sweep on a ResNet-sized parameter set.
// Host wall time over the 4-rank simulated runtime; the rate counter is over
// real time, since the work runs on the rank threads, not the main thread.
// bench/run_kernels.sh records it in BENCH_kernels.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "comm/runtime.hpp"
#include "dist/distributed.hpp"
#include "nn/layers_basic.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"

namespace {

using namespace msa;

constexpr int kRanks = 4;

simnet::MachineConfig bench_config() {
  simnet::MachineConfig cfg;
  cfg.intra_node = {0.3e-6, 100e9, 0.1e-6};
  cfg.intra_module = {1.0e-6, 10e9, 0.3e-6};
  cfg.federation = {2.0e-6, 5e9, 0.5e-6};
  return cfg;
}

/// Dense stack with ~3*w^2 parameters: w=512 is a small CNN head (~0.8M),
/// w=1864 lands at ~10.4M — ResNet-18 territory.
std::unique_ptr<nn::Sequential> make_tower(std::size_t w, unsigned seed) {
  tensor::Rng rng(seed);
  auto model = std::make_unique<nn::Sequential>();
  for (int i = 0; i < 3; ++i) {
    model->emplace<nn::Dense>(w, w, rng);
    model->emplace<nn::ReLU>();
  }
  return model;
}

std::size_t param_count(nn::Layer& model) {
  std::size_t n = 0;
  for (nn::Tensor* p : model.params()) n += p->numel();
  return n;
}

void report(benchmark::State& state, std::size_t params) {
  state.counters["params"] = static_cast<double>(params);
  state.counters["grad GB/s"] = benchmark::Counter(
      static_cast<double>(params) * sizeof(float) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

/// Slab path: allreduce over grad-slab ranges in place + one flat Adam sweep.
void BM_DistStepSlab(benchmark::State& state) {
  const auto w = static_cast<std::size_t>(state.range(0));
  comm::Runtime rt(simnet::Machine::homogeneous(kRanks, 1, bench_config(),
                                                simnet::ComputeProfile{}));
  std::vector<std::unique_ptr<nn::Sequential>> models;
  std::vector<std::unique_ptr<nn::ParamStore>> stores;
  std::vector<std::unique_ptr<nn::Adam>> opts;
  for (int r = 0; r < kRanks; ++r) {
    models.push_back(make_tower(w, 7));
    stores.push_back(std::make_unique<nn::ParamStore>(*models.back()));
    opts.push_back(std::make_unique<nn::Adam>(1e-3));
    stores.back()->attach_optimizer(*opts.back());
    tensor::Rng rng(100u + static_cast<unsigned>(r));
    for (float& g : stores.back()->grad_span()) {
      g = static_cast<float>(rng.normal() * 0.01);
    }
  }
  for (auto _ : state) {
    rt.run([&](comm::Comm& comm) {
      auto& store = *stores[static_cast<std::size_t>(comm.rank())];
      dist::OverlappedReducer reducer(comm, store, {});
      reducer.begin_step();
      reducer.finish();
      store.step(*opts[static_cast<std::size_t>(comm.rank())]);
    });
  }
  report(state, param_count(*models[0]));
}
BENCHMARK(BM_DistStepSlab)
    ->Arg(512)
    ->Arg(1864)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
