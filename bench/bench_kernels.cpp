// Microbenchmarks (google-benchmark) for the computational kernels under
// everything else: GEMM, im2col convolution, GRU steps, the message-passing
// collectives (real wall time), SMO iterations and annealer sweeps.
//
// These are host-wall-time numbers (not the simulated clock) — they justify
// the per-step costs the examples/benches pay and catch kernel regressions.
// Benchmarks with a rate counter whose work runs on pool or rank threads use
// UseRealTime(): a rate over the main thread's CPU time would be inflated.
#include <benchmark/benchmark.h>

#include "comm/runtime.hpp"
#include "data/synthetic.hpp"
#include "ml/svm.hpp"
#include "nn/conv.hpp"
#include "nn/gru.hpp"
#include "nn/models.hpp"
#include "quantum/qubo.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace msa;

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm(false, false, 1.0f, a, b, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      tensor::gemm_flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

// Skinny GEMMs from 8-row micro-batches through 512-wide Dense layers:
// forward (NN), input gradient (NT), weight gradient (TN, m = 512, k = 8),
// plus a narrower NN output.
void BM_GemmSkinny(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  const bool ta = state.range(3) != 0;
  const bool tb = state.range(4) != 0;
  tensor::Rng rng(13);
  tensor::Tensor a = tensor::Tensor::randn(ta ? tensor::Shape{k, m}
                                              : tensor::Shape{m, k},
                                           rng);
  tensor::Tensor b = tensor::Tensor::randn(tb ? tensor::Shape{n, k}
                                              : tensor::Shape{k, n},
                                           rng);
  tensor::Tensor c({m, n});
  for (auto _ : state) {
    tensor::gemm(ta, tb, 1.0f, a, b, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      tensor::gemm_flops(m, n, k) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmSkinny)
    ->ArgNames({"m", "n", "k", "ta", "tb"})
    ->Args({8, 512, 256, 0, 0})
    ->Args({8, 512, 256, 0, 1})
    ->Args({8, 512, 512, 0, 0})
    ->Args({8, 512, 512, 0, 1})
    ->Args({512, 512, 8, 1, 0})
    ->Args({8, 128, 256, 0, 0})
    ->UseRealTime();

void BM_Conv2DForward(benchmark::State& state) {
  tensor::Rng rng(2);
  nn::Conv2D conv(8, 16, 3, 1, 1, rng);
  tensor::Tensor x = tensor::Tensor::randn({4, 8, 16, 16}, rng);
  for (auto _ : state) {
    auto y = conv.forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2DForward)->UseRealTime();

void BM_Conv2DBackward(benchmark::State& state) {
  tensor::Rng rng(3);
  nn::Conv2D conv(8, 16, 3, 1, 1, rng);
  tensor::Tensor x = tensor::Tensor::randn({4, 8, 16, 16}, rng);
  auto y = conv.forward(x, true);
  tensor::Tensor g = tensor::Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    auto gx = conv.backward(g);
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_Conv2DBackward)->UseRealTime();

// One ResNet-lite forward plus backward (make_resnet_rs on 4-band 16 x 16
// patches, the model perfbench's train_dp and train_local run) at batch
// 16 (train_dp's micro-batch) and 64 (train_local's batch): every conv
// shape of that network, on the stride-1 shifted-plane path and the
// strided and 1 x 1 generic one.
void BM_ResNetLiteStep(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(14);
  auto net = nn::make_resnet_rs(4, 5, rng);
  tensor::Tensor x = tensor::Tensor::randn({batch, 4, 16, 16}, rng);
  for (auto _ : state) {
    auto y = net->forward(x, true);
    auto gx = net->backward(y);
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_ResNetLiteStep)->Arg(16)->Arg(64)->UseRealTime();

void BM_GruForwardBackward(benchmark::State& state) {
  tensor::Rng rng(4);
  nn::GRU gru(6, 32, rng);
  tensor::Tensor x = tensor::Tensor::randn({16, 24, 6}, rng);
  for (auto _ : state) {
    auto y = gru.forward(x, true);
    auto gx = gru.backward(y);
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_GruForwardBackward);

void BM_AllreduceWallTime(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t elems = 1 << 16;
  simnet::MachineConfig cfg;
  comm::Runtime rt(
      simnet::Machine::homogeneous(ranks, 2, cfg, simnet::ComputeProfile{}));
  for (auto _ : state) {
    rt.run([&](comm::Comm& comm) {
      std::vector<float> data(elems, 1.0f);
      comm.allreduce(std::span<float>(data), comm::ReduceOp::Sum,
                     simnet::CollectiveAlgorithm::Ring);
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(elems) * 4 * state.iterations() / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AllreduceWallTime)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_SmoTraining(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto problem = data::make_moons(n, 0.12, 9);
  ml::SvmConfig cfg;
  cfg.kernel = {ml::KernelKind::Rbf, 2.0};
  cfg.max_iterations = 500;
  for (auto _ : state) {
    auto model = ml::train_svm(problem, cfg);
    benchmark::DoNotOptimize(model.bias());
  }
}
BENCHMARK(BM_SmoTraining)->Arg(100)->Arg(200)->Arg(400);

void BM_AnnealerSweeps(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(10);
  quantum::Qubo q(n);
  for (std::size_t i = 0; i < n; ++i) {
    q.add_linear(i, rng.normal());
    for (std::size_t j = i + 1; j < n; ++j) {
      q.add_quadratic(i, j, rng.normal() * 0.1);
    }
  }
  quantum::AnnealConfig cfg;
  cfg.reads = 4;
  cfg.sweeps = 50;
  for (auto _ : state) {
    auto samples = quantum::simulated_anneal(q, cfg);
    benchmark::DoNotOptimize(samples.front().energy);
  }
}
BENCHMARK(BM_AnnealerSweeps)->Arg(32)->Arg(64)->Arg(128);

void BM_Transpose(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(12);
  tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    auto t = tensor::transpose(a);
    benchmark::DoNotOptimize(t.data());
  }
  state.counters["GB/s"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * static_cast<double>(n) * sizeof(float) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Transpose)->Arg(256)->Arg(1024)->UseRealTime();

void BM_Im2Col(benchmark::State& state) {
  tensor::Rng rng(11);
  tensor::Tensor x = tensor::Tensor::randn({8, 32, 32}, rng);
  std::vector<float> cols(8 * 9 * 32 * 32);
  for (auto _ : state) {
    tensor::im2col(x.data(), 8, 32, 32, 3, 3, 1, 1, cols.data(), 32 * 32);
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2Col);

}  // namespace

BENCHMARK_MAIN();
