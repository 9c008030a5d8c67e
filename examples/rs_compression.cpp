// Remote-sensing data compression with an autoencoder (paper Sec. III-B,
// Haut et al. [7]: "a cloud implementation of a DL network for non-linear RS
// data compression known as AutoEncoder"), plus the Spark-style pixel
// pipeline it feeds — here executed through the hpda engine and priced on
// the DEEP DAM.
#include <cstdio>

#include "core/module.hpp"
#include "data/synthetic.hpp"
#include "hpda/dataset.hpp"
#include "hpda/executor.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"

namespace {

using msa::nn::Tensor;

/// Flattens multispectral patches into per-pixel band vectors.
Tensor pixels_from(const msa::data::ImageDataset& ds) {
  const std::size_t N = ds.size(), C = ds.images.dim(1),
                    HW = ds.images.dim(2) * ds.images.dim(3);
  Tensor out({N * HW, C});
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t p = 0; p < HW; ++p) {
      for (std::size_t c = 0; c < C; ++c) {
        out.at2(i * HW + p, c) = ds.images.data()[(i * C + c) * HW + p];
      }
    }
  }
  return out;
}

double train_autoencoder(msa::nn::Sequential& ae, const Tensor& pixels,
                         std::size_t epochs) {
  msa::nn::Adam opt(1e-3);
  msa::nn::ParamStore store(ae);
  store.attach_optimizer(opt);
  const std::size_t n = pixels.dim(0), d = pixels.dim(1);
  const std::size_t batch = 64;
  double last = 0.0;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    double loss_sum = 0.0;
    std::size_t steps = 0;
    for (std::size_t at = 0; at + batch <= n; at += batch) {
      Tensor xb({batch, d});
      std::copy(pixels.data() + at * d, pixels.data() + (at + batch) * d,
                xb.data());
      store.zero_grads();
      Tensor recon = ae.forward(xb, true);
      auto res = msa::nn::mse_loss(recon, xb);
      ae.backward(res.grad);
      store.step(opt);
      loss_sum += res.loss;
      ++steps;
    }
    last = loss_sum / steps;
  }
  return last;
}

}  // namespace

int main() {
  using namespace msa;

  data::MultispectralConfig cfg;
  cfg.samples = 48;
  cfg.bands = 8;  // hyperspectral-ish
  cfg.patch = 12;
  cfg.classes = 4;
  const auto scene = data::make_multispectral(cfg);
  Tensor pixels = pixels_from(scene);

  std::printf("== RS data compression with an autoencoder (Haut et al. [7]) ==\n");
  std::printf("%zu pixels x %zu bands\n\n", pixels.dim(0), pixels.dim(1));

  // Baseline reconstruction error of the trivial "mean spectrum" codec.
  Tensor mean_spectrum({cfg.bands});
  for (std::size_t c = 0; c < cfg.bands; ++c) {
    double m = 0.0;
    for (std::size_t i = 0; i < pixels.dim(0); ++i) m += pixels.at2(i, c);
    mean_spectrum[c] = static_cast<float>(m / pixels.dim(0));
  }
  double base_mse = 0.0;
  for (std::size_t i = 0; i < pixels.dim(0); ++i) {
    for (std::size_t c = 0; c < cfg.bands; ++c) {
      const double d = pixels.at2(i, c) - mean_spectrum[c];
      base_mse += d * d;
    }
  }
  base_mse /= static_cast<double>(pixels.numel());

  std::printf("%12s %18s %14s %12s\n", "code size", "compression", "train MSE",
              "vs baseline");
  for (std::size_t code : {1, 2, 4}) {
    tensor::Rng rng(23);
    auto ae = nn::make_autoencoder(cfg.bands, code, rng);
    const double mse = train_autoencoder(*ae, pixels, 30);
    std::printf("%12zu %17.1fx %14.5f %11.1f%%\n", code,
                static_cast<double>(cfg.bands) / code, mse,
                100.0 * mse / base_mse);
  }

  // Spark-style pixel statistics pipeline through the hpda engine.
  std::printf("\n-- per-band statistics via the hpda (Spark-style) engine --\n");
  std::vector<std::pair<int, double>> rows;
  rows.reserve(pixels.dim(0) * cfg.bands);
  for (std::size_t i = 0; i < pixels.dim(0); ++i) {
    for (std::size_t c = 0; c < cfg.bands; ++c) {
      rows.emplace_back(static_cast<int>(c),
                        static_cast<double>(pixels.at2(i, c)));
    }
  }
  auto ds = hpda::Dataset<std::pair<int, double>>::from_vector(rows, 16);
  auto sums = ds.reduce_by_key([](const auto& r) { return r.first; },
                               [](const auto& r) { return r.second; },
                               [](double a, double b) { return a + b; });
  std::printf("band means: ");
  for (const auto& [band, sum] : sums.collect()) {
    std::printf("%.2f ", sum / static_cast<double>(pixels.dim(0)));
  }
  std::printf("\n");

  // Price the full-scale pipeline (a 500 GB hyperspectral cube) on the DAM.
  const auto deep = core::make_deep_est();
  const auto& dam = deep.module(core::ModuleKind::DataAnalytics);
  hpda::StageCost stage;
  stage.input_GB = 500.0;
  stage.working_set_GB = 500.0;
  stage.flops_per_byte = 2.0;  // AE encode per pixel
  const auto est = hpda::estimate_stage(stage, dam, 16, deep.storage());
  std::printf(
      "\nmodelled full-scale encode of a 500 GB cube on DAM x16: %.1f s "
      "(%s)\n",
      est.time_s, est.spilled ? "spilled" : "in memory");
  std::printf(
      "\nthe autoencoder recovers most of the spectral structure at 4-8x\n"
      "compression — the non-linear RS compression result of ref [7].\n");
  return 0;
}
