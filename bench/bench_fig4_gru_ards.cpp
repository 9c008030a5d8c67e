// E9 — Fig. 4 (A), Sec. IV-B: ARDS time-series missing-value prediction.
//
// The exact paper recipe — 2x GRU(32), dropout 0.2, MAE loss, Adam 1e-4 —
// against the 1-D CNN the section also highlights and a mean-imputation
// baseline, swept over missingness rates; plus the modelled training-time
// comparison between the DEEP DAM (where the study started) and JUWELS
// (where it moved), reproducing "both worked fine ... for parallel and
// scalable time-series analysis".
#include <chrono>
#include <cstdio>

#include "core/machine_builder.hpp"
#include "core/module.hpp"
#include "data/synthetic.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"

namespace {

using namespace msa;
using nn::Tensor;

double train_eval(nn::Sequential& model, const data::IcuDataset& train,
                  const data::IcuDataset& test, double lr,
                  std::size_t epochs) {
  nn::Adam opt(lr);
  nn::ParamStore store(model);
  store.attach_optimizer(opt);
  const std::size_t n = train.windows.dim(0);
  const std::size_t batch = 16;
  const std::size_t stride = train.windows.dim(1) * train.windows.dim(2);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    for (std::size_t at = 0; at + batch <= n; at += batch) {
      Tensor xb({batch, train.windows.dim(1), train.windows.dim(2)});
      Tensor yb({batch, 1});
      std::copy(train.windows.data() + at * stride,
                train.windows.data() + (at + batch) * stride, xb.data());
      std::copy(train.targets.data() + at, train.targets.data() + at + batch,
                yb.data());
      store.zero_grads();
      Tensor pred = model.forward(xb, true);
      auto res = nn::mae_loss(pred, yb);
      model.backward(res.grad);
      store.step(opt);
    }
  }
  Tensor pred = model.forward(test.windows, false);
  return nn::mae_loss(pred, test.targets).loss;
}

double baseline_mae(const data::IcuDataset& train,
                    const data::IcuDataset& test) {
  double mean = 0.0;
  for (std::size_t i = 0; i < train.num_windows(); ++i) {
    mean += train.targets.at2(i, 0);
  }
  mean /= static_cast<double>(train.num_windows());
  double mae = 0.0;
  for (std::size_t i = 0; i < test.num_windows(); ++i) {
    mae += std::fabs(test.targets.at2(i, 0) - mean);
  }
  return mae / static_cast<double>(test.num_windows());
}

}  // namespace

int main() {
  std::printf("=== E9: ARDS GRU imputation (Sec. IV-B recipe) ===\n\n");

  std::printf("--- test MAE vs missingness rate ---\n");
  std::printf("%10s %14s %10s %10s %10s\n", "missing", "mean-impute",
              "1D-CNN", "GRU 2x32", "LSTM 2x32");
  for (double missing : {0.1, 0.2, 0.3}) {
    data::IcuConfig cfg;
    cfg.patients = 40;
    cfg.series_len = 64;
    cfg.window = 16;
    cfg.features = 5;
    cfg.missing_rate = missing;
    const auto train_ds = data::make_icu_timeseries(cfg);
    cfg.seed = 91;
    const auto test_ds = data::make_icu_timeseries(cfg);
    const std::size_t in_f = cfg.features + 1;

    tensor::Rng rng(17);
    auto gru = nn::make_ards_gru(in_f, rng);
    auto cnn = nn::make_ards_cnn1d(in_f, cfg.window, rng);
    auto lstm = nn::make_ards_lstm(in_f, rng);
    const double gru_mae = train_eval(*gru, train_ds, test_ds, 1e-4, 12);
    const double cnn_mae = train_eval(*cnn, train_ds, test_ds, 1e-3, 12);
    const double lstm_mae = train_eval(*lstm, train_ds, test_ds, 1e-4, 12);
    std::printf("%9.0f%% %14.4f %10.4f %10.4f %10.4f\n", missing * 100,
                baseline_mae(train_ds, test_ds), cnn_mae, gru_mae, lstm_mae);
  }

  // ---- modelled training-time venue comparison ------------------------------
  std::printf("\n--- modelled epoch time, GRU 2x32 (single device) ---\n");
  const core::MsaSystem deep = core::make_deep_est();
  const core::MsaSystem juwels = core::make_juwels();
  struct Venue {
    const char* label;
    msa::simnet::ComputeProfile profile;
  };
  const Venue venues[] = {
      {"DEEP DAM (V100)",
       deep.module(core::ModuleKind::DataAnalytics)
           .node.device_profile(true)},
      {"JUWELS Booster (A100)",
       juwels.module(core::ModuleKind::Booster).node.device_profile(true)},
      {"JUWELS Cluster (Xeon)",
       juwels.module(core::ModuleKind::Cluster).node.device_profile(true)},
  };
  // GRU epoch flops: per batch = T * (gemm(B,3H,F) + gemm(B,3H,H)) * 3 (fwd+bwd).
  const double T = 16, B = 16, H = 32, F = 6;
  const double steps = 150.0 / B * 40;  // windows per epoch
  const double flops = steps * 3.0 * T * 2.0 * B * 3 * H * (F + H);
  std::printf("%-26s %14s\n", "venue", "epoch [ms]");
  for (const auto& v : venues) {
    std::printf("%-26s %14.3f\n", v.label,
                v.profile.kernel_time(flops, flops / 2.0) * 1e3);
  }

  std::printf(
      "\npaper shape: GRU (and 1-D CNN) clearly beat naive imputation across\n"
      "missingness levels; both the DAM and JUWELS venues handle the training\n"
      "comfortably, with the GPU modules far ahead of CPU-only execution.\n");
  return 0;
}
