// E4/E12 — Fig. 3 (mid/bottom right), refs [18][20]: distributed ResNet-50
// training for BigEarthNet land-cover classification, 1 to 128 GPUs.
//
// Reproduces the paper's two claims:
//   1. near-linear speed-up of training time up to 96 GPUs (initial study)
//      and 128 GPUs (Sedona et al. [20]);
//   2. no accuracy loss at scale with the large-batch recipe.
//
// Methodology (dual clock, DESIGN.md): the *performance* numbers price the
// real ResNet-50 workload — 25.6 M parameters (102 MB fp32 gradients),
// ~3.9 GFLOP forward per image, per-GPU batch 64 — on the calibrated JUWELS
// Booster machine, with the production stack's optimisations modelled
// explicitly (hierarchical NVLink+IB allreduce, fp16 gradient compression,
// communication/backward overlap).  The *numerics* (accuracy section) train
// a real scaled-down residual network through the same collectives.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "core/machine_builder.hpp"
#include "core/module.hpp"
#include "data/synthetic.hpp"
#include "dist/distributed.hpp"
#include "dist/sync_batchnorm.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/schedule.hpp"
#include "obs/critpath.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace {

using namespace msa;

// ---- ResNet-50 / BigEarthNet workload constants (documented in
// EXPERIMENTS.md) -------------------------------------------------------------
constexpr double kParams = 25.6e6;             // ResNet-50 parameters
constexpr double kGradBytesFp32 = kParams * 4; // 102.4 MB per step
constexpr double kFwdFlopsPerImage = 3.9e9;    // 224x224 equivalent
constexpr int kPerGpuBatch = 64;
constexpr std::size_t kTrainImages = 270'000;  // BigEarthNet train split scale

struct StackOptions {
  bool hierarchical = true;  // NVLink intra-node stage + IB ring across nodes
  bool fp16 = true;          // gradient compression
  bool overlap = true;       // allreduce overlapped with backward pass
  std::size_t bucket_bytes = 4u << 20;  // Horovod fusion-buffer size
  simnet::CollectiveAlgorithm inter_node_alg = simnet::CollectiveAlgorithm::Ring;
};

struct StepModel {
  double step_time_s = 0.0;
  double images_per_s = 0.0;
  double total_time_s = 0.0;  ///< makespan of the whole priced run
};

/// Price `steps` optimiser steps of ResNet-50 training on `gpus` devices.
StepModel model_training(const core::MsaSystem& system,
                         const core::Module& module, int gpus,
                         const StackOptions& opts, int steps = 3) {
  comm::Runtime runtime(core::build_machine(system, module, gpus));
  runtime.run([&](comm::Comm& comm) {
    // Sub-communicators for the hierarchical allreduce: ranks of one node,
    // and same-index devices across all nodes (the cross-node partners of
    // each chunk owner — see dist::hierarchical_allreduce).
    const auto& loc = comm.machine().location(comm.world_rank());
    comm::Comm node_comm = comm.split(loc.node, loc.device);
    comm::Comm cross_comm = comm.split(loc.device, loc.node);
    // The hierarchy decision must be uniform across ranks (SPMD): use the
    // machine topology, not this rank's sub-communicator sizes.
    const bool multi_node =
        comm.machine().location(comm.size() - 1).node !=
        comm.machine().location(0).node;
    const bool multi_dev =
        comm.size() > 1 &&
        comm.machine().location(1).node == comm.machine().location(0).node;
    const bool hierarchical = opts.hierarchical && multi_node && multi_dev;

    const double grad_bytes = opts.fp16 ? kGradBytesFp32 / 2 : kGradBytesFp32;
    const int n_buckets = std::max(
        1, static_cast<int>((grad_bytes + static_cast<double>(opts.bucket_bytes) - 1) /
                            static_cast<double>(opts.bucket_bytes)));
    const double fwd = kFwdFlopsPerImage * kPerGpuBatch;
    const auto alg = opts.inter_node_alg;
    for (int s = 0; s < steps; ++s) {
      // Forward compute, then the backward pass interleaved with per-bucket
      // nonblocking reductions: each fusion bucket's gradients become final
      // partway through backward and its collective is issued right there.
      // Overlap is not an analytic credit — it emerges from the progress
      // engine draining the in-flight buckets against the compute timeline
      // (exposed remainder only; in-flight buckets serialize on the NIC).
      comm.charge_compute(fwd, 0.0);
      std::vector<comm::Request> reqs;
      reqs.reserve(static_cast<std::size_t>(n_buckets));
      for (int b = 0; b < n_buckets; ++b) {
        comm.charge_compute(2.0 * fwd / n_buckets, 0.0);
        const auto bytes =
            static_cast<std::uint64_t>(grad_bytes / n_buckets);
        if (hierarchical) {
          // The chunked two-level composition dist::hierarchical_allreduce
          // implements: intra-node reduce-scatter over NVLink (~ half a ring
          // allreduce), every device reduces its owned 1/P_node chunk with
          // its same-index peers across nodes (all NICs active, fabric
          // traffic cut by the node fan-in), intra-node allgather back.
          reqs.push_back(comm.idefer(
              bytes,
              [nc = node_comm, xc = cross_comm, bytes, alg]() mutable {
                const std::uint64_t half = bytes / 2;
                const std::uint64_t chunk =
                    bytes / static_cast<std::uint64_t>(nc.size());
                // ~ reduce-scatter phase, cross-node reduce, ~ allgather
                nc.charge_allreduce(half, simnet::CollectiveAlgorithm::Ring);
                xc.charge_allreduce(chunk, alg);
                nc.charge_allreduce(half, simnet::CollectiveAlgorithm::Ring);
              }));
        } else {
          reqs.push_back(comm.icharge_allreduce(bytes, alg));
        }
        // Ablation: overlap off = drain each bucket before the next compute
        // slice, so the full collective cost is exposed.  Same code path,
        // same reductions — only the wait placement moves.
        if (!opts.overlap) reqs.back().wait();
      }
      if (opts.overlap) comm::wait_all(reqs);
      comm.barrier();
    }
  });
  StepModel m;
  m.total_time_s = runtime.max_sim_time();
  m.step_time_s = m.total_time_s / steps;
  m.images_per_s = gpus * kPerGpuBatch / m.step_time_s;
  return m;
}

struct ScalingRow {
  int gpus = 0;
  StepModel model;
  obs::Attribution attr;  // aggregate over ranks, from obs::Report
  obs::critpath::Analysis path;  // critical path of the same run's spans
};

data::ImageDataset rs_dataset(std::size_t samples, std::uint64_t seed) {
  data::MultispectralConfig cfg;
  cfg.samples = samples;
  cfg.bands = 4;
  cfg.patch = 10;
  cfg.classes = 5;
  cfg.seed = seed;
  return data::make_multispectral(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_resnet_scaling.json";
  const core::MsaSystem juwels = core::make_juwels();
  const core::Module& booster = juwels.module(core::ModuleKind::Booster);
  const core::MsaSystem deep = core::make_deep_est();
  const core::Module& esb = deep.module(core::ModuleKind::ExtremeScaleBooster);

  std::printf("=== E4: ResNet-50 distributed training scaling (Fig. 3, [18][20]) ===\n");
  std::printf("workload: ResNet-50 (25.6M params), per-GPU batch %d, BigEarthNet-scale\n",
              kPerGpuBatch);
  std::printf("machine: JUWELS Booster (4x A100/node, NVLink3 + IB HDR-200)\n");
  std::printf("stack: hierarchical allreduce + fp16 compression + comm/backward overlap\n\n");

  StackOptions production;
  std::printf("%6s %14s %12s %10s %12s %16s\n", "GPUs", "time/step[ms]",
              "images/s", "speedup", "efficiency", "epoch time[s]");
  double base = 0.0;
  std::vector<ScalingRow> rows;
  for (int gpus : {1, 2, 4, 8, 16, 32, 64, 96, 128}) {
    // One run per scale with a clean tracer, so the attribution report for
    // this row covers exactly this row's spans.
    obs::Tracer::instance().clear();
    const auto m = model_training(juwels, booster, gpus, production);
    rows.push_back({gpus, m, obs::Report::from_tracer().aggregate(),
                    obs::critpath::from_tracer()});
    if (gpus == 1) base = m.images_per_s;
    const double speedup = m.images_per_s / base;
    const double steps_per_epoch =
        static_cast<double>(kTrainImages) / (gpus * kPerGpuBatch);
    std::printf("%6d %14.2f %12.0f %10.2f %11.1f%% %16.1f\n", gpus,
                m.step_time_s * 1e3, m.images_per_s, speedup,
                100.0 * speedup / gpus, steps_per_epoch * m.step_time_s);
  }
  std::printf("\npaper shape: the initial study used 96 GPUs; Sedona et al. [20] reached\n");
  std::printf("128 with better Horovod tuning — the curve must stay near-linear there.\n\n");

  // The tracer still holds the 128-GPU run: export it for Perfetto on demand.
  if (const char* trace_out = std::getenv("MSA_TRACE_OUT")) {
    if (obs::Tracer::instance().armed()) {
      obs::Tracer::instance().write_chrome_trace(trace_out);
      std::printf("wrote Chrome trace (128-GPU run) to %s\n\n", trace_out);
    }
  }

  // ---- comm/compute attribution (obs::Report over the same runs) ---------------
  std::printf("--- attribution: where does the simulated step time go? ---\n");
  std::printf("%6s %13s %13s %13s %13s %8s %8s\n", "GPUs", "exposed[ms/rk]",
              "hidden[ms/rk]", "compute[ms/rk]", "other[ms/rk]", "comm%",
              "hid%");
  for (const auto& row : rows) {
    const obs::Attribution& a = row.attr;
    const double rk = row.gpus;  // aggregate sums over ranks; show per-rank means
    std::printf("%6d %13.2f %13.2f %13.2f %13.2f %7.1f%% %7.1f%%\n", row.gpus,
                a.comm_s / rk * 1e3, a.comm_hidden_s / rk * 1e3,
                a.compute_s / rk * 1e3, a.other_s / rk * 1e3,
                100.0 * a.comm_fraction(),
                100.0 * a.hidden_comm_fraction());
  }
  std::printf(
      "\npaper shape: total comm grows with node count — that is the scaling\n"
      "tax.  The overlap engine hides most of it behind backward compute\n"
      "(hid%% = hidden / (hidden + exposed)); only the exposed slice (comm%%)\n"
      "stretches the step.\n");

  // ---- critical path & wait states (obs::critpath over the same runs) ----------
  std::printf("\n--- critical path: which rank/wait chain sets the makespan? ---\n");
  std::printf("%6s %11s %11s %11s %11s %11s %8s\n", "GPUs", "path[ms]",
              "local[ms]", "skew[ms]", "nic[ms]", "late[ms]", "comm%");
  for (const auto& row : rows) {
    const auto& p = row.path;
    std::printf("%6d %11.2f %11.2f %11.2f %11.2f %11.2f %7.1f%%\n", row.gpus,
                p.path_length_s * 1e3, p.local_total_s * 1e3,
                p.waits.collective_skew_s * 1e3, p.waits.nic_s * 1e3,
                p.waits.late_sender_s * 1e3,
                100.0 * p.exposed_comm_fraction());
  }
  std::printf(
      "\nreading: path == end-to-end sim time by construction; the wait\n"
      "columns say WHY the path rank was blocked (collective skew vs wire\n"
      "time vs a late peer), where the attribution table only said THAT\n"
      "comm time was exposed.\n");

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"experiment\": \"resnet50-scaling-fig3\",\n");
    std::fprintf(f, "  \"per_gpu_batch\": %d,\n  \"rows\": [\n", kPerGpuBatch);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ScalingRow& r = rows[i];
      const obs::Attribution& a = r.attr;
      std::fprintf(
          f,
          "    {\"gpus\": %d, \"step_time_s\": %.9f, \"images_per_s\": %.3f,\n"
          "     \"attribution\": {\"comm_s\": %.9f, \"comm_hidden_s\": %.9f, "
          "\"compute_s\": %.9f, "
          "\"io_s\": %.9f, \"other_s\": %.9f, \"total_s\": %.9f, "
          "\"comm_fraction\": %.6f, \"hidden_comm_fraction\": %.6f, "
          "\"compute_fraction\": %.6f, "
          "\"comm_bytes\": %llu, \"spans\": %llu},\n"
          "     \"total_sim_time_s\": %.9f,\n"
          "     \"critpath\": %s}%s\n",
          r.gpus, r.model.step_time_s, r.model.images_per_s, a.comm_s,
          a.comm_hidden_s, a.compute_s, a.io_s, a.other_s, a.total_s,
          a.comm_fraction(), a.hidden_comm_fraction(), a.compute_fraction(),
          static_cast<unsigned long long>(a.comm_bytes),
          static_cast<unsigned long long>(a.spans),
          r.model.total_time_s, r.path.to_json().c_str(),
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n\n", out_path.c_str(), rows.size());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
  }

  // Scaling-only mode for bench_gate, which reruns the sweep to compare the
  // JSON byte for byte: the ablation/ESB/accuracy sections below don't feed
  // the JSON and cost most of the time.
  if (std::getenv("MSA_SCALING_ONLY") != nullptr) {
    std::printf("MSA_SCALING_ONLY set: skipping ablation/ESB/accuracy sections\n");
    return 0;
  }

  // ---- what the optimisations buy (ablation) -----------------------------------
  std::printf("--- ablation at 128 GPUs: which stack ingredient matters? ---\n");
  std::printf("%-44s %14s %12s\n", "configuration", "time/step[ms]",
              "efficiency");
  struct Ablation {
    const char* label;
    StackOptions opts;
  };
  StackOptions no_overlap = production;
  no_overlap.overlap = false;
  StackOptions no_fp16 = production;
  no_fp16.fp16 = false;
  StackOptions flat = production;
  flat.hierarchical = false;
  StackOptions naive;
  naive.hierarchical = false;
  naive.fp16 = false;
  naive.overlap = false;
  StackOptions tree = production;
  tree.inter_node_alg = simnet::CollectiveAlgorithm::BinomialTree;
  const Ablation ablations[] = {
      {"production (hier + fp16 + overlap)", production},
      {"  - overlap", no_overlap},
      {"  - fp16 compression", no_fp16},
      {"  - hierarchy (flat inter-node ring)", flat},
      {"  inter-node binomial tree", tree},
      {"naive (flat fp32, no overlap)", naive},
  };
  for (const auto& a : ablations) {
    const auto m = model_training(juwels, booster, 128, a.opts);
    std::printf("%-44s %14.2f %11.1f%%\n", a.label, m.step_time_s * 1e3,
                100.0 * m.images_per_s / (base * 128));
  }

  // ---- GCE on the ESB fabric ----------------------------------------------------
  std::printf("\n--- same model on the DEEP ESB: GCE offload vs software ring ---\n");
  std::printf("%-44s %14s\n", "configuration", "time/step[ms]");
  // Overlap would hide either collective behind the V100 backward pass, so
  // it is disabled here to expose the raw collective cost difference.
  StackOptions esb_gce;
  esb_gce.hierarchical = false;
  esb_gce.overlap = false;
  esb_gce.inter_node_alg = simnet::CollectiveAlgorithm::GceOffload;
  StackOptions esb_ring = esb_gce;
  esb_ring.inter_node_alg = simnet::CollectiveAlgorithm::Ring;
  for (int gpus : {32}) {
    const auto g = model_training(deep, esb, gpus, esb_gce);
    const auto r = model_training(deep, esb, gpus, esb_ring);
    std::printf("%-44s %14.2f\n", "ESB x32 / GCE in-network reduction",
                g.step_time_s * 1e3);
    std::printf("%-44s %14.2f\n", "ESB x32 / software ring", r.step_time_s * 1e3);
  }

  // ---- E12: accuracy retention ----------------------------------------------------
  std::printf("\n--- E12: accuracy vs worker count (real training, real collectives) ---\n");
  const auto train_set = rs_dataset(512, 11);
  const auto test_set = rs_dataset(256, 12);

  std::printf("strong scaling (fixed global batch 32).  Per-replica BatchNorm\n");
  std::printf("statistics diverge from the global batch; SyncBatchNorm restores the\n");
  std::printf("serial trajectory exactly — the standard large-scale practice:\n");
  std::printf("%8s %14s %12s\n", "workers", "per-rank BN", "sync BN");
  for (int workers : {1, 2, 4, 8}) {
    double accs[2] = {0.0, 0.0};
    for (int variant = 0; variant < 2; ++variant) {
      const bool sync_bn = variant == 1;
      comm::Runtime runtime(core::build_machine(juwels, booster, workers));
      runtime.run([&](comm::Comm& comm) {
        tensor::Rng rng(3);
        const nn::NormFactory norm =
            sync_bn ? nn::NormFactory([&comm](std::size_t ch) {
              return std::make_unique<dist::SyncBatchNorm2D>(ch, comm);
            })
                    : nn::default_norm_factory();
        auto model = nn::make_resnet(4, 5, {8, 16}, 1, rng, norm);
        dist::broadcast_parameters(comm, *model);
      nn::Sgd opt(0.05, 0.9);
      dist::DistributedTrainer trainer(comm, *model, opt);
      const std::size_t global_batch = 32;
      const std::size_t micro = global_batch / static_cast<std::size_t>(comm.size());
      // All ranks slice the *same* permutation so every step's global batch
      // is identical to the serial run — the trajectory must then match
      // exactly (up to fp summation order).
      dist::ShardedSampler common(train_set.size(), 0, 1);
      for (std::size_t epoch = 0; epoch < 3; ++epoch) {
        const auto order = common.epoch_indices(epoch);
        for (std::size_t at = 0; at + global_batch <= order.size();
             at += global_batch) {
          const std::size_t lo = at + micro * static_cast<std::size_t>(comm.rank());
          std::vector<std::size_t> rows(
              order.begin() + static_cast<std::ptrdiff_t>(lo),
              order.begin() + static_cast<std::ptrdiff_t>(lo + micro));
          auto [x, y] = train_set.batch(rows);
          trainer.step_classification(x, y);
        }
      }
        if (comm.rank() == 0) {
          std::vector<std::size_t> all(test_set.size());
          for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
          auto [x, y] = test_set.batch(all);
          accs[variant] = nn::accuracy(model->forward(x, false), y);
        }
      });
    }
    std::printf("%8d %14.3f %12.3f\n", workers, accs[0], accs[1]);
  }

  std::printf("\nweak scaling (per-worker batch 8, LR linear scaling + warmup):\n");
  std::printf("%8s %14s %16s\n", "workers", "with warmup", "without warmup");
  for (int workers : {1, 4, 8}) {
    double accs[2] = {0.0, 0.0};
    for (int variant = 0; variant < 2; ++variant) {
      const bool warmup = variant == 0;
      comm::Runtime runtime(core::build_machine(juwels, booster, workers));
      runtime.run([&](comm::Comm& comm) {
        tensor::Rng rng(3);
        auto model = nn::make_resnet(4, 5, {8, 16}, 1, rng);
        dist::broadcast_parameters(comm, *model);
        nn::LargeBatchSchedule schedule(0.02, comm.size(),
                                        warmup ? 12 : 0);
        nn::Sgd opt(schedule.lr(0), 0.9);
        dist::DistributedTrainer trainer(comm, *model, opt);
        dist::ShardedSampler sampler(train_set.size(), comm.rank(),
                                     comm.size());
        std::size_t step = 0;
        const std::size_t micro = 8;
        for (std::size_t epoch = 0; epoch < 6; ++epoch) {
          const auto indices = sampler.epoch_indices(epoch);
          for (std::size_t at = 0; at + micro <= indices.size(); at += micro) {
            opt.set_lr(schedule.lr(step++));
            std::vector<std::size_t> rows(
                indices.begin() + static_cast<std::ptrdiff_t>(at),
                indices.begin() + static_cast<std::ptrdiff_t>(at + micro));
            auto [x, y] = train_set.batch(rows);
            trainer.step_classification(x, y);
          }
        }
        if (comm.rank() == 0) {
          std::vector<std::size_t> all(test_set.size());
          for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
          auto [x, y] = test_set.batch(all);
          accs[variant] = nn::accuracy(model->forward(x, false), y);
        }
      });
    }
    std::printf("%8d %14.3f %16.3f\n", workers, accs[0], accs[1]);
  }
  std::printf("\npaper shape: accuracy preserved at scale — exactly under strong\n");
  std::printf("scaling, and via the warmup/LR-scaling recipe under weak scaling.\n");
  return 0;
}
