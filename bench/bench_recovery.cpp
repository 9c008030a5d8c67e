// E-recovery — recovery overhead vs. MTBF for elastic data-parallel training.
//
// The experience-paper question: if nodes die with a given mean time between
// failures, how much simulated wall-clock does the shrink/restore discipline
// cost on top of fault-free training, and how does the checkpoint interval
// trade replay work against checkpoint I/O?  Faults are injected with the
// deterministic MTBF model of fault::FaultPlan (kill probability per rank per
// step = 1/MTBF_steps), so every row is replayable.
//
// Output: a table on stdout and machine-readable rows in BENCH_recovery.json
// (path overridable as argv[1]).
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "dist/resilient.hpp"
#include "fault/injector.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace {

using namespace msa;

struct SweepRow {
  double mtbf_steps = 0.0;  // 0 = fault free
  int checkpoint_interval = 0;
  double sim_time_s = 0.0;
  double overhead = 0.0;  // vs fault-free at same interval
  int recoveries = 0;
  int steps_replayed = 0;
  int final_world = 0;
  double checkpoint_time_s = 0.0;
  double restore_time_s = 0.0;
  double mean_loss = 0.0;
  obs::Attribution attr;  // aggregate comm/compute/io/fault breakdown
};

simnet::MachineConfig bench_config() {
  simnet::MachineConfig cfg;
  cfg.intra_node = {0.3e-6, 100e9, 0.1e-6};
  cfg.intra_module = {1.0e-6, 10e9, 0.3e-6};
  cfg.federation = {2.0e-6, 5e9, 0.5e-6};
  cfg.storage = {1e-4, 2e9, 4e9};
  return cfg;
}

SweepRow run_once(int P, double mtbf_steps, int checkpoint_interval) {
  const std::size_t N = 256, features = 16, classes = 4;
  tensor::Rng data_rng(33);
  tensor::Tensor x = tensor::Tensor::randn({N, features}, data_rng);
  std::vector<std::int32_t> y(N);
  for (auto& v : y) v = static_cast<std::int32_t>(data_rng.uniform_index(classes));

  comm::Runtime rt(
      simnet::Machine::homogeneous(P, 4, bench_config(), simnet::ComputeProfile{}));
  fault::FaultPlan plan;
  plan.seed = 2026;
  if (mtbf_steps > 0.0) plan.kill_probability = 1.0 / mtbf_steps;
  fault::FaultInjector::arm(rt, plan);

  SweepRow row;
  row.mtbf_steps = mtbf_steps;
  row.checkpoint_interval = checkpoint_interval;
  obs::Tracer::instance().clear();  // attribute this run's spans only
  std::mutex m;
  rt.run([&](comm::Comm& comm) {
    dist::ResilientOptions options;
    options.checkpoint_interval = checkpoint_interval;
    options.max_recoveries = 32;
    dist::ResilientTrainer trainer(
        comm,
        [&] {
          tensor::Rng rng(7);
          return nn::make_mlp(features, {32}, classes, rng);
        },
        [] { return std::make_unique<nn::Sgd>(0.05, 0.9); },
        dist::HybridOptions{}, options);
    auto result = trainer.train_classification(x, y, /*batch_size=*/8,
                                               /*epochs=*/5);
    if (trainer.comm().rank() == 0) {
      std::lock_guard lock(m);
      const auto& rep = trainer.report();
      row.recoveries = rep.recoveries;
      row.steps_replayed = rep.steps_replayed;
      row.final_world = rep.final_world;
      row.checkpoint_time_s = rep.checkpoint_time_s;
      row.restore_time_s = rep.restore_time_s;
      row.mean_loss = result.mean_loss;
    }
  });
  row.sim_time_s = rt.max_sim_time();
  row.attr = obs::Report::from_tracer().aggregate();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_recovery.json";
  const int P = 8;
  const double mtbfs[] = {0.0, 500.0, 100.0, 40.0};
  const int intervals[] = {1, 5, 20};

  std::printf("=== recovery overhead vs MTBF (P=%d, elastic shrink/restore) ===\n\n", P);
  std::printf("%12s %10s %12s %10s %10s %10s %8s %12s %12s\n", "MTBF[steps]",
              "ckpt-int", "sim[ms]", "overhead", "recover", "replayed",
              "world", "ckpt[ms]", "restore[ms]");

  std::vector<SweepRow> rows;
  for (int interval : intervals) {
    double baseline = 0.0;
    for (double mtbf : mtbfs) {
      SweepRow row = run_once(P, mtbf, interval);
      if (mtbf == 0.0) baseline = row.sim_time_s;
      row.overhead = baseline > 0.0 ? row.sim_time_s / baseline - 1.0 : 0.0;
      std::printf("%12.0f %10d %12.3f %9.1f%% %10d %10d %8d %12.3f %12.3f\n",
                  row.mtbf_steps, row.checkpoint_interval,
                  row.sim_time_s * 1e3, row.overhead * 100.0, row.recoveries,
                  row.steps_replayed, row.final_world,
                  row.checkpoint_time_s * 1e3, row.restore_time_s * 1e3);
      rows.push_back(row);
    }
    std::printf("\n");
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"experiment\": \"recovery-overhead-vs-mtbf\",\n");
  std::fprintf(f, "  \"ranks\": %d,\n  \"rows\": [\n", P);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"mtbf_steps\": %.0f, \"checkpoint_interval\": %d, "
        "\"sim_time_s\": %.6f, \"overhead\": %.4f, \"recoveries\": %d, "
        "\"steps_replayed\": %d, \"final_world\": %d, "
        "\"checkpoint_time_s\": %.6f, \"restore_time_s\": %.6f, "
        "\"mean_loss\": %.4f,\n"
        "     \"attribution\": {\"comm_s\": %.6f, \"compute_s\": %.6f, "
        "\"io_s\": %.6f, \"fault_s\": %.6f, \"other_s\": %.6f, "
        "\"total_s\": %.6f, \"comm_fraction\": %.4f, \"spans\": %llu}}%s\n",
        r.mtbf_steps, r.checkpoint_interval, r.sim_time_s, r.overhead,
        r.recoveries, r.steps_replayed, r.final_world, r.checkpoint_time_s,
        r.restore_time_s, r.mean_loss, r.attr.comm_s, r.attr.compute_s,
        r.attr.io_s, r.attr.fault_s, r.attr.other_s, r.attr.total_s,
        r.attr.comm_fraction(), static_cast<unsigned long long>(r.attr.spans),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", out_path.c_str(), rows.size());

  std::printf(
      "\npaper shape: overhead grows as MTBF shrinks; tight checkpoint\n"
      "intervals pay steady I/O but replay little, loose intervals are free\n"
      "until a failure makes them replay a long tail — the classic\n"
      "checkpoint/restart trade-off the MSA machines live with.\n");
  return 0;
}
