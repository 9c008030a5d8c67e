// E-overlap — microbenchmark for the backward/allreduce overlap engine.
//
// Sweeps the ResNet-50 gradient exchange (same workload constants as
// bench_fig3_resnet_scaling) over scale x fusion-bucket size x overlap
// on/off, and reports how much of the per-step communication ends up
// *exposed* (stretching the step) versus *hidden* behind backward compute.
// The numbers come from the obs attribution of the progress engine's
// hidden/exposed intervals, not from an analytic credit — in-flight buckets
// serialize on the NIC and only the remainder past the blocking wait shows
// up as exposed time.
//
// Expected shape (checked by bench/claims.py in bench_gate):
//   * with overlap ON the exposed fraction is strictly smaller than with
//     overlap OFF at every scale/bucket point;
//   * exposed comm with overlap ON stays a small slice of the step.
#include <cstdio>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "core/machine_builder.hpp"
#include "core/module.hpp"
#include "obs/critpath.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace {

using namespace msa;

constexpr double kParams = 25.6e6;              // ResNet-50 parameters
constexpr double kGradBytesFp16 = kParams * 2;  // fp16 wire payload
constexpr double kFwdFlopsPerImage = 3.9e9;
constexpr int kPerGpuBatch = 64;

struct Point {
  int gpus = 0;
  std::size_t bucket_bytes = 0;
  bool overlap = false;
  double step_time_s = 0.0;
  double exposed_s = 0.0;  // per-rank mean over the run
  double hidden_s = 0.0;
  double compute_s = 0.0;
  obs::critpath::Analysis path;  // critical path of the same run
};

/// Price `steps` gradient-exchange rounds; mirrors the production path of
/// bench_fig3_resnet_scaling (hierarchical NVLink+IB, fp16 buckets).
Point run_point(const core::MsaSystem& system, const core::Module& module,
                int gpus, std::size_t bucket_bytes, bool overlap,
                int steps = 3) {
  obs::Tracer::instance().clear();
  comm::Runtime runtime(core::build_machine(system, module, gpus));
  runtime.run([&](comm::Comm& comm) {
    const auto& loc = comm.machine().location(comm.world_rank());
    comm::Comm node_comm = comm.split(loc.node, loc.device);
    comm::Comm cross_comm = comm.split(loc.device, loc.node);
    const bool multi_node =
        comm.machine().location(comm.size() - 1).node !=
        comm.machine().location(0).node;
    const bool multi_dev =
        comm.size() > 1 &&
        comm.machine().location(1).node == comm.machine().location(0).node;
    const bool hierarchical = multi_node && multi_dev;

    const int n_buckets = std::max(
        1, static_cast<int>(
               (kGradBytesFp16 + static_cast<double>(bucket_bytes) - 1) /
               static_cast<double>(bucket_bytes)));
    const double fwd = kFwdFlopsPerImage * kPerGpuBatch;
    for (int s = 0; s < steps; ++s) {
      comm.charge_compute(fwd, 0.0);
      std::vector<comm::Request> reqs;
      reqs.reserve(static_cast<std::size_t>(n_buckets));
      for (int b = 0; b < n_buckets; ++b) {
        comm.charge_compute(2.0 * fwd / n_buckets, 0.0);
        const auto bytes =
            static_cast<std::uint64_t>(kGradBytesFp16 / n_buckets);
        if (hierarchical) {
          reqs.push_back(comm.idefer(
              bytes, [nc = node_comm, xc = cross_comm, bytes]() mutable {
                const std::uint64_t half = bytes / 2;
                const std::uint64_t chunk =
                    bytes / static_cast<std::uint64_t>(nc.size());
                nc.charge_allreduce(half, simnet::CollectiveAlgorithm::Ring);
                xc.charge_allreduce(chunk, simnet::CollectiveAlgorithm::Ring);
                nc.charge_allreduce(half, simnet::CollectiveAlgorithm::Ring);
              }));
        } else {
          reqs.push_back(comm.icharge_allreduce(
              bytes, simnet::CollectiveAlgorithm::Ring));
        }
        if (!overlap) reqs.back().wait();
      }
      if (overlap) comm::wait_all(reqs);
      comm.barrier();
    }
  });
  Point p;
  p.gpus = gpus;
  p.bucket_bytes = bucket_bytes;
  p.overlap = overlap;
  p.step_time_s = runtime.max_sim_time() / steps;
  const obs::Attribution a = obs::Report::from_tracer().aggregate();
  p.exposed_s = a.comm_s / gpus;
  p.hidden_s = a.comm_hidden_s / gpus;
  p.compute_s = a.compute_s / gpus;
  p.path = obs::critpath::from_tracer();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_overlap.json";
  const core::MsaSystem juwels = core::make_juwels();
  const core::Module& booster = juwels.module(core::ModuleKind::Booster);

  std::printf("=== E-overlap: exposed vs hidden gradient communication ===\n");
  std::printf("workload: ResNet-50 fp16 gradients (51.2 MB wire), per-GPU batch %d\n",
              kPerGpuBatch);
  std::printf("machine: JUWELS Booster; hierarchical NVLink+IB allreduce\n\n");
  std::printf("%6s %10s %9s %14s %14s %13s %9s\n", "GPUs", "bucket", "overlap",
              "time/step[ms]", "exposed[ms/rk]", "hidden[ms/rk]", "exp.frac");

  std::vector<Point> points;
  for (int gpus : {8, 32, 128}) {
    for (std::size_t bucket : {std::size_t{1} << 20, std::size_t{4} << 20,
                               std::size_t{16} << 20}) {
      for (bool overlap : {false, true}) {
        const Point p = run_point(juwels, booster, gpus, bucket, overlap);
        points.push_back(p);
        const double total = p.exposed_s + p.hidden_s + p.compute_s;
        std::printf("%6d %8zuMB %9s %14.2f %14.2f %13.2f %8.1f%%\n", p.gpus,
                    p.bucket_bytes >> 20, p.overlap ? "on" : "off",
                    p.step_time_s * 1e3, p.exposed_s * 1e3, p.hidden_s * 1e3,
                    100.0 * p.exposed_s / total);
      }
    }
  }
  std::printf(
      "\nshape: overlap moves comm from the exposed column to the hidden one;\n"
      "bucket size trades pipelining grain (small = earlier launches) against\n"
      "per-collective latency overhead (large = fewer rounds).\n");

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"experiment\": \"overlap-sweep\",\n  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      const double total = p.exposed_s + p.hidden_s + p.compute_s;
      std::fprintf(
          f,
          "    {\"gpus\": %d, \"bucket_bytes\": %zu, \"overlap\": %s, "
          "\"step_time_s\": %.9f, \"exposed_s\": %.9f, \"hidden_s\": %.9f, "
          "\"compute_s\": %.9f, \"exposed_fraction\": %.6f,\n"
          "     \"critpath\": %s}%s\n",
          p.gpus, p.bucket_bytes, p.overlap ? "true" : "false", p.step_time_s,
          p.exposed_s, p.hidden_s, p.compute_s,
          total > 0.0 ? p.exposed_s / total : 0.0,
          p.path.to_json().c_str(),
          i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu points)\n", out_path.c_str(), points.size());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
