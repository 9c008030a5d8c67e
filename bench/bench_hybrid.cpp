// E-hybrid — data-parallel vs pipeline vs hybrid DP x PP on a heterogeneous
// Cluster+Booster allocation (paper Sec. III: modular training across MSA
// modules).
//
// The workload is the ResNet-50-like exchange of bench_overlap, but placed on
// a *mixed* machine: half the devices on the JUWELS Cluster (slow CPUs), half
// on the Booster (A100s).  Three strategies over the same dist::Mesh API:
//
//   dp      [1 x W]: every device computes the full model on its own batch
//           and the fp16 gradient allreduce rings across the module gateway.
//           The step is gated twice — by the slowest device computing the
//           FULL model, and by the federation-bandwidth allreduce.
//   pp      [W x 1]: one microbatched chain over all devices (stage shares
//           proportional to device speed).  No gradient exchange at all, but
//           one replica and a fill/drain bubble that grows with W.
//   hybrid  [2 x W/2]: the mesh's topology-aware carve puts stage 0 on the
//           Cluster and stage 1 on the Booster; each Cluster device pairs
//           with a Booster device into one speed-balanced chain, so the pair
//           behaves like one device with the *combined* throughput, the
//           gradient allreduces stay on the fast intra-module fabrics, and
//           only the thin activation stream crosses the gateway.
//
// Stage shares are balanced to measured device speed (share ∝ 1/kernel_time),
// activations/gradients travel as real messages over the simulated fabrics,
// and compute is charged per device — heterogeneity and module boundaries
// come from the machine model, not from constants baked into the bench.
//
// Expected shape (checked by bench/claims.py in bench_gate): at >= 64
// devices the hybrid beats BOTH single-axis strategies on images/sec.
#include <cstdio>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "common.hpp"
#include "dist/mesh.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace {

using namespace msa;

constexpr double kParams = 25.6e6;              // ResNet-50 parameters
constexpr double kGradBytesFp16 = kParams * 2;  // fp16 wire payload
constexpr double kFwdFlopsPerImage = 3.9e9;
constexpr int kMicroBatch = 32;                 // images per microbatch
constexpr int kMicrobatches = 4;                // microbatches per step
constexpr std::size_t kActFloatsPerImage = 12544;  // 256x7x7 boundary tensor

constexpr int kActTag = 90;
constexpr int kGradTag = 91;

struct Point {
  int gpus = 0;
  const char* strategy = "";
  int stages = 0;
  int replicas = 0;
  double step_time_s = 0.0;
  double images_per_s = 0.0;
  double exposed_s = 0.0;  // per-rank mean over the run
  double hidden_s = 0.0;
  double compute_s = 0.0;
};

/// Price `steps` training steps of one strategy on a half-Cluster /
/// half-Booster machine.  @p stages carves the mesh: 1 = pure DP, gpus =
/// pure PP, 2 = the module-aligned hybrid.
Point run_point(const core::MsaSystem& system, int gpus, int stages,
                const char* name, int steps = 3) {
  obs::Tracer::instance().clear();
  comm::Runtime runtime(bench::half_cluster_booster(system, gpus));
  runtime.run([&](comm::Comm& comm) {
    dist::Mesh mesh(comm,
                    {.pipeline_stages = stages, .topology_aware = true});
    comm::Comm& pipe = mesh.pipe();
    comm::Comm& data = mesh.data();

    // Balance stage shares to measured device speed (share ∝ throughput):
    // a chain of unequal devices then advances like one device with the
    // combined peak instead of stalling on its slowest member.
    const double my_t = comm.machine()
                            .compute(comm.world_rank())
                            .kernel_time(kFwdFlopsPerImage * kMicroBatch, 0.0);
    const std::vector<double> chain =
        pipe.allgather(std::span<const double>(&my_t, 1));
    double inv_sum = 0.0;
    for (double t : chain) inv_sum += 1.0 / t;
    const double share = (1.0 / my_t) / inv_sum;

    const double fwd_flops = share * kFwdFlopsPerImage * kMicroBatch;
    const std::vector<float> act(
        static_cast<std::size_t>(kMicroBatch) * kActFloatsPerImage, 1.0f);
    const int s = mesh.stage();
    for (int step = 0; step < steps; ++step) {
      // Fill: stream the microbatch forwards down the chain...
      for (int mb = 0; mb < kMicrobatches; ++mb) {
        if (s > 0) (void)pipe.recv_any_size<float>(s - 1, kActTag);
        comm.charge_compute(fwd_flops, 0.0);
        if (s < stages - 1) {
          pipe.send(std::span<const float>(act), s + 1, kActTag);
        }
      }
      // ...drain: the upstream gradients flow back.
      for (int mb = 0; mb < kMicrobatches; ++mb) {
        if (s < stages - 1) (void)pipe.recv_any_size<float>(s + 1, kGradTag);
        comm.charge_compute(2.0 * fwd_flops, 0.0);
        if (s > 0) pipe.send(std::span<const float>(act), s - 1, kGradTag);
      }
      // Data axis: ring-allreduce my stage's fp16 gradient shard.  For the
      // hybrid this communicator never leaves the module.
      if (data.size() > 1) {
        data.charge_allreduce(
            static_cast<std::uint64_t>(share * kGradBytesFp16),
            simnet::CollectiveAlgorithm::Ring);
      }
      comm.barrier();
    }
  });
  Point p;
  p.gpus = gpus;
  p.strategy = name;
  p.stages = stages;
  p.replicas = gpus / stages;
  p.step_time_s = runtime.max_sim_time() / steps;
  p.images_per_s = static_cast<double>(p.replicas) * kMicrobatches *
                   kMicroBatch / p.step_time_s;
  const obs::Attribution a = obs::Report::from_tracer().aggregate();
  p.exposed_s = a.comm_s / gpus;
  p.hidden_s = a.comm_hidden_s / gpus;
  p.compute_s = a.compute_s / gpus;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_hybrid.json";
  const core::MsaSystem juwels = core::make_juwels();

  std::printf("=== E-hybrid: DP vs PP vs DP x PP on Cluster+Booster ===\n");
  std::printf(
      "workload: ResNet-50-like, %d microbatches x %d images, fp16 "
      "gradients\n",
      kMicrobatches, kMicroBatch);
  std::printf(
      "machine: half JUWELS Cluster + half Booster, speed-balanced stages\n\n");
  std::printf("%6s %8s %7s %9s %14s %12s %14s\n", "GPUs", "strategy",
              "stages", "replicas", "time/step[ms]", "images/s", "exposed[ms/rk]");

  std::vector<Point> points;
  for (int gpus : {16, 64, 128}) {
    for (const auto& [name, stages] :
         std::vector<std::pair<const char*, int>>{
             {"dp", 1}, {"pp", gpus}, {"hybrid", 2}}) {
      const Point p = run_point(juwels, gpus, stages, name);
      points.push_back(p);
      std::printf("%6d %8s %7d %9d %14.2f %12.0f %14.2f\n", p.gpus,
                  p.strategy, p.stages, p.replicas, p.step_time_s * 1e3,
                  p.images_per_s, p.exposed_s * 1e3);
    }
  }
  std::printf(
      "\nshape: dp is gated by the slowest device computing the full model\n"
      "plus a gateway-crossing allreduce; pp has one replica and a bubble\n"
      "that grows with the chain; the module-aligned hybrid pairs each slow\n"
      "device with a fast one and keeps gradient traffic inside the modules,\n"
      "so it wins on throughput at scale.\n");

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    {
      bench::JsonWriter w(f);
      w.obj_begin();
      w.kv("experiment", "hybrid-mesh");
      w.arr_begin("points");
      for (const Point& p : points) {
        w.obj_begin();
        w.kv("gpus", p.gpus);
        w.kv("strategy", p.strategy);
        w.kv("stages", p.stages);
        w.kv("replicas", p.replicas);
        w.kv("step_time_s", p.step_time_s, "%.9f");
        w.kv("images_per_s", p.images_per_s, "%.3f");
        w.kv("exposed_s", p.exposed_s, "%.9f");
        w.kv("hidden_s", p.hidden_s, "%.9f");
        w.kv("compute_s", p.compute_s, "%.9f");
        w.obj_end();
      }
      w.arr_end();
      w.obj_end();
    }
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s (%zu points)\n", out_path.c_str(), points.size());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
