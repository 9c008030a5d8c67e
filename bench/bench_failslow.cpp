// E-failslow — fail-slow (gray-failure) mitigation vs. an injected slow rank.
//
// The experience-paper scenario: one device in a 32-rank data-parallel job
// silently degrades (thermal throttling, a sick HBM stack, a noisy
// neighbour) to a fraction of its peak.  Every synchronous step then runs at
// the straggler's pace.  This bench injects a deterministic compute
// slowdown on one rank (fault::SlowRank) and sweeps the mitigation ladder
// of dist::HealthMonitor:
//
//   none      health monitoring off — the whole job drags at 1/slowdown
//   detect    rung 1 only: windowed detection, no mitigation applied —
//             the cost of the watermark allgather, same trajectory
//   reshard   rung 2: throughput-aware micro-batch re-sharding
//   demote    rung 3: evict the straggler through the shrink path
//   full      re-sharding plus demotion after 4 windows; re-sharding
//             absorbs moderate slowness and demotion stays in reserve for
//             what shares cannot contain
//
// Throughput is nominal examples per simulated second (epochs * N rows over
// the run's max simulated time), so modes that shrink the world are charged
// for their recovery stall and replay.  Output: a table on stdout and
// machine-readable rows in BENCH_failslow.json (path overridable as
// argv[1]).  Everything in the JSON is simulated-time deterministic: same
// binary, same JSON, whatever MSA_THREADS says (bench_gate checks it).  The
// straggler column counts real-wall-clock recv backstop expiries, so it
// stays out of the JSON; it reads 0 unless a recv waits 0.25 s of real time.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "common.hpp"
#include "dist/resilient.hpp"
#include "fault/injector.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace {

using namespace msa;

struct SweepRow {
  const char* mode = "none";
  double slowdown = 1.0;  // 1 = fault free
  double sim_time_s = 0.0;
  double throughput = 0.0;  // nominal examples / simulated second
  double relative = 1.0;    // vs fault-free
  int recoveries = 0;
  int rebalances = 0;
  int demotions = 0;
  int final_world = 0;
  std::uint64_t straggler_events = 0;  // wall clock: stdout only
  std::uint64_t health_digest = 0;
  double mean_loss = 0.0;
  double rebalance_s = 0.0;       // health-subsystem overhead (obs)
  double straggler_wait_s = 0.0;  // window skew behind the straggler (obs)
  std::uint64_t msgs_sent = 0;    // registry deltas for this run only
  std::uint64_t bytes_sent = 0;
  std::uint64_t dropped_spans = 0;
  std::string health_jsonl;  // per-window health.* telemetry (rank 0)
};

dist::HealthOptions mode_health(const std::string& mode) {
  dist::HealthOptions h;
  if (mode == "none") return h;
  h.enabled = true;
  h.window = 2;
  if (mode == "reshard") h.rebalance = true;
  if (mode == "demote") h.demote_after = 2;
  if (mode == "full") {
    h.rebalance = true;
    h.demote_after = 4;
  }
  return h;
}

SweepRow run_once(int P, const char* mode, double slowdown, int epochs) {
  const std::size_t N = 4096, features = 16, classes = 4;
  tensor::Rng data_rng(33);
  tensor::Tensor x = tensor::Tensor::randn({N, features}, data_rng);
  std::vector<std::int32_t> y(N);
  for (auto& v : y) v = static_cast<std::int32_t>(data_rng.uniform_index(classes));

  // The compute-bound profile keeps the MLP step at ~1.2 simulated ms
  // against ~0.1 ms of allreduce, so a compute slowdown shows up nearly
  // undiluted in step time (as it would for a real large model).
  comm::Runtime rt(bench::flat_machine(
      P, 4, bench::compute_bound_profile("bench-failslow")));
  fault::FaultPlan plan;
  plan.seed = 2026;
  if (slowdown > 1.0) {
    plan.slow_ranks.push_back({.world_rank = 5, .from_step = 0,
                               .factor = slowdown});
  }
  fault::FaultInjector::arm(rt, plan);

  SweepRow row;
  row.mode = mode;
  row.slowdown = slowdown;
  obs::Tracer::instance().clear();   // attribute this run's spans only
  obs::Registry::instance().reset();  // per-phase metric deltas, not totals
  obs::TimeSeries health_ts("health.");
  std::mutex m;
  rt.run([&](comm::Comm& comm) {
    dist::ResilientOptions options;
    options.checkpoint_interval = 4;
    options.max_recoveries = 8;
    options.health = mode_health(mode);
    options.health.timeseries = &health_ts;  // sampled by rank 0 only
    dist::ResilientTrainer trainer(
        comm,
        [&] {
          tensor::Rng rng(7);
          return nn::make_mlp(features, {64}, classes, rng);
        },
        [] { return std::make_unique<nn::Sgd>(0.05, 0.9); },
        dist::HybridOptions{}, options);
    auto result = trainer.train_classification(x, y, /*batch_size=*/8, epochs);
    if (trainer.comm().rank() == 0) {
      std::lock_guard lock(m);
      const auto& rep = trainer.report();
      row.recoveries = rep.recoveries;
      row.rebalances = rep.rebalances;
      row.demotions = rep.demotions;
      row.final_world = rep.final_world;
      row.straggler_events = rep.straggler_events;
      row.health_digest = rep.health_digest;
      row.mean_loss = result.mean_loss;
    }
  });
  row.sim_time_s = rt.max_sim_time();
  const double examples = static_cast<double>(epochs) * static_cast<double>(N);
  row.throughput = row.sim_time_s > 0.0 ? examples / row.sim_time_s : 0.0;
  const obs::Attribution attr = obs::Report::from_tracer().aggregate();
  row.rebalance_s = attr.rebalance_s;
  row.straggler_wait_s = attr.straggler_wait_s;
  row.msgs_sent = obs::Registry::instance().counter("comm.msgs_sent").value();
  row.bytes_sent = obs::Registry::instance().counter("comm.bytes_sent").value();
  row.dropped_spans =
      obs::Registry::instance().counter("obs.trace.dropped_spans").value();
  row.health_jsonl = health_ts.to_jsonl();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_failslow.json";
  const int P = 32;
  const int epochs = 10;
  const char* modes[] = {"none", "detect", "reshard", "demote", "full"};
  const double slowdowns[] = {2.0, 4.0, 8.0};
  // rebalance_s and straggler_wait_s are read off the whole span timeline,
  // so no ring may overwrite, whatever the caller's MSA_TRACE_SPANS: the
  // busiest rank thread records 32,768 to 49,152 spans in one run.
  setenv("MSA_TRACE_SPANS", "65536", 1);
  obs::Tracer::instance().configure_from_env();

  std::printf(
      "=== fail-slow mitigation vs injected slow rank (P=%d, rank 5 degraded) "
      "===\n\n", P);
  std::printf("%9s %9s %11s %13s %9s %7s %7s %7s %6s %10s\n", "mode",
              "slowdown", "sim[ms]", "ex/sim-s", "relative", "rebal", "demote",
              "recover", "world", "straggler");

  std::vector<SweepRow> rows;
  SweepRow clean = run_once(P, "none", 1.0, epochs);
  clean.relative = 1.0;
  rows.push_back(clean);
  std::printf("%9s %9.0fx %11.3f %13.0f %8.2fx %7d %7d %7d %6d %10llu\n",
              clean.mode, clean.slowdown, clean.sim_time_s * 1e3,
              clean.throughput, clean.relative, clean.rebalances,
              clean.demotions, clean.recoveries, clean.final_world,
              static_cast<unsigned long long>(clean.straggler_events));

  for (double s : slowdowns) {
    std::printf("\n");
    for (const char* mode : modes) {
      SweepRow row = run_once(P, mode, s, epochs);
      row.relative =
          clean.throughput > 0.0 ? row.throughput / clean.throughput : 0.0;
      std::printf("%9s %9.0fx %11.3f %13.0f %8.2fx %7d %7d %7d %6d %10llu\n",
                  row.mode, row.slowdown, row.sim_time_s * 1e3, row.throughput,
                  row.relative, row.rebalances, row.demotions, row.recoveries,
                  row.final_world,
                  static_cast<unsigned long long>(row.straggler_events));
      rows.push_back(row);
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  {
    bench::JsonWriter w(f);
    w.obj_begin();
    w.kv("experiment", "failslow-mitigation");
    w.kv("ranks", P);
    w.kv("epochs", epochs);
    w.kv("clean_throughput", clean.throughput, "%.3f");
    w.arr_begin("rows");
    for (const SweepRow& r : rows) {
      w.obj_begin();
      w.kv("mode", r.mode);
      w.kv("slowdown", r.slowdown, "%.1f");
      w.kv("sim_time_s", r.sim_time_s, "%.6f");
      w.kv("throughput", r.throughput, "%.3f");
      w.kv("relative", r.relative, "%.4f");
      w.kv("recoveries", r.recoveries);
      w.kv("rebalances", r.rebalances);
      w.kv("demotions", r.demotions);
      w.kv("final_world", r.final_world);
      w.kv("health_digest", r.health_digest);
      w.kv("mean_loss", r.mean_loss, "%.4f");
      w.kv("rebalance_s", r.rebalance_s, "%.6f");
      w.kv("straggler_wait_s", r.straggler_wait_s, "%.6f");
      w.kv("msgs_sent", r.msgs_sent);
      w.kv("bytes_sent", r.bytes_sent);
      w.kv("dropped_spans", r.dropped_spans);
      w.obj_end();
    }
    w.arr_end();
    w.obj_end();
  }
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nwrote %s (%zu rows)\n", out_path.c_str(), rows.size());

  // Sidecar: window-by-window health.* telemetry (modes with monitoring on
  // produce rows; a {"mode", "slowdown"} marker line precedes each run's).
  std::string ts_path = out_path;
  if (const auto dot = ts_path.rfind('.'); dot != std::string::npos) {
    ts_path.erase(dot);
  }
  ts_path += "_timeseries.jsonl";
  if (std::FILE* tf = std::fopen(ts_path.c_str(), "w")) {
    for (const SweepRow& r : rows) {
      if (r.health_jsonl.empty()) continue;
      std::fprintf(tf, "{\"mode\": \"%s\", \"slowdown\": %.1f}\n", r.mode,
                   r.slowdown);
      std::fwrite(r.health_jsonl.data(), 1, r.health_jsonl.size(), tf);
    }
    std::fclose(tf);
    std::printf("wrote %s\n", ts_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", ts_path.c_str());
    return 1;
  }

  std::printf(
      "\npaper shape: unmitigated, the whole job runs at ~1/slowdown — one\n"
      "gray rank taxes all %d.  Re-sharding recovers most of the loss by\n"
      "matching shares to measured throughput; demotion trades the rank's\n"
      "capacity plus one recovery stall for a clean steady state; detection\n"
      "alone costs one small allgather per window and leaves the loss\n"
      "untouched.\n",
      P);
  return 0;
}
