// E-serve — SLO-aware continuous-batching inference serving on a
// heterogeneous module fleet (msa::serve on the paper's Cluster+Booster
// shape).
//
// Fleet: comm rank 0 routes; two single-rank "Cluster" replicas (slow
// devices, module 0) and two 2-stage pipelined "Booster" replicas (fast
// devices, module 1) serve an identical MLP classifier.  Every batch pays a
// fixed per-member overhead (kernel launch / weight streaming) on top of
// the per-row forward, so batching has something real to amortise.
//
// Two claims, checked by bench/claims.py over BENCH_serve.json:
//
//  (a) continuous batching (rows<=8, 2 ms delay cap) strictly beats
//      batch-1 dispatch on goodput at every offered load >= 2x the fleet's
//      aggregate single-request service rate — batch-1 saturates at that
//      rate while batching amortises the overhead into spare capacity;
//
//  (b) with one Cluster replica degraded 4x mid-run (fault::SlowRank on
//      its rank), health-aware routing flags the gray replica off the
//      charged/nominal watermark ratio and keeps p99 within 1.5x of the
//      all-healthy p99, while round-robin — which keeps feeding the slow
//      replica and stalls blocking on its replies — blows past 3x.
//
// Everything is simulated-time deterministic: the JSON (digests included)
// is byte-identical for any MSA_THREADS, which bench_gate also checks.
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "common.hpp"
#include "fault/injector.hpp"
#include "obs/critpath.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "serve/serve.hpp"

namespace {

using namespace msa;

constexpr double kClusterPeak = 2e8;   // flop/s, efficiency 0.5 -> 1e8
constexpr double kBoosterPeak = 8e8;   // flop/s, efficiency 0.5 -> 4e8
constexpr double kOverheadFlops = 4e5; // per member per batch
constexpr int kDegradedRank = 1;       // first Cluster replica (replica 0)

serve::ModelSpec bench_model() {
  serve::ModelSpec m;
  m.features = 64;
  m.hidden = {256, 128};
  m.classes = 8;
  m.seed = 7;
  return m;
}

std::vector<int> fleet_sizes() { return {1, 1, 2, 2}; }

simnet::Machine fleet_machine() {
  return bench::serving_machine(/*cluster_ranks=*/2, /*booster_ranks=*/4,
                                kClusterPeak, kBoosterPeak);
}

/// Forward flops per row of the bench model (dense mat-vec, 2 flops/MAC).
double model_flops() {
  const serve::ModelSpec m = bench_model();
  double f = 0.0;
  std::size_t prev = m.features;
  for (std::size_t h : m.hidden) {
    f += 2.0 * static_cast<double>(prev * h);
    prev = h;
  }
  f += 2.0 * static_cast<double>(prev * m.classes);
  return f;
}

/// Aggregate fleet rate for batch-1 dispatch (requests/s): per replica, one
/// row's forward plus every member's per-batch overhead, priced on the
/// machine's own compute profiles.  The load sweep is expressed in
/// multiples of this — the rate batch-1 dispatch cannot exceed.
double single_request_rate(const simnet::Machine& m) {
  const std::vector<int> sizes = fleet_sizes();
  const double flops = model_flops();
  double rate = 0.0;
  int first = 1;
  for (int members : sizes) {
    double t = 0.0;
    for (int s = 0; s < members; ++s) {
      const double stage_flops = kOverheadFlops + flops / members;
      t += m.compute(first + s).kernel_time(stage_flops, 0.0);
    }
    rate += 1.0 / t;
    first += members;
  }
  return rate;
}

struct RunResult {
  serve::ServeStats stats;
  double sim_time_s = 0.0;
  // Registry deltas for THIS run (the registry is reset at run entry, so
  // the per-phase numbers are not polluted by earlier sweep points).
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t dropped_spans = 0;
  obs::critpath::Analysis path;  // only filled when spans were recorded
};

RunResult run_once(double rate_hz, std::uint64_t count, int batch_rows,
                   serve::RoutingMode routing, bool degraded,
                   bool record_spans = false,
                   obs::TimeSeries* timeseries = nullptr) {
  // Fresh metric registry and span timeline per phase: every point reports
  // its own counts, and the critpath/time-series outputs cover one run.
  obs::Registry::instance().reset();
  obs::Tracer::instance().clear();
  serve::ServeOptions opts;
  opts.arrivals.pattern = serve::ArrivalPattern::Poisson;
  opts.arrivals.rate_hz = rate_hz;
  opts.arrivals.count = count;
  opts.arrivals.seed = 11;
  opts.batch.max_batch_rows = batch_rows;
  opts.batch.max_delay_s = 2e-3;
  opts.queue_capacity = 256;
  opts.replicas.replica_sizes = fleet_sizes();
  opts.replicas.model = bench_model();
  opts.replicas.overhead_flops = kOverheadFlops;
  opts.routing = routing;
  // Reply drains happen in global seq order, so a deep-enough per-replica
  // window is what lets the fast Boosters buffer through a blocking drain
  // on a slow Cluster batch instead of idling behind it.
  opts.max_outstanding = 4;
  // The load sweep skips span recording (the latency histogram is enough);
  // the degraded points turn it on so the critical path of the stall is in
  // the JSON, and attach a time series for the per-window telemetry.
  opts.record_spans = record_spans;
  opts.timeseries = timeseries;
  opts.timeseries_every = timeseries != nullptr ? 50 : 0;

  comm::Runtime rt(fleet_machine());
  if (degraded) {
    fault::FaultPlan plan;
    plan.seed = 2026;
    // The first Cluster replica drops to 1/4 speed after its 5th served
    // batch — late enough that the router has a clean self-baseline for
    // the health score.  A Cluster batch goes 12 -> 48 ms, far past what
    // round-robin's outstanding window can absorb, so RR visibly stalls.
    plan.slow_ranks.push_back(
        {.world_rank = kDegradedRank, .from_step = 6, .factor = 4.0});
    fault::FaultInjector::arm(rt, plan);
  }

  RunResult out;
  std::mutex mu;
  rt.run([&](comm::Comm& comm) {
    serve::ServeStats stats = serve::run(comm, opts);
    if (comm.rank() == 0) {
      std::lock_guard lock(mu);
      out.stats = std::move(stats);
    }
  });
  out.sim_time_s = rt.max_sim_time();
  out.msgs_sent = obs::Registry::instance().counter("comm.msgs_sent").value();
  out.bytes_sent = obs::Registry::instance().counter("comm.bytes_sent").value();
  out.dropped_spans =
      obs::Registry::instance().counter("obs.trace.dropped_spans").value();
  if (record_spans) out.path = obs::critpath::from_tracer();
  return out;
}

void emit_stats(bench::JsonWriter& w, const serve::ServeStats& s) {
  w.kv("offered", s.offered);
  w.kv("admitted", s.admitted);
  w.kv("rejected", s.rejected);
  w.kv("completed", s.completed);
  w.kv("redispatched", s.redispatched);
  w.kv("goodput_rps", s.goodput_rps, "%.3f");
  w.kv("makespan_s", s.makespan_s, "%.6f");
  w.kv("p50_s", s.p50_s, "%.9f");
  w.kv("p95_s", s.p95_s, "%.9f");
  w.kv("p99_s", s.p99_s, "%.9f");
  w.kv("digest", s.digest);
}

void emit_replicas(bench::JsonWriter& w, const serve::ServeStats& s) {
  w.arr_begin("replicas");
  for (const serve::ReplicaStats& r : s.replicas) {
    w.obj_begin();
    w.kv("replica", r.replica);
    w.kv("batches", r.batches);
    w.kv("rows", r.rows);
    w.kv("flagged", r.flagged);
    w.kv("score", r.score, "%.3f");
    w.obj_end();
  }
  w.arr_end();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  const double single_rate = single_request_rate(fleet_machine());
  // The degraded points' critpath needs every span, whatever the caller's
  // MSA_TRACE_SPANS: the busiest thread records 16,384 to 32,768 in a run.
  setenv("MSA_TRACE_SPANS", "65536", 1);
  obs::Tracer::instance().configure_from_env();

  std::printf("=== E-serve: continuous batching + SLO routing on a mixed "
              "replica fleet ===\n");
  std::printf("fleet: 2x Cluster[1 rank] + 2x Booster[2-stage], "
              "single-request rate %.0f req/s\n\n", single_rate);

  // --- (a) offered load x batch policy -------------------------------
  std::printf("%6s %9s %9s %9s %9s %11s %11s\n", "load", "policy", "offered",
              "completed", "rejected", "goodput", "p99[ms]");
  struct SweepPoint {
    double multiplier;
    const char* policy;
    int batch_rows;
    RunResult r;
  };
  std::vector<SweepPoint> sweep;
  const double multipliers[] = {0.5, 1.0, 2.0, 3.0};
  for (double mult : multipliers) {
    for (const auto& [policy, rows] :
         std::vector<std::pair<const char*, int>>{{"batch1", 1},
                                                  {"continuous", 8}}) {
      SweepPoint p{mult, policy, rows,
                   run_once(mult * single_rate, 6000, rows,
                            serve::RoutingMode::LeastLoaded, false)};
      std::printf("%5.1fx %9s %9llu %9llu %9llu %11.0f %11.2f\n", mult,
                  policy,
                  static_cast<unsigned long long>(p.r.stats.offered),
                  static_cast<unsigned long long>(p.r.stats.completed),
                  static_cast<unsigned long long>(p.r.stats.rejected),
                  p.r.stats.goodput_rps, p.r.stats.p99_s * 1e3);
      sweep.push_back(std::move(p));
    }
  }

  // --- (b) one Booster replica degraded 4x ---------------------------
  const double slo_rate = 2.0 * single_rate;
  struct DegradedPoint {
    const char* mode;
    serve::RoutingMode routing;
    bool degraded;
    RunResult r;
  };
  std::vector<DegradedPoint> slo;
  slo.push_back({"health-healthy", serve::RoutingMode::HealthAware, false, {}});
  slo.push_back({"health-degraded", serve::RoutingMode::HealthAware, true, {}});
  slo.push_back({"roundrobin-degraded", serve::RoutingMode::RoundRobin, true,
                 {}});
  // Per-window serve.* telemetry for all three SLO points, concatenated into
  // one JSONL sidecar; a {"mode": ...} marker line precedes each run's rows.
  std::string ts_jsonl;
  std::printf("\n%20s %9s %11s %11s %11s  replica rows\n", "mode", "completed",
              "goodput", "p95[ms]", "p99[ms]");
  for (DegradedPoint& p : slo) {
    obs::TimeSeries ts("serve.");
    p.r = run_once(slo_rate, 6000, 8, p.routing, p.degraded,
                   /*record_spans=*/true, &ts);
    ts_jsonl += "{\"mode\": \"" + std::string(p.mode) + "\"}\n";
    ts_jsonl += ts.to_jsonl();
    std::printf("%20s %9llu %11.0f %11.2f %11.2f  [", p.mode,
                static_cast<unsigned long long>(p.r.stats.completed),
                p.r.stats.goodput_rps, p.r.stats.p95_s * 1e3,
                p.r.stats.p99_s * 1e3);
    for (const auto& rs : p.r.stats.replicas) {
      std::printf("%s%llu%s", rs.replica ? " " : "",
                  static_cast<unsigned long long>(rs.rows),
                  rs.flagged ? "!" : "");
    }
    std::printf("]\n");
  }
  std::printf("\nshape: batch-1 dispatch saturates at the single-request "
              "rate; continuous\nbatching amortises the per-batch overhead "
              "and keeps absorbing load.  With a\ngray replica, round-robin "
              "keeps stalling on it while health-aware routing\nflags it "
              "(marked !) and serves from the healthy three.\n");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  {
    bench::JsonWriter w(f);
    w.obj_begin();
    w.kv("experiment", "serve-slo");
    w.kv("single_request_rate_hz", single_rate, "%.3f");
    w.kv("requests", std::uint64_t{6000});
    w.arr_begin("load_sweep");
    for (const SweepPoint& p : sweep) {
      w.obj_begin();
      w.kv("multiplier", p.multiplier, "%.1f");
      w.kv("rate_hz", p.multiplier * single_rate, "%.3f");
      w.kv("policy", p.policy);
      w.kv("batch_rows", p.batch_rows);
      emit_stats(w, p.r.stats);
      w.obj_end();
    }
    w.arr_end();
    w.arr_begin("degraded");
    for (const DegradedPoint& p : slo) {
      w.obj_begin();
      w.kv("mode", p.mode);
      w.kv("rate_hz", slo_rate, "%.3f");
      emit_stats(w, p.r.stats);
      emit_replicas(w, p.r.stats);
      w.kv("msgs_sent", p.r.msgs_sent);
      w.kv("bytes_sent", p.r.bytes_sent);
      w.kv("dropped_spans", p.r.dropped_spans);
      w.raw("critpath", p.r.path.to_json());
      w.obj_end();
    }
    w.arr_end();
    w.obj_end();
  }
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // Sidecar: per-window telemetry of the three SLO points.
  std::string ts_path = out_path;
  if (const auto dot = ts_path.rfind('.'); dot != std::string::npos) {
    ts_path.erase(dot);
  }
  ts_path += "_timeseries.jsonl";
  if (std::FILE* tf = std::fopen(ts_path.c_str(), "w")) {
    std::fwrite(ts_jsonl.data(), 1, ts_jsonl.size(), tf);
    std::fclose(tf);
    std::printf("wrote %s\n", ts_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", ts_path.c_str());
    return 1;
  }
  return 0;
}
