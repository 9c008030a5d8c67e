// Serving workload.  On the simulated clock it is an open loop: Poisson
// arrivals from a seeded trace, and latency counts from each request's
// trace arrival time.  On the host clock it is a batch job: the benchmark
// serves one fixed-size trace after another, each in its own Runtime::run,
// until the time is up; one such run is the host "step".
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nn/models.hpp"
#include "obs/metrics.hpp"
#include "par/pool.hpp"
#include "serve/serve.hpp"

namespace perfbench {
namespace {

using namespace msa;

// serve_fleet — the router, one Cluster replica and one 2-stage Booster
// replica (4 ranks, one thread each), serving an MLP 64-256-128-8 with
// continuous batching of <= 8 rows under a 2 ms cap, LeastLoaded routing,
// Poisson arrivals at 90% of the modelled saturation rate.  Message-bound
// and barely compute-bound: exercises comm (mailbox handoffs, small
// messages) and the serve router; bypasses conv and par.
constexpr int kClusterRanks = 1;
constexpr int kBoosterRanks = 2;
constexpr double kClusterPeak = 2e8;    // flop/s
constexpr double kBoosterPeak = 8e8;    // flop/s
constexpr double kOverheadFlops = 4e5;  // per member per batch
constexpr int kBatchRows = 8;
constexpr double kMaxDelayS = 2e-3;
constexpr std::size_t kQueueCapacity = 256;
constexpr int kMaxOutstanding = 4;
constexpr double kLoad = 0.9;  ///< offered rate / modelled saturation
constexpr int kThreads = 1;

constexpr std::uint64_t kRunRequests = 3000;  ///< requests per measured run
constexpr std::uint64_t kWarmupRequests = 3000;
/// Measured runs whose latencies give the sim_* numbers: a fixed window, so
/// the modelled numbers do not depend on host speed.
constexpr int kSimRuns = 8;
constexpr double kSloS = 25e-3;  ///< p99 limit behind sim_slo_rate_rps
constexpr std::uint64_t kProbeRequests = 24000;
constexpr int kProbeSteps = 7;  ///< bisection steps: ~0.4% of saturation
constexpr int kSetupReps = 9;
/// Blocks of the host metrics (fastest_blocks): 4 runs, about a tenth of a
/// second, and the fastest quarter of them.  Each run is thousands of small
/// handoffs between rank threads, which the host's slow phases stretch by
/// half, so only the fastest blocks show the program's own speed.
constexpr std::size_t kBlockRuns = 4;
constexpr double kKeptShare = 0.25;
constexpr std::uint64_t kPredictionRequests = 256;
constexpr long kTraceSpans = 1 << 17;

struct Seeds {
  std::uint64_t data;      ///< feature rows
  std::uint64_t model;     ///< served model init
  std::uint64_t arrivals;  ///< arrival traces
};

serve::ModelSpec model_spec(const Seeds& seeds) {
  serve::ModelSpec m;
  m.features = 64;
  m.hidden = {256, 128};
  m.classes = 8;
  m.seed = static_cast<unsigned>(seeds.model);
  return m;
}

/// Router on module 0 with the Cluster replica; the Booster replica on
/// module 1, behind the federation gateway.  Two devices per node, the
/// canonical flat link hierarchy.
simnet::Machine fleet_machine() {
  simnet::MachineConfig cfg;
  cfg.intra_node = {0.3e-6, 100e9, 0.1e-6};
  cfg.intra_module = {1.0e-6, 10e9, 0.3e-6};
  cfg.federation = {2.0e-6, 5e9, 0.5e-6};
  cfg.storage = {1e-4, 2e9, 4e9};
  std::vector<simnet::RankLocation> placement;
  std::vector<simnet::ComputeProfile> compute;
  auto add = [&](int module, int index, double peak, const char* name) {
    placement.push_back(
        {.module = module, .node = index / 2, .device = index % 2});
    simnet::ComputeProfile prof;
    prof.name = name;
    prof.peak_flops = peak;
    compute.push_back(prof);
  };
  add(0, 0, kClusterPeak, "serve-router");
  for (int i = 0; i < kClusterRanks; ++i) {
    add(0, 1 + i, kClusterPeak, "serve-cluster");
  }
  for (int i = 0; i < kBoosterRanks; ++i) {
    add(1, i, kBoosterPeak, "serve-booster");
  }
  return simnet::Machine(cfg, std::move(placement), std::move(compute));
}

std::vector<int> replica_sizes() { return {kClusterRanks, kBoosterRanks}; }

/// Modelled saturation, requests/s: each replica serving full batches back
/// to back, every member paying the batch overhead plus its share of the
/// forward, priced on the machine's own compute profiles.
double saturation_rps(const simnet::Machine& m, const serve::ModelSpec& spec) {
  double flops_per_row = 0.0;
  std::size_t prev = spec.features;
  for (std::size_t h : spec.hidden) {
    flops_per_row += 2.0 * static_cast<double>(prev * h);
    prev = h;
  }
  flops_per_row += 2.0 * static_cast<double>(prev * spec.classes);
  double rate = 0.0;
  int rank = 1;
  for (int members : replica_sizes()) {
    double t = 0.0;
    for (int s = 0; s < members; ++s) {
      t += m.compute(rank + s).kernel_time(
          kOverheadFlops + kBatchRows * flops_per_row / members, 0.0);
    }
    rate += kBatchRows / t;
    rank += members;
  }
  return rate;
}

serve::ServeOptions options(const Seeds& seeds, double rate_hz,
                            std::uint64_t count, std::uint64_t arrival_seed) {
  serve::ServeOptions o;
  o.arrivals.pattern = serve::ArrivalPattern::Poisson;
  o.arrivals.rate_hz = rate_hz;
  o.arrivals.count = count;
  o.arrivals.seed = arrival_seed;
  o.batch.max_batch_rows = kBatchRows;
  o.batch.max_delay_s = kMaxDelayS;
  o.queue_capacity = kQueueCapacity;
  o.replicas.replica_sizes = replica_sizes();
  o.replicas.model = model_spec(seeds);
  o.replicas.overhead_flops = kOverheadFlops;
  o.routing = serve::RoutingMode::LeastLoaded;
  o.max_outstanding = kMaxOutstanding;
  o.data_seed = seeds.data;
  o.record_spans = obs::Tracer::instance().armed();
  return o;
}

struct Served {
  serve::ServeStats stats;
  RunTiming timing;
  std::string error;
};

Served serve_once(comm::Runtime& rt, const serve::ServeOptions& o) {
  Served out;
  try {
    out.timing = timed_run(rt, [&](comm::Comm& comm) {
      serve::ServeStats stats;
      {
        obs::ScopedSpan span(obs::Category::Other, "bench_serve");
        stats = serve::run(comm, o);
      }
      if (comm.rank() == 0) out.stats = std::move(stats);
    });
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

std::vector<double> latencies_ms(const serve::ServeStats& s) {
  std::vector<double> v;
  v.reserve(s.records.size());
  for (const auto& r : s.records) v.push_back(r.latency_s * 1e3);
  return v;
}

/// Request accounting over every measured run.
struct Accounting {
  std::uint64_t offered = 0;
  std::uint64_t failed = 0;  ///< rejected or never completed
  bool ran = true;
  bool balanced = true;      ///< completed + rejected == offered
  bool exactly_once = true;  ///< each admitted id completes once
  std::string error;

  void add(const Served& s, std::uint64_t expected) {
    const serve::ServeStats& st = s.stats;
    if (!s.error.empty()) {
      ran = false;
      error = s.error;
    }
    offered += expected;
    failed += expected - std::min(expected, st.completed);
    balanced = balanced && st.offered == expected &&
               st.completed + st.rejected == st.offered;
    std::vector<char> seen(expected, 0);
    bool once = st.admitted == st.completed &&
                st.records.size() == st.completed;
    for (const auto& r : st.records) {
      if (r.id >= expected || seen[r.id] != 0) {
        once = false;
        break;
      }
      seen[r.id] = 1;
    }
    exactly_once = exactly_once && once;
  }

  void report(Result& out, const char* label) const {
    out.attempt(offered);
    out.fail(failed);
    out.check(ran, std::string(label) + ": every serving run completed" +
                       (error.empty() ? "" : " (" + error + ")"));
    out.check(balanced, std::string(label) +
                            ": completed + rejected == offered in every run");
    out.check(exactly_once,
              std::string(label) + ": every admitted id completed once");
  }
};

enum class Until { SetupOnly, Seconds, Runs };

struct Pass {
  double setup_s = 0.0;
  double gen_s = 0.0;
  double machine_s = 0.0;
  std::vector<double> run_ms;  ///< host wall time per measured run
  std::vector<double> overhead_ms;
  std::vector<double> marks;   ///< host time each run began, + end
  std::vector<double> served;  ///< requests completed per run
  double window_s = 0.0;
  std::uint64_t completed = 0;
  Accounting accounting;
  std::vector<std::uint64_t> sim_digests;  ///< first kSimRuns runs
  std::vector<double> sim_latency_ms;      ///< first kSimRuns runs
};

/// Traced-pass outputs beyond Pass (per-layer inputs).
struct Traced {
  Rollup rollup{"bench_serve"};
  Layers layers;
  std::uint64_t batches = 0;
  std::uint64_t rows = 0;
  std::vector<double> queue_ms, compute_ms, reply_ms, admit_lag_ms;
};

Pass run_pass(const Seeds& seeds, double rate, Until until, double seconds,
              std::size_t runs, Traced* traced) {
  Pass p;
  const double t0 = now_s();
  const double m0 = now_s();
  comm::Runtime rt(fleet_machine());
  p.machine_s = now_s() - m0;
  // The arrival trace is the input; the program regenerates it from the
  // spec, and the benchmark draws it once to check its shape.
  const double g0 = now_s();
  serve::ServeOptions warm =
      options(seeds, rate, kWarmupRequests, derive_seed(seeds.arrivals, 0));
  const std::vector<serve::Request> trace = serve::generate_trace(warm.arrivals);
  p.gen_s = now_s() - g0;
  if (trace.size() != kWarmupRequests) {
    throw std::runtime_error("arrival trace has the wrong length");
  }
  const Served warmup = serve_once(rt, warm);
  if (!warmup.error.empty()) throw std::runtime_error(warmup.error);
  p.setup_s = now_s() - t0;
  if (until == Until::SetupOnly) return p;

  const double w0 = now_s();
  for (std::size_t i = 0;; ++i) {
    p.marks.push_back(now_s());
    if (traced != nullptr) set_tracing(true);
    const serve::ServeOptions o =
        options(seeds, rate, kRunRequests, derive_seed(seeds.arrivals, 1 + i));
    Served s = serve_once(rt, o);
    p.run_ms.push_back(s.timing.wall_s * 1e3);
    p.overhead_ms.push_back(s.timing.overhead_s * 1e3);
    p.completed += s.stats.completed;
    p.served.push_back(static_cast<double>(s.stats.completed));
    p.accounting.add(s, kRunRequests);
    if (i < static_cast<std::size_t>(kSimRuns)) {
      p.sim_digests.push_back(s.stats.digest);
      const auto lat = latencies_ms(s.stats);
      p.sim_latency_ms.insert(p.sim_latency_ms.end(), lat.begin(), lat.end());
    }
    if (traced != nullptr) {
      obs::Tracer& tracer = obs::Tracer::instance();
      tracer.set_enabled(false);
      const std::vector<obs::Span> spans = tracer.snapshot();
      traced->rollup.add(spans);
      traced->layers.sim.add(spans, std::vector<double>(
                                        static_cast<std::size_t>(rt.ranks()),
                                        0.0));
      auto& reg = obs::Registry::instance();
      traced->layers.msgs +=
          static_cast<double>(reg.counter("comm.msgs_sent").value());
      traced->layers.bytes +=
          static_cast<double>(reg.counter("comm.bytes_sent").value());
      traced->layers.dropped_spans +=
          static_cast<double>(tracer.dropped_count());
      for (const auto& r : s.stats.replicas) {
        traced->batches += r.batches;
        traced->rows += r.rows;
      }
      for (const auto& r : s.stats.records) {
        traced->admit_lag_ms.push_back((r.admit_s - r.arrival_s) * 1e3);
        traced->queue_ms.push_back((r.dispatch_s - r.admit_s) * 1e3);
        traced->compute_ms.push_back((r.sent_s - r.dispatch_s) * 1e3);
        traced->reply_ms.push_back((r.reply_s - r.sent_s) * 1e3);
      }
    }
    const bool done =
        until == Until::Runs
            ? i + 1 >= runs
            : i + 1 >= static_cast<std::size_t>(kSimRuns) &&
                  now_s() - w0 >= seconds;
    if (done) break;
  }
  p.marks.push_back(now_s());
  p.window_s = p.marks.back() - w0;
  return p;
}

/// Served logits of one small run equal a local forward of the identically
/// seeded model, bit for bit.
bool predictions_match(const Seeds& seeds, double rate) {
  comm::Runtime rt(fleet_machine());
  serve::ServeOptions o = options(seeds, rate, kPredictionRequests,
                                  derive_seed(seeds.arrivals, 1 << 20));
  o.keep_predictions = true;
  const Served s = serve_once(rt, o);
  if (!s.error.empty() || s.stats.records.size() != kPredictionRequests) {
    return false;
  }
  const serve::ModelSpec spec = model_spec(seeds);
  tensor::Rng rng(spec.seed);
  const auto model = nn::make_mlp(spec.features, spec.hidden, spec.classes, rng);
  for (const auto& rec : s.stats.records) {
    tensor::Tensor x({1, spec.features});
    for (std::size_t c = 0; c < spec.features; ++c) {
      x.data()[c] = serve::feature_value(o.data_seed, rec.id, c);
    }
    const tensor::Tensor y = model->forward(x, /*training=*/false);
    if (rec.logits.size() != spec.classes ||
        std::memcmp(rec.logits.data(), y.data(),
                    spec.classes * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Highest offered rate whose exact modelled p99 stays within kSloS with no
/// rejection (a growing backlog overflows the bounded queue), by bisection
/// over [saturation / 2, saturation] on one fixed arrival stream.
double slo_rate(const Seeds& seeds, double saturation) {
  comm::Runtime rt(fleet_machine());
  auto meets = [&](double rate) {
    const Served s = serve_once(
        rt, options(seeds, rate, kProbeRequests,
                    derive_seed(seeds.arrivals, 1 << 21)));
    return s.error.empty() && s.stats.rejected == 0 &&
           s.stats.completed == kProbeRequests &&
           quantile(latencies_ms(s.stats), 0.99) <= kSloS * 1e3;
  };
  double lo = 0.5 * saturation;
  double hi = saturation;
  if (!meets(lo)) return 0.0;
  if (meets(hi)) return hi;
  for (int i = 0; i < kProbeSteps; ++i) {
    const double mid = 0.5 * (lo + hi);
    (meets(mid) ? lo : hi) = mid;
  }
  return lo;
}

void run_untraced(Result& out, const Seeds& seeds, const Options& opts,
                  double rate, double saturation) {
  // Set-ups before and after the measured pass, so that they sample the
  // host at both ends of the run.
  std::vector<double> setups;
  auto set_up = [&] {
    setups.push_back(run_pass(seeds, rate, Until::SetupOnly, 0.0, 0, nullptr)
                         .setup_s);
  };
  for (int r = 0; r < kSetupReps / 2; ++r) set_up();
  const Pass p = run_pass(seeds, rate, Until::Seconds, opts.seconds, 0, nullptr);
  setups.push_back(p.setup_s);
  while (setups.size() < static_cast<std::size_t>(kSetupReps)) set_up();
  p.accounting.report(out, "measured runs");
  out.check(predictions_match(seeds, rate),
            "served logits equal a local forward bit for bit");

  const FastBlocks fast =
      fastest_blocks(p.marks, p.served, p.run_ms, kBlockRuns, kKeptShare);
  out.metric("setup_s", median(setups), "s");
  out.metric("host_samples_per_s", fast.items_per_s, "samples/s");
  out.metric("step_ms_p50", median(fast.step_ms), "ms");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.info("host_requests_per_s", fast.items_per_s, "req/s");
  out.info("step_ms_p90", quantile(fast.step_ms, 0.90), "ms");
  out.info("step_ms_p50_window", median(p.run_ms), "ms");
  out.info("host_requests_per_s_window",
           p.window_s > 0.0 ? static_cast<double>(p.completed) / p.window_s
                            : 0.0,
           "req/s");
  out.info("offered_rate_rps", rate, "req/s");
  out.info("sim_saturation_rps", saturation, "req/s");
  out.info("sim_latency_ms_p50", quantile(p.sim_latency_ms, 0.50), "ms");
  out.info("sim_latency_ms_p99", quantile(p.sim_latency_ms, 0.99), "ms");
  out.info("sim_slo_rate_rps", slo_rate(seeds, saturation), "req/s");
  out.info("measured_runs", static_cast<double>(p.run_ms.size()), "runs");
}

void run_traced(Result& out, const Seeds& seeds, const Options& opts,
                double rate) {
  const Pass base =
      run_pass(seeds, rate, Until::Seconds, opts.seconds / 2.0, 0, nullptr);
  base.accounting.report(out, "untraced runs");
  Traced t;
  const Pass traced =
      run_pass(seeds, rate, Until::Runs, 0.0, base.run_ms.size(), &t);
  traced.accounting.report(out, "traced runs");
  out.check(traced.sim_digests == base.sim_digests &&
                traced.sim_latency_ms == base.sim_latency_ms,
            "sim_latency_ms_* identical with and without tracing");
  out.check(t.layers.dropped_spans == 0.0,
            "no span dropped (obs.dropped_spans = 0)");

  Layers& l = t.layers;
  l.steps = static_cast<double>(traced.run_ms.size());
  l.requests = static_cast<double>(traced.completed);
  l.run_overhead_ms = median(base.overhead_ms);
  l.rows_per_batch =
      t.batches > 0 ? static_cast<double>(t.rows) / static_cast<double>(t.batches)
                    : 0.0;
  l.sim_queue_ms_p99 = quantile(t.queue_ms, 0.99);
  l.sim_compute_ms_p50 = quantile(t.compute_ms, 0.50);
  l.sim_reply_ms_p50 = quantile(t.reply_ms, 0.50);
  l.admit_lag_ms_p99 = quantile(t.admit_lag_ms, 0.99);
  l.data_gen_s = 0.5 * (base.gen_s + traced.gen_s);
  l.build_machine_ms = 0.5 * (base.machine_s + traced.machine_s) * 1e3;
  // Median run times: between traced runs the benchmark rolls up spans,
  // which is its own cost, and a host stall in one pass is not tracing cost.
  const double base_ms = median(base.run_ms);
  l.trace_overhead_frac =
      base_ms > 0.0 ? median(traced.run_ms) / base_ms - 1.0 : 0.0;
  emit_layers(out, t.rollup, l);
  note_rollup(out, t.rollup, l.steps);
  out.info("sim_latency_ms_p50", quantile(traced.sim_latency_ms, 0.50), "ms");
  out.info("sim_latency_ms_p99", quantile(traced.sim_latency_ms, 0.99), "ms");
}

}  // namespace

Result run_serve(const Options& opts) {
  if (opts.workload != "serve_fleet") {
    throw std::invalid_argument("unknown workload");
  }
  setenv("MSA_THREADS", std::to_string(kThreads).c_str(), 1);
  par::set_num_threads(kThreads);
  if (opts.trace) {
    setenv("MSA_TRACE_SPANS", std::to_string(kTraceSpans).c_str(), 1);
    obs::Tracer::instance().configure_from_env();
    obs::Tracer::instance().set_enabled(false);
  }
  const Seeds seeds{derive_seed(opts.seed, 1), derive_seed(opts.seed, 2),
                    derive_seed(opts.seed, 3)};
  const serve::ModelSpec spec = model_spec(seeds);
  const double saturation = saturation_rps(fleet_machine(), spec);
  const double rate = kLoad * saturation;

  Result out;
  provenance(out, opts, 1 + kClusterRanks + kBoosterRanks, kThreads);
  if (opts.trace) {
    run_traced(out, seeds, opts, rate);
  } else {
    run_untraced(out, seeds, opts, rate, saturation);
  }
  return out;
}

}  // namespace perfbench
