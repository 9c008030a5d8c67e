// Training workloads: closed loops.  One driver runs each step after the
// previous one ends; rank 0 times its own step_classification call.
//
// A pass is one Runtime::run: every rank builds its model and trainer,
// broadcasts parameters and runs the warm-up steps (all of that is set-up),
// then the ranks meet once on a host barrier and run measured steps until
// rank 0 sees the time is up.  Rank 0 announces the last step index through
// an atomic before that step starts; every other rank's copy of a step needs
// rank 0's messages of the same step, so each rank reads the announcement
// before it could start the step after it.
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/machine_builder.hpp"
#include "core/module.hpp"
#include "data/synthetic.hpp"
#include "dist/distributed.hpp"
#include "dist/hybrid.hpp"
#include "harness.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/schedule.hpp"
#include "obs/metrics.hpp"
#include "par/pool.hpp"

namespace perfbench {
namespace {

using namespace msa;

enum class Shape { DataParallel, Local, Hybrid };

struct TrainWorkload {
  const char* name;
  Shape shape;
  int ranks;
  int threads;               ///< MSA_THREADS; ranks + threads - 1 <= nproc
  std::size_t global_batch;  ///< samples per optimisation step, all replicas
  /// Steps per block of host_samples_per_s (fastest_blocks, every block
  /// kept): about a second.
  std::size_t block_steps;
};

const TrainWorkload kWorkloads[] = {
    // train_dp — the paper's headline, Horovod data parallelism: ResNet-lite
    // (4 bands, 5 classes) on 16x16 multispectral patches, 4 JUWELS Booster
    // ranks with micro-batch 16 each, fp16 + backward-overlapped bucketed
    // allreduce.  Host time goes to the conv kernels and to rank skew on the
    // gradient allreduce.  Exercises nn, tensor and dist's reducer; bypasses
    // par's parallelism (one thread per rank).
    {"train_dp", Shape::DataParallel, 4, 1, 64, 8},
    // train_local — the single-worker baseline: the same model, data and
    // global batch of 64 on one rank with 4 pool threads.  The only workload
    // where par does the parallel work and comm/dist do none, so a comm
    // change should leave it unchanged.
    {"train_local", Shape::Local, 1, 4, 64, 8},
    // train_hybrid — the modular Cluster+Booster story: a [2 stages x 2
    // replicas] mesh, stage 0 on the JUWELS Cluster and stage 1 on the
    // Booster (topology-aware carve), 1F1B over 8 micro-batches of an MLP
    // 256-512-512-256-10 on tabular rows, batch 64 per replica.  Exercises
    // the pipeline schedule, deferred p2p activations, recompute and the
    // data-axis allreduce.  Dense GEMMs only, no conv.
    {"train_hybrid", Shape::Hybrid, 4, 1, 128, 32},
};

constexpr std::size_t kWarmupSteps = 3;
/// Measured steps whose simulated time defines sim_samples_per_s: a fixed
/// window, so the modelled number does not depend on host speed.
constexpr std::size_t kSimSteps = 16;
/// Every pass measures at least this many steps; the learning check reads
/// a fixed window of them, so its verdict depends on the seed alone.
constexpr std::size_t kMinSteps = 48;
/// Set-up repetitions in an untraced run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Span ring per thread in the traced run (MSA_TRACE_SPANS): room for every
/// rank-0 span of a half-length measured phase (train_dp records ~800 per
/// step), so none is dropped.
constexpr long kTraceSpans = 1 << 18;

constexpr std::size_t kImageSamples = 1024;
constexpr std::size_t kBands = 4;
constexpr std::size_t kPatch = 16;
constexpr std::size_t kClasses = 5;
constexpr std::size_t kTabularRows = 4096;
constexpr std::size_t kTabularFeatures = 256;
constexpr std::size_t kTabularClasses = 10;

struct Seeds {
  std::uint64_t data;
  std::uint64_t model;
  std::uint64_t shuffle;
};

/// Inputs the program receives, generated from the run seed.
struct Inputs {
  data::ImageDataset images;
  data::TabularDataset table;
};

Inputs make_inputs(const TrainWorkload& w, const Seeds& seeds) {
  Inputs in;
  if (w.shape == Shape::Hybrid) {
    in.table = data::make_tabular(kTabularRows, kTabularFeatures,
                                  kTabularClasses, seeds.data);
  } else {
    data::MultispectralConfig cfg;
    cfg.samples = kImageSamples;
    cfg.bands = kBands;
    cfg.patch = kPatch;
    cfg.classes = kClasses;
    cfg.seed = seeds.data;
    in.images = data::make_multispectral(cfg);
  }
  return in;
}

simnet::Machine make_machine(const TrainWorkload& w) {
  const core::MsaSystem juwels = core::make_juwels();
  const core::Module& booster = juwels.module(core::ModuleKind::Booster);
  if (w.shape != Shape::Hybrid) {
    return core::build_machine(juwels, booster, w.ranks);
  }
  // Half the ranks on the Cluster, half on the Booster.
  const core::Module& cluster = juwels.module(core::ModuleKind::Cluster);
  return core::build_machine(juwels, {{.module = &cluster, .ranks = w.ranks / 2},
                                      {.module = &booster, .ranks = w.ranks / 2}});
}

/// One rank's model, optimizer and data feed.
class Engine {
 public:
  virtual ~Engine() = default;
  /// Gather this rank's rows of global step @p step.
  virtual void load(std::size_t step) = 0;
  /// One optimisation step on the loaded rows; returns the loss.
  virtual float train(std::size_t step) = 0;
  [[nodiscard]] virtual const dist::OverlappedReducer* reducer() const {
    return nullptr;
  }
};

/// Rows of @p step from an epoch-shuffled shard of @p sampler.
class Feed {
 public:
  Feed(std::size_t size, int shard, int shards, std::uint64_t seed,
       std::size_t rows)
      : sampler_(size, shard, shards, seed), rows_(rows) {}

  std::vector<std::size_t> rows(std::size_t step) {
    const std::size_t per_epoch = sampler_.size() / rows_;
    const std::size_t epoch = step / per_epoch;
    if (epoch != epoch_ || indices_.empty()) {
      indices_ = sampler_.epoch_indices(epoch);
      epoch_ = epoch;
    }
    const auto at = static_cast<std::ptrdiff_t>((step % per_epoch) * rows_);
    return {indices_.begin() + at,
            indices_.begin() + at + static_cast<std::ptrdiff_t>(rows_)};
  }

 private:
  dist::ShardedSampler sampler_;
  std::size_t rows_;
  std::size_t epoch_ = 0;
  std::vector<std::size_t> indices_;
};

/// DistributedTrainer on ResNet-lite (train_dp over 4 ranks, train_local on
/// one).  The remote-sensing recipe: SGD with momentum, the learning rate
/// scaled to the global batch of 64 with a linear warm-up.
class ImageEngine final : public Engine {
 public:
  ImageEngine(comm::Comm& comm, const data::ImageDataset& images,
              const Seeds& seeds, std::size_t global_batch)
      : images_(images),
        feed_(images.size(), comm.rank(), comm.size(), seeds.shuffle,
              global_batch / static_cast<std::size_t>(comm.size())),
        schedule_(0.02, 4, 12),
        opt_(schedule_.lr(0), 0.9) {
    tensor::Rng rng(seeds.model);
    model_ = nn::make_resnet_rs(kBands, kClasses, rng);
    dist::AllreduceOptions ar;
    ar.fp16_compression = true;
    ar.overlap = true;
    trainer_.emplace(comm, *model_, opt_, ar);
    dist::broadcast_parameters(comm, trainer_->param_store());
  }

  void load(std::size_t step) override {
    const auto rows = feed_.rows(step);
    obs::ScopedSpan span(obs::Category::Other, "bench_batch");
    std::tie(x_, y_) = images_.batch(rows);
  }

  float train(std::size_t step) override {
    opt_.set_lr(schedule_.lr(step));
    return trainer_->step_classification(x_, y_).loss;
  }

  [[nodiscard]] const dist::OverlappedReducer* reducer() const override {
    return trainer_->reducer();
  }

 private:
  const data::ImageDataset& images_;
  Feed feed_;
  nn::LargeBatchSchedule schedule_;
  nn::Sgd opt_;
  std::unique_ptr<nn::Sequential> model_;
  std::optional<dist::DistributedTrainer> trainer_;
  nn::Tensor x_;
  std::vector<std::int32_t> y_;
};

/// HybridStrategy over a [2 stages x 2 replicas] mesh (train_hybrid).
class HybridEngine final : public Engine {
 public:
  HybridEngine(comm::Comm& comm, const data::TabularDataset& table,
               const Seeds& seeds, std::size_t global_batch)
      : table_(table),
        strategy_(
            comm,
            [seed = seeds.model] {
              tensor::Rng rng(seed);
              return nn::make_mlp(kTabularFeatures, {512, 512, 256},
                                  kTabularClasses, rng);
            },
            [] { return std::make_unique<nn::Sgd>(0.05, 0.9); },
            dist::HybridOptions{.pipeline_stages = 2,
                                .microbatches = 8,
                                .topology_aware = true,
                                .allreduce = {}}),
        feed_(table.y.size(), strategy_.data_shard().first,
              strategy_.data_shard().second, seeds.shuffle,
              global_batch /
                  static_cast<std::size_t>(strategy_.data_shard().second)) {
    strategy_.align_initial();
  }

  void load(std::size_t step) override {
    const auto rows = feed_.rows(step);
    obs::ScopedSpan span(obs::Category::Other, "bench_batch");
    x_ = nn::Tensor({rows.size(), kTabularFeatures});
    y_.resize(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const float* src = table_.x.data() + rows[i] * kTabularFeatures;
      std::copy(src, src + kTabularFeatures, x_.data() + i * kTabularFeatures);
      y_[i] = table_.y[rows[i]];
    }
  }

  float train(std::size_t /*step*/) override {
    return strategy_.step_classification(x_, y_).loss;
  }

 private:
  const data::TabularDataset& table_;
  dist::HybridStrategy strategy_;
  Feed feed_;
  nn::Tensor x_;
  std::vector<std::int32_t> y_;
};

std::unique_ptr<Engine> make_engine(const TrainWorkload& w, comm::Comm& comm,
                                    const Inputs& in, const Seeds& seeds) {
  if (w.shape == Shape::Hybrid) {
    return std::make_unique<HybridEngine>(comm, in.table, seeds,
                                          w.global_batch);
  }
  return std::make_unique<ImageEngine>(comm, in.images, seeds, w.global_batch);
}

enum class Until { SetupOnly, Seconds, Steps };

struct Pass {
  double setup_s = 0.0;
  double gen_s = 0.0;
  double machine_s = 0.0;
  RunTiming timing;
  double window_s = 0.0;  ///< host time of the measured steps, all ranks
  std::vector<double> step_ms;  ///< rank 0, per measured step
  std::vector<double> marks;    ///< rank 0: host time each step began, + end
  std::vector<float> losses;    ///< rank 0, per measured step
  float initial_loss = 0.0f;    ///< rank 0, first warm-up step (untrained)
  double sim_window_s = 0.0;    ///< rank 0 sim time of the first kSimSteps
  std::vector<double> sim_t0;   ///< per rank: sim clock at the first step
  double buckets = 0.0;
  double launched_in_backward = 0.0;
  std::string error;
  std::vector<obs::Span> spans;  ///< traced passes only
  double msgs = 0.0;
  double bytes = 0.0;
  double dropped = 0.0;
};

Pass run_pass(const TrainWorkload& w, const Seeds& seeds, Until until,
              double seconds, std::size_t steps, bool traced) {
  Pass p;
  const double t0 = now_s();
  const Inputs inputs = make_inputs(w, seeds);
  p.gen_s = now_s() - t0;
  const double m0 = now_s();
  comm::Runtime rt(make_machine(w));
  p.machine_s = now_s() - m0;

  std::atomic<std::size_t> last{std::numeric_limits<std::size_t>::max()};
  double measure_t0 = 0.0;
  double measure_t1 = 0.0;
  auto setup_done = [&]() noexcept {
    p.setup_s = now_s() - t0;
    if (traced) set_tracing(true);
    measure_t0 = now_s();
  };
  auto measure_done = [&]() noexcept {
    measure_t1 = now_s();
    if (traced) obs::Tracer::instance().set_enabled(false);
  };
  std::barrier setup_barrier(w.ranks, setup_done);
  std::barrier end_barrier(w.ranks, measure_done);
  p.sim_t0.assign(static_cast<std::size_t>(w.ranks), 0.0);

  try {
    p.timing = timed_run(rt, [&](comm::Comm& comm) {
      bool at_setup = false;
      bool at_end = false;
      try {
        std::unique_ptr<Engine> engine = make_engine(w, comm, inputs, seeds);
        for (std::size_t i = 0; i < kWarmupSteps; ++i) {
          engine->load(i);
          const float loss = engine->train(i);
          if (i == 0 && comm.rank() == 0) p.initial_loss = loss;
        }
        at_setup = true;
        setup_barrier.arrive_and_wait();
        if (until == Until::SetupOnly) {
          at_end = true;
          end_barrier.arrive_and_wait();
          return;
        }
        const bool driver = comm.rank() == 0;
        p.sim_t0[static_cast<std::size_t>(comm.rank())] = comm.sim_now();
        for (std::size_t i = 0; i <= last.load(); ++i) {
          if (driver) {
            p.marks.push_back(now_s());
            const bool enough =
                until == Until::Steps
                    ? i + 1 >= steps
                    : i + 1 >= kMinSteps && now_s() - measure_t0 >= seconds;
            if (enough) last.store(i);
          }
          const std::size_t step = kWarmupSteps + i;
          engine->load(step);
          const double a = now_s();
          float loss = 0.0f;
          {
            obs::ScopedSpan span(obs::Category::Other, "bench_step");
            loss = engine->train(step);
          }
          if (driver) {
            p.step_ms.push_back((now_s() - a) * 1e3);
            p.losses.push_back(loss);
            if (i + 1 == kSimSteps) p.sim_window_s = comm.sim_now() - p.sim_t0[0];
          }
        }
        if (driver) p.marks.push_back(now_s());
        if (driver && engine->reducer() != nullptr) {
          p.buckets = static_cast<double>(engine->reducer()->bucket_count());
          p.launched_in_backward =
              static_cast<double>(engine->reducer()->launched_in_backward());
        }
        at_end = true;
        end_barrier.arrive_and_wait();
      } catch (...) {
        // Leave the barriers so the other ranks cannot wait forever.
        if (!at_setup) setup_barrier.arrive_and_drop();
        if (!at_end) end_barrier.arrive_and_drop();
        throw;
      }
    });
  } catch (const std::exception& e) {
    p.error = e.what();
  }
  p.window_s = measure_t1 - measure_t0;
  if (traced) {
    obs::Tracer::instance().set_enabled(false);
    p.spans = obs::Tracer::instance().snapshot();
    p.dropped = static_cast<double>(obs::Tracer::instance().dropped_count());
    auto& reg = obs::Registry::instance();
    p.msgs = static_cast<double>(reg.counter("comm.msgs_sent").value());
    p.bytes = static_cast<double>(reg.counter("comm.bytes_sent").value());
  }
  return p;
}

double sim_samples_per_s(const TrainWorkload& w, const Pass& p) {
  return p.sim_window_s > 0.0
             ? static_cast<double>(kSimSteps * w.global_batch) / p.sim_window_s
             : 0.0;
}

/// Output checks on one measured pass: it ran, every loss is finite, and
/// the model learned over the first kMinSteps measured steps.
void check_pass(Result& out, const Pass& p, const char* label) {
  out.check(p.error.empty(),
            std::string(label) + ": every step ran" +
                (p.error.empty() ? "" : " (" + p.error + ")"));
  std::uint64_t bad = 0;
  for (float l : p.losses) bad += std::isfinite(l) ? 0 : 1;
  out.attempt(p.losses.size());
  out.fail(bad);
  out.check(bad == 0, std::string(label) + ": every loss is finite");
  // Rank-0 losses are per micro-batch: once the model fits the synthetic
  // data (within a few steps) they sit near zero with spikes, so the check
  // takes a median and compares it with the untrained model's loss; a
  // model that does not learn stays near that loss.
  const bool learned =
      p.losses.size() >= kMinSteps &&
      median({p.losses.begin() + kMinSteps - 16,
              p.losses.begin() + kMinSteps}) < 0.5 * p.initial_loss;
  out.check(learned, std::string(label) +
                         ": median loss of measured steps 32-47 is below "
                         "half the first warm-up step's loss");
}

void run_untraced(Result& out, const TrainWorkload& w, const Seeds& seeds,
                  const Options& opts) {
  // Set-ups before and after the measured pass, so that they sample the
  // host at both ends of the run.
  std::vector<double> setups;
  auto set_up = [&] {
    setups.push_back(
        run_pass(w, seeds, Until::SetupOnly, 0.0, 0, false).setup_s);
  };
  for (int r = 0; r < kSetupReps / 2; ++r) set_up();
  const Pass p = run_pass(w, seeds, Until::Seconds, opts.seconds, 0, false);
  setups.push_back(p.setup_s);
  while (setups.size() < static_cast<std::size_t>(kSetupReps)) set_up();
  check_pass(out, p, "measured pass");

  const double steps = static_cast<double>(p.step_ms.size());
  out.metric("setup_s", median(setups), "s");
  const FastBlocks fast = fastest_blocks(
      p.marks,
      std::vector<double>(p.step_ms.size(), static_cast<double>(w.global_batch)),
      p.step_ms, w.block_steps, 1.0);
  out.metric("host_samples_per_s", fast.items_per_s, "samples/s");
  out.info("host_samples_per_s_window",
           p.window_s > 0.0
               ? steps * static_cast<double>(w.global_batch) / p.window_s
               : 0.0,
           "samples/s");
  out.metric("step_ms_p50", median(fast.step_ms), "ms");
  out.info("step_ms_p90", quantile(fast.step_ms, 0.90), "ms");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.info("sim_samples_per_s", sim_samples_per_s(w, p), "samples/s");
  out.info("measured_steps", steps, "steps");
  out.info("final_loss", p.losses.empty() ? 0.0 : p.losses.back(), "nats");
}

void run_traced(Result& out, const TrainWorkload& w, const Seeds& seeds,
                const Options& opts) {
  // Untraced half, then a traced pass over the same steps: the gap is the
  // tracing overhead, and every simulated number must agree exactly.
  const Pass base =
      run_pass(w, seeds, Until::Seconds, opts.seconds / 2.0, 0, false);
  check_pass(out, base, "untraced pass");
  const std::size_t steps = base.step_ms.size();
  const Pass traced = run_pass(w, seeds, Until::Steps, 0.0, steps, true);
  check_pass(out, traced, "traced pass");
  out.check(traced.step_ms.size() == steps,
            "traced pass ran the untraced pass's step count");
  out.check(traced.sim_window_s == base.sim_window_s,
            "sim_samples_per_s identical with and without tracing");
  out.check(traced.losses == base.losses,
            "losses identical with and without tracing");
  out.check(traced.dropped == 0.0, "no span dropped (obs.dropped_spans = 0)");

  Rollup rollup("bench_step");
  rollup.add(traced.spans);
  out.check(rollup.coverage() >= 0.9,
            "library spans cover >= 90% of the rank-0 step");

  Layers l;
  l.steps = static_cast<double>(steps);
  l.msgs = traced.msgs;
  l.bytes = traced.bytes;
  l.run_overhead_ms =
      0.5 * (base.timing.overhead_s + traced.timing.overhead_s) * 1e3;
  l.buckets_per_step = traced.buckets;
  l.buckets_launched_in_backward = traced.launched_in_backward;
  if (w.shape == Shape::Hybrid && l.steps > 0.0) {
    // The pipeline's data-axis reduction runs one allreduce per bucket.
    l.buckets_per_step =
        static_cast<double>(
            rollup.nested("comm/allreduce_grads", "comm/allreduce")) /
        l.steps;
  }
  l.sim.add(traced.spans, traced.sim_t0);
  l.data_gen_s = 0.5 * (base.gen_s + traced.gen_s);
  l.data_batch_ms_per_step =
      l.steps > 0.0 ? rollup.rank0("other/bench_batch").incl_ns * 1e-6 / l.steps
                    : 0.0;
  l.build_machine_ms = 0.5 * (base.machine_s + traced.machine_s) * 1e3;
  // Median step times, so a host stall in one pass does not read as tracing
  // cost.
  const double base_ms = median(base.step_ms);
  l.trace_overhead_frac =
      base_ms > 0.0 ? median(traced.step_ms) / base_ms - 1.0 : 0.0;
  l.dropped_spans = traced.dropped;
  emit_layers(out, rollup, l);
  note_rollup(out, rollup, l.steps);
  out.info("sim_samples_per_s", sim_samples_per_s(w, traced), "samples/s");
}

}  // namespace

Result run_train(const Options& opts) {
  const TrainWorkload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (opts.workload == cand.name) w = &cand;
  }
  if (w == nullptr) throw std::invalid_argument("unknown workload");
  setenv("MSA_THREADS", std::to_string(w->threads).c_str(), 1);
  par::set_num_threads(static_cast<std::size_t>(w->threads));
  if (opts.trace) {
    setenv("MSA_TRACE_SPANS", std::to_string(kTraceSpans).c_str(), 1);
    obs::Tracer::instance().configure_from_env();
    obs::Tracer::instance().set_enabled(false);
  }
  const Seeds seeds{derive_seed(opts.seed, 1), derive_seed(opts.seed, 2),
                    derive_seed(opts.seed, 3)};

  Result out;
  provenance(out, opts, w->ranks, w->threads);
  if (opts.trace) {
    run_traced(out, *w, seeds, opts);
  } else {
    run_untraced(out, *w, seeds, opts);
  }
  return out;
}

}  // namespace perfbench
