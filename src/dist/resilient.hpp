// Elastic fault-tolerant training (the recovery discipline the paper's long
// Horovod runs on DEEP/JUWELS live by, and what elastic Horovod automates:
// detect a dead worker, rebuild the communicator around it, restore
// replicated state, re-shard the data, continue).
//
// ResilientTrainer is a strategy-agnostic resilience loop.  It owns the
// communicator lifecycle and drives a ResilientStrategy — the object that
// knows how one parallelism layout (plain data parallelism, a hybrid
// DP x PP mesh, ...) trains a batch, serialises its resumable state, and
// re-wires itself over a shrunken world.  The loop supplies:
//   * periodic in-memory snapshots of the strategy's state blob, plus
//     optional atomic on-disk checkpoints via nn/serialize,
//   * failure detection through the comm layer's typed errors
//     (RankFailedError from the liveness board, CommTimeoutError from the
//     wall-clock backstop),
//   * deterministic Comm::shrink around the dead set, strategy rebuild
//     (e.g. pipeline stage re-partitioning), snapshot restore, state
//     re-broadcast, and ShardedSampler re-shard over the survivors,
//   * honest simulated cost: snapshots/restores are charged at the storage
//     module's bandwidth and re-broadcasts ride the normal fabric model.
//
// With no faults armed, driving the default DataParallelStrategy is
// bit-identical to driving DistributedTrainer directly (snapshots copy
// state but never mutate it).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/comm.hpp"
#include "dist/distributed.hpp"
#include "dist/health.hpp"

namespace msa::dist {

struct ResilientOptions {
  int checkpoint_interval = 10;   ///< steps between slab snapshots
  std::string checkpoint_dir;     ///< when set, rank 0 mirrors snapshots to disk
  double wall_backstop_s = 0.25;  ///< real-seconds recv backstop (0 = off)
  int backstop_retries = 2;       ///< doubled re-waits for transient stragglers
  int max_recoveries = 8;         ///< abort after this many recovery cycles
  std::uint64_t sampler_seed = 42;
  /// Fail-slow detection and mitigation (see dist/health.hpp); off by
  /// default so the fault-free fast path is untouched.
  HealthOptions health;
};

/// What resilience cost during a training run.
struct ResilienceReport {
  int recoveries = 0;              ///< completed shrink-restore cycles
  int steps_replayed = 0;          ///< steps re-executed after rollbacks
  /// Backstop expiries later satisfied, summed across the final world (and
  /// the per-rank maximum — gray failures show up as one rank dominating).
  std::uint64_t straggler_events = 0;
  std::uint64_t straggler_events_max = 0;
  std::vector<int> dead_ranks;     ///< world ranks removed from the job
  int final_world = 0;             ///< communicator size at the end
  double checkpoint_time_s = 0.0;  ///< simulated time writing snapshots
  double restore_time_s = 0.0;     ///< simulated time reading them back
  int rebalances = 0;              ///< adopted re-shard decisions
  int demotions = 0;               ///< ranks evicted for persistent slowness
  /// Restores that found the newest on-disk checkpoint generation corrupt
  /// (torn write / bit flip) and promoted the previous generation (rank 0).
  int checkpoint_fallbacks = 0;
  std::uint64_t health_digest = 0;  ///< HealthMonitor decision-chain digest
};

struct TrainResult {
  double mean_loss = 0.0;  ///< final-epoch loss, averaged across survivors
  double accuracy = 0.0;   ///< final-epoch accuracy, averaged across survivors
};

/// The strategy's resumable state, as captured at a snapshot boundary.
/// Must be identical on every rank and sufficient to resume after *any*
/// membership change (a mesh strategy therefore captures the full model,
/// not just this rank's shard).
struct StateBlob {
  std::vector<float> params;
  std::vector<float> opt_state;
  std::vector<double> scalars;  ///< optimizer scalar state (e.g. Adam's t)
  [[nodiscard]] std::uint64_t byte_size() const {
    return (params.size() + opt_state.size()) * sizeof(float) +
           scalars.size() * sizeof(double);
  }
};

/// One parallelism layout under the resilience loop.  Implementations keep a
/// reference to the loop's communicator handle (which is reseated in place
/// on recovery) and re-derive everything else from it in rebuild().
class ResilientStrategy {
 public:
  virtual ~ResilientStrategy() = default;

  /// Train one batch (the strategy decides microbatching etc.).
  virtual StepResult step_classification(
      const nn::Tensor& x, const std::vector<std::int32_t>& labels) = 0;

  /// This rank's live slab store (for checkpoints and inspection).
  virtual nn::ParamStore& param_store() = 0;
  /// The optimizer whose scalar state rides the snapshots.
  virtual nn::Optimizer& optimizer() = 0;

  /// (shard index, shard count) for the data sampler.  Plain DP shards per
  /// rank; a mesh shards per data-parallel replica so every stage of one
  /// replica chain sees the same batch.
  [[nodiscard]] virtual std::pair<int, int> data_shard() const = 0;

  /// Serialise resumable state (may communicate — e.g. gather every
  /// pipeline stage's slab so the blob is partition-independent).
  virtual StateBlob capture_state() = 0;
  /// Local inverse of capture_state under the *current* layout (rebuild()
  /// runs first after a membership change).  No communication.
  virtual void load_state(const StateBlob& blob) = 0;

  /// Cross-rank parameter alignment at train start.
  virtual void align_initial() = 0;
  /// Cross-rank realignment (parameters + optimizer state) after
  /// load_state during recovery.
  virtual void align_restored() = 0;

  /// Re-wire onto the (reseated, possibly shrunken) communicator — e.g.
  /// re-partition pipeline stages over the survivors.
  virtual void rebuild() = 0;

  /// Average of a scalar across ranks (metric reporting).
  virtual double average_metric(double value) = 0;

  /// Scale the loss gradient by @p scale before backward (weighted
  /// micro-batching under throughput-aware re-sharding).  Returns false when
  /// the layout cannot honour it (the loop then keeps uniform shards).
  virtual bool set_grad_scale(double /*scale*/) { return false; }
};

/// The default strategy: plain data parallelism via DistributedTrainer.
/// Snapshot blob = this rank's slabs (all replicas identical); rebuild is a
/// no-op because every collective adapts to the shrunken communicator.
class DataParallelStrategy final : public ResilientStrategy {
 public:
  /// @p comm must be the resilience loop's owned handle: the strategy keeps
  /// the reference across recoveries.
  DataParallelStrategy(comm::Comm& comm, nn::Layer& model, nn::Optimizer& opt);

  StepResult step_classification(
      const nn::Tensor& x, const std::vector<std::int32_t>& labels) override {
    return trainer_.step_classification(x, labels);
  }
  nn::ParamStore& param_store() override { return trainer_.param_store(); }
  nn::Optimizer& optimizer() override { return opt_; }
  [[nodiscard]] std::pair<int, int> data_shard() const override {
    return {comm_.rank(), comm_.size()};
  }
  StateBlob capture_state() override;
  void load_state(const StateBlob& blob) override;
  void align_initial() override;
  void align_restored() override;
  void rebuild() override {}
  double average_metric(double value) override {
    return trainer_.average_metric(value);
  }
  bool set_grad_scale(double scale) override {
    trainer_.set_loss_scale(scale);
    return true;
  }

 private:
  comm::Comm& comm_;
  nn::Optimizer& opt_;
  DistributedTrainer trainer_;
};

class ResilientTrainer {
 public:
  /// Builds the strategy over the trainer's owned communicator handle.
  /// Called exactly once during construction; the strategy must keep the
  /// comm reference (it is reseated in place on recovery).
  using StrategyFactory =
      std::function<std::unique_ptr<ResilientStrategy>(comm::Comm&)>;

  /// Data-parallel form (legacy): wraps model/opt in DataParallelStrategy.
  /// @p comm is copied: the trainer owns its communicator handle so it can
  /// swap in shrunken replacements without disturbing the caller's.
  ResilientTrainer(comm::Comm& comm, nn::Layer& model, nn::Optimizer& opt,
                   ResilientOptions options = {});

  /// Strategy form: resilience over any parallelism layout (see
  /// dist/hybrid.hpp for the DP x PP mesh strategy).
  ResilientTrainer(comm::Comm& comm, const StrategyFactory& make,
                   ResilientOptions options = {});

  /// Train @p epochs epochs of classification over the full dataset
  /// (@p x is [N, ...], one label per row), sharded by the strategy's
  /// data_shard() and re-sharded over the survivors after every recovery.
  /// Throws only if recovery itself fails max_recoveries times (or this
  /// rank is killed by an armed fault plan).
  TrainResult train_classification(const nn::Tensor& x,
                                   const std::vector<std::int32_t>& labels,
                                   std::size_t batch_size, int epochs);

  [[nodiscard]] nn::ParamStore& param_store() {
    return strategy_->param_store();
  }
  /// Current communicator (shrinks as ranks die).
  [[nodiscard]] comm::Comm& comm() { return comm_; }
  [[nodiscard]] ResilientStrategy& strategy() { return *strategy_; }
  [[nodiscard]] const ResilienceReport& report() const { return report_; }
  /// The fail-slow monitor (decision log and digest; see dist/health.hpp).
  [[nodiscard]] const HealthMonitor& health() const { return health_; }

 private:
  /// Strategy blob plus the loop position and metric accumulators needed to
  /// resume mid-epoch.
  struct Snapshot {
    StateBlob state;
    int epoch = 0;
    int batch = 0;  ///< next batch index within epoch
    int global_step = 0;
    double loss_sum = 0.0;
    double acc_sum = 0.0;
    std::int64_t metric_count = 0;
    bool valid = false;
  };

  void take_snapshot(int epoch, int batch, int global_step);
  void restore_snapshot();
  /// Rebuild the communicator around the failed set, re-wire the strategy,
  /// and restore state.  Safe against failures racing with recovery: the
  /// shrink id is a pure function of the dead set, so retries converge.
  /// Survivors can abort at most one snapshot boundary apart (a rank whose
  /// messages were already queued finishes the boundary step, a rank
  /// blocked on an unforwarded chunk does not), so after the rendezvous the
  /// survivors agree on the minimum snapshot step and ranks ahead of it
  /// fall back to prev_.
  void recover();

  /// Re-arm fail-slow machinery over the current membership (train start and
  /// after every recovery): uniform shards, unit grad scale, fresh window.
  void rearm_health(std::size_t batch_size);
  /// Apply one collectively-agreed health decision; throws RankDemotedError
  /// when this rank is the demotee.
  void apply_health_decision(const HealthDecision& decision, int global_step);

  comm::Comm comm_;   // current communicator; reseated on recovery
  comm::Comm world_;  // original communicator: the base every shrink derives from
  ResilientOptions options_;
  std::unique_ptr<ResilientStrategy> strategy_;
  HealthMonitor health_{HealthOptions{}};
  std::unique_ptr<AdaptiveBackstop> adaptive_backstop_;
  bool grad_scale_supported_ = false;
  Snapshot snap_;
  Snapshot prev_;  // one boundary older than snap_ (see recover())
  ResilienceReport report_;
  double loss_sum_ = 0.0;
  double acc_sum_ = 0.0;
  std::int64_t metric_count_ = 0;
};

}  // namespace msa::dist
