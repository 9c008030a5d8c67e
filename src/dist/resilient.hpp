// Elastic fault-tolerant training (the recovery discipline the paper's long
// Horovod runs on DEEP/JUWELS live by, and what elastic Horovod automates:
// detect a dead worker, rebuild the communicator around it, restore
// replicated state, re-shard the data, continue).
//
// ResilientTrainer is the resilience loop around one HybridStrategy
// (dist/hybrid.hpp): plain data parallelism with HybridOptions{}, or a
// DP x PP mesh.  It owns the communicator lifecycle; the strategy trains a
// batch, serialises its resumable state, and re-partitions itself over a
// shrunken world.  The loop supplies:
//   * periodic in-memory snapshots of the strategy's state blob, plus
//     optional atomic on-disk checkpoints via nn/serialize,
//   * failure detection through the comm layer's typed errors
//     (RankFailedError from the liveness board, CommTimeoutError from the
//     wall-clock backstop),
//   * deterministic Comm::shrink around the dead set, strategy rebuild
//     (pipeline stage re-partitioning), snapshot restore, state
//     re-broadcast, and ShardedSampler re-shard over the survivors,
//   * honest simulated cost: snapshots/restores are charged at the storage
//     module's bandwidth and re-broadcasts ride the normal fabric model.
//
// With no faults armed, a one-stage run is bit-identical to driving
// DistributedTrainer directly (snapshots copy state but never mutate it).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "dist/distributed.hpp"
#include "dist/health.hpp"
#include "dist/hybrid.hpp"

namespace msa::dist {

struct ResilientOptions {
  int checkpoint_interval = 10;   ///< steps between slab snapshots
  std::string checkpoint_dir;     ///< when set, rank 0 mirrors snapshots to disk
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

class ResilientTrainer {
 public:
  /// Resilience around a HybridStrategy built from the factories and
  /// @p hybrid over the trainer's own communicator handle: @p comm is
  /// copied, so the trainer can swap in shrunken replacements without
  /// disturbing the caller's.  Collective when @p hybrid asks for more than
  /// one stage (the mesh carve).
  ResilientTrainer(comm::Comm& comm, HybridStrategy::ModelFactory model,
                   HybridStrategy::OptimizerFactory optimizer,
                   HybridOptions hybrid = {}, ResilientOptions options = {});

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
  [[nodiscard]] HybridStrategy& strategy() { return *strategy_; }
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
  /// Throughput-aware re-sharding re-weights each rank's gradient, which a
  /// pipeline cannot honour: only a one-stage layout gets it.
  bool weighted_shards_ = false;
  HealthMonitor health_{HealthOptions{}};
  /// Built after the recv backstop is set, so its communicators inherit it.
  std::optional<HybridStrategy> strategy_;
  Snapshot snap_;
  Snapshot prev_;  // one boundary older than snap_ (see recover())
  ResilienceReport report_;
  double loss_sum_ = 0.0;
  double acc_sum_ = 0.0;
  std::int64_t metric_count_ = 0;
};

}  // namespace msa::dist
