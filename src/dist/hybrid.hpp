// Elastic hybrid DP x PP training strategy over the dist::Mesh.
//
// HybridStrategy is the layout the ResilientTrainer loop drives
// (dist/resilient.hpp): one object that trains a batch through the engine
// (dist/pipeline.hpp) with data-parallel replication, serialises a
// partition-independent snapshot of the whole model, and — after a rank
// loss — re-partitions the pipeline over the shrunken world.  With
// HybridOptions{} (one stage, one microbatch) it is plain Horovod data
// parallelism.
//
// Re-partitioning policy: after a shrink to world' ranks, the new stage
// count is the largest S' <= min(requested S, world') with world' % S' == 0.
// Losing one rank of a [4 x 1] pipeline therefore re-partitions to [3 x 1];
// losing one rank of a [2 x 2] mesh (world' = 3) degrades to [3 x 1] pure
// data parallelism — training always continues on every survivor.
//
// Snapshots are partition-independent by construction: capture_state()
// gathers every stage's parameter slab down the pipe axis (honest fabric
// cost) into the full-model layout — parameters in layer order, optimizer
// state role-major ([all m | all v] for Adam) — so load_state() can carve
// the blob for *any* later partition: role j of a stage holding layers
// [off, off+n) lives at blob.opt_state[j*N + off, j*N + off + n).
//
// The model and optimizer are rebuilt from deterministic factories on every
// re-partition (same architecture, any init — parameters and optimizer
// state are overwritten by the restore).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "comm/comm.hpp"
#include "dist/mesh.hpp"
#include "dist/pipeline.hpp"

namespace msa::dist {

struct HybridOptions {
  /// Desired pipeline depth S.  Worlds (including shrunken ones) that
  /// cannot host it use the largest feasible S' (see file header).
  int pipeline_stages = 1;
  /// Microbatches per optimisation step (the 1F1B schedule length).
  int microbatches = 1;
  bool topology_aware = true;  ///< mesh carving (see dist/mesh.hpp)
  AllreduceOptions allreduce;  ///< data-axis gradient reduction knobs
};

/// The resumable training state, as captured at a snapshot boundary.
/// Identical on every rank and sufficient to resume after *any* membership
/// change: it holds the full model, not just this rank's stage.
struct StateBlob {
  std::vector<float> params;
  std::vector<float> opt_state;
  std::vector<double> scalars;  ///< optimizer scalar state (e.g. Adam's t)
  [[nodiscard]] std::uint64_t byte_size() const {
    return (params.size() + opt_state.size()) * sizeof(float) +
           scalars.size() * sizeof(double);
  }
};

class HybridStrategy {
 public:
  /// Deterministically rebuilds the full model: same architecture every
  /// call (initial values are irrelevant after the first restore).
  using ModelFactory = std::function<std::unique_ptr<nn::Sequential>()>;
  using OptimizerFactory = std::function<std::unique_ptr<nn::Optimizer>()>;

  /// @p comm is kept by reference: a resilience loop reseats it in place on
  /// recovery and then calls rebuild().  Collective: builds the initial
  /// mesh and pipeline.
  HybridStrategy(comm::Comm& comm, ModelFactory model_factory,
                 OptimizerFactory optimizer_factory, HybridOptions options);

  /// Train one batch: split into microbatches, one engine step.
  StepResult step_classification(const nn::Tensor& x,
                                 const std::vector<std::int32_t>& labels);
  nn::ParamStore& param_store() { return stage_->param_store(); }
  nn::Optimizer& optimizer() { return *optimizer_; }
  /// (shard index, shard count) for the sampler: one shard per replica
  /// chain, so every stage of a chain draws the same batch.
  [[nodiscard]] std::pair<int, int> data_shard() const {
    return {stage_->mesh().replica(), stage_->mesh().replicas()};
  }
  /// Serialise the full model (gathers every stage's slabs down the pipe).
  StateBlob capture_state();
  /// Inverse of capture_state under the current partition; no messages.
  void load_state(const StateBlob& blob);
  /// Align parameters across replicas (train start).
  void align_initial();
  /// Align parameters and optimizer state across replicas (recovery).
  void align_restored();
  /// Re-partition over the (reseated, possibly shrunken) communicator.
  void rebuild() { build(); }
  /// Average of a scalar across all ranks (metric reporting).
  double average_metric(double value);
  /// See PipelineStage::set_loss_scale.
  void set_loss_scale(double scale) { stage_->set_loss_scale(scale); }

  /// Stage count of the current partition (shrinks with the world).
  [[nodiscard]] int current_stages() const { return stages_now_; }

 private:
  /// (Re)partition the model over comm_ with the largest feasible stage
  /// count and construct the PipelineStage.  Collective.
  void build();

  comm::Comm& comm_;
  ModelFactory model_factory_;
  OptimizerFactory opt_factory_;
  HybridOptions options_;
  int stages_now_ = 1;
  std::vector<std::size_t> part_sizes_;  ///< param count per current stage
  std::unique_ptr<nn::Sequential> part_;  ///< this rank's stage of the model
  std::unique_ptr<nn::Optimizer> optimizer_;
  std::unique_ptr<PipelineStage> stage_;  ///< engine over part_/optimizer_
};

}  // namespace msa::dist
