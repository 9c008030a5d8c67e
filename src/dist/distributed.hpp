// Horovod-style data-parallel training primitives (the "distributed DL
// training tools such as Horovod" of paper Sec. III-A, Fig. 3 N).
//
// The three pillars, exactly as in Horovod:
//   1. broadcast_parameters      — all replicas start identical (bcast from 0)
//   2. OverlappedReducer         — average grads each step: tensor fusion
//      (dist/overlap.hpp)          (bucketing), optional fp16 compression,
//                                  optional hierarchical split, optionally
//                                  overlapped with the backward pass
//   3. ShardedSampler            — disjoint per-rank data shards, reshuffled
//                                  each epoch with a common seed
// plus DistributedTrainer, the Horovod trainer's view of the one training
// engine (dist/pipeline.hpp): a one-stage pipeline over a [1 x W] mesh,
// where every rank is a replica and the data axis is the whole world.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "dist/overlap.hpp"
#include "dist/pipeline.hpp"
#include "nn/layer.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"

namespace msa::dist {

/// Broadcast every parameter tensor of @p model from @p root, so all
/// replicas start from identical weights (Horovod broadcast_variables).
void broadcast_parameters(comm::Comm& comm, nn::Layer& model, int root = 0);

/// Slab path: ONE bcast of the contiguous parameter slab.
void broadcast_parameters(comm::Comm& comm, nn::ParamStore& store,
                          int root = 0);

/// The common epoch-@p epoch shuffle of [0, dataset_size) every rank agrees
/// on (Fisher–Yates under a shared seed).  ShardedSampler strides over it;
/// the health monitor's throughput-aware re-sharding slices it into
/// contiguous weighted blocks instead.
[[nodiscard]] std::vector<std::size_t> full_epoch_permutation(
    std::size_t dataset_size, std::uint64_t seed, std::size_t epoch);

/// Deterministic epoch-shuffled shard of [0, dataset_size) for one rank.
/// All ranks use the same seed, so shards are disjoint and cover the set
/// (up to equal-size truncation, as in practice with drop_last).
class ShardedSampler {
 public:
  ShardedSampler(std::size_t dataset_size, int rank, int world,
                 std::uint64_t seed = 42);

  /// Indices owned by this rank for @p epoch; size() entries.
  [[nodiscard]] std::vector<std::size_t> epoch_indices(std::size_t epoch) const;

  /// Samples per rank per epoch (dataset_size / world, truncated).
  [[nodiscard]] std::size_t size() const { return per_rank_; }

 private:
  std::size_t dataset_size_;
  int rank_, world_;
  std::uint64_t seed_;
  std::size_t per_rank_;
};

/// Data-parallel trainer of one model replica: the training engine over a
/// one-stage mesh of @p comm.  Construction sends nothing (the hierarchical
/// option splits the data axis), and a step returns this rank's own loss
/// and accuracy.
class DistributedTrainer {
 public:
  /// @p model and @p opt must outlive the trainer.
  DistributedTrainer(comm::Comm& comm, nn::Layer& model, nn::Optimizer& opt,
                     AllreduceOptions options = {})
      : engine_(Mesh(comm), model, opt, options) {}

  /// The slab store backing this trainer's model.
  [[nodiscard]] nn::ParamStore& param_store() {
    return engine_.param_store();
  }

  /// The gradient reducer; null on a one-rank communicator.
  [[nodiscard]] const OverlappedReducer* reducer() const {
    return engine_.reducer();
  }

  /// One step on this rank's batch: forward, backward, gradient average
  /// over the ranks, optimizer step.
  StepResult step_classification(const nn::Tensor& x,
                                 const std::vector<std::int32_t>& labels) {
    return engine_.step_classification(std::span(&x, 1),
                                       std::span(&labels, 1));
  }

  /// Average of a scalar across ranks (for loss/metric reporting).
  [[nodiscard]] double average_metric(double value);

 private:
  PipelineStage engine_;
};

}  // namespace msa::dist
