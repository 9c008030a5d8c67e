// Horovod-style data-parallel training primitives (the "distributed DL
// training tools such as Horovod" of paper Sec. III-A, Fig. 3 N).
//
// The three pillars, exactly as in Horovod:
//   1. broadcast_parameters      — all replicas start identical (bcast from 0)
//   2. OverlappedReducer         — average grads each step: tensor fusion
//                                  (bucketing), optional fp16 compression,
//                                  optional hierarchical split, optionally
//                                  overlapped with the backward pass
//   3. ShardedSampler            — disjoint per-rank data shards, reshuffled
//                                  each epoch with a common seed
// plus a DistributedTrainer that ties them to the nn:: layer stack and
// charges simulated compute time for the roofline model of the host device.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "dist/compression.hpp"
#include "dist/overlap.hpp"
#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"

namespace msa::dist {

/// Options for gradient reduction.
struct AllreduceOptions {
  std::size_t bucket_bytes = 4u << 20;  ///< Horovod-style tensor fusion size
  bool fp16_compression = false;        ///< halve wire traffic via binary16
  /// Launch each bucket's allreduce nonblocking as soon as the backward pass
  /// finalises its gradients (Horovod's overlap), draining before the
  /// optimizer.  Bucket boundaries and per-bucket reduction calls are the
  /// same as without it, so results match bit for bit.
  bool overlap = false;
  /// Compose intra-node ring reduce-scatter/allgather with an inter-node
  /// allreduce (see overlap.hpp).  Ignored when the machine topology gives
  /// the split nothing to exploit.
  bool hierarchical = false;
  std::optional<simnet::CollectiveAlgorithm> algorithm;  ///< force algorithm
};

/// Broadcast every parameter tensor of @p model from @p root, so all
/// replicas start from identical weights (Horovod broadcast_variables).
void broadcast_parameters(comm::Comm& comm, nn::Layer& model, int root = 0);

/// Slab path: ONE bcast of the contiguous parameter slab.
void broadcast_parameters(comm::Comm& comm, nn::ParamStore& store,
                          int root = 0);

/// The one gradient-averaging path over a data axis (Horovod's tensor
/// fusion, fp16 compression and backward overlap, Sec. III-A).  The gradient
/// slab is cut into fixed offset-range buckets of bucket_bytes; each bucket
/// is summed across the communicator — as binary16 under fp16_compression,
/// through the reducer's own intra/cross split under `hierarchical` when the
/// topology has one — and scaled by 1/size().
///
/// Without `overlap`, finish() reduces every bucket blocking, in ascending
/// order, inside one "allreduce_grads" Comm span.  With `overlap`, the
/// reducer is the model's BackwardObserver: it watches layers finish their
/// backward pass in reverse order and launches a nonblocking reduction for
/// every bucket the moment its last contributing layer completes, while
/// earlier layers are still computing; finish() drains them outside any
/// span.  The hooks also charge each layer's backward compute (2x its
/// forward flops) so bucket issue times interleave honestly with compute;
/// the caller tops up any remainder.
///
/// Determinism: each bucket's payload is final when launched and buckets
/// are reduced independently by the same collective calls in both modes, so
/// overlapped and blocking runs are bit-identical regardless of launch
/// order.  Launch order only shapes the simulated timeline.
class OverlappedReducer : public nn::BackwardObserver {
 public:
  /// @p comm and @p store must outlive the reducer, and @p comm must have
  /// size() > 1.  Collective over @p comm when options.hierarchical is set
  /// (the split is built here).
  OverlappedReducer(comm::Comm& comm, nn::ParamStore& store,
                    AllreduceOptions options);

  /// Reset per-step tracking.  Call after zero_grads, before backward.
  void begin_step();

  /// BackwardObserver (overlap only): charge the layer's backward compute,
  /// mark its gradient ranges ready, launch any bucket that just filled.
  void on_layer_backward(nn::Layer& layer) override;

  /// Launch every bucket not launched yet, drain, and apply the fp16 unpack
  /// and 1/world scaling.
  void finish();

  /// True when buckets launch from backward hooks (options.overlap).
  [[nodiscard]] bool overlapped() const { return options_.overlap; }

  /// Backward flops charged through hooks this step (2x forward per layer).
  [[nodiscard]] double charged_flops() const { return charged_flops_; }

  /// Bucket count over the grad slab.
  [[nodiscard]] std::size_t bucket_count() const { return n_buckets_; }

  /// Buckets launched from inside the backward pass this step (the rest
  /// launched at finish()); visibility for tests and benches.
  [[nodiscard]] std::size_t launched_in_backward() const {
    return launched_in_backward_;
  }

 private:
  [[nodiscard]] std::span<float> bucket(std::size_t b) const;
  void launch_bucket(std::size_t b);
  /// Sum @p wire (a bucket, or its binary16 image) across the data axis:
  /// now, or deferred to the progress engine under `overlap`.
  template <typename T>
  void reduce(std::span<T> wire);

  comm::Comm& comm_;
  nn::ParamStore& store_;
  AllreduceOptions options_;
  std::optional<HierarchicalComms> hier_;
  std::size_t bucket_elems_;
  std::size_t n_buckets_;
  std::vector<std::size_t> remaining_;   // unready elements per bucket
  std::vector<char> launched_;           // per bucket
  std::vector<char> seen_;               // per registered grad tensor
  std::vector<std::vector<Half>> half_;  // per-bucket fp16 wire scratch
  std::vector<comm::Request> requests_;
  std::size_t launched_in_backward_ = 0;
  double charged_flops_ = 0.0;
};

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

/// Result of one distributed optimisation step.
struct StepResult {
  float loss = 0.0f;       ///< this rank's microbatch loss
  double accuracy = 0.0;   ///< classification only
};

/// Data-parallel trainer wrapping a model replica on one rank.
///
/// Construction builds a ParamStore over the model (relocating parameters,
/// gradients, and optimizer state into contiguous slabs) and, on more than
/// one rank, the OverlappedReducer that averages its gradient slab, so every
/// step runs the fused paths: slab-range allreduce and flat optimizer sweeps.
class DistributedTrainer {
 public:
  DistributedTrainer(comm::Comm& comm, nn::Layer& model, nn::Optimizer& opt,
                     AllreduceOptions options = {});

  ~DistributedTrainer();
  DistributedTrainer(const DistributedTrainer&) = delete;
  DistributedTrainer& operator=(const DistributedTrainer&) = delete;

  /// The slab store backing this trainer's model.
  [[nodiscard]] nn::ParamStore& param_store() { return store_; }

  /// The gradient reducer; null on a one-rank communicator.
  [[nodiscard]] const OverlappedReducer* reducer() const {
    return reducer_ ? &*reducer_ : nullptr;
  }

  /// Classification step on this rank's microbatch.  Forward, backward,
  /// gradient allreduce, optimizer step; charges simulated compute time for
  /// forward+backward (2x forward flops for backward, the standard model).
  StepResult step_classification(const nn::Tensor& x,
                                 const std::vector<std::int32_t>& labels);

  /// Regression step (MAE when @p use_mae, else MSE) — the ARDS recipe.
  StepResult step_regression(const nn::Tensor& x, const nn::Tensor& target,
                             bool use_mae = true);

  /// Average of a scalar across ranks (for loss/metric reporting).
  [[nodiscard]] double average_metric(double value);

  /// Scale applied to the loss gradient before backward.  Under weighted
  /// (throughput-aware) micro-batching each rank's gradient is a mean over a
  /// different row count b_r; scaling by P*b_r/B_total makes the 1/P
  /// allreduce average equal the true global-batch mean.  1.0 = uniform.
  void set_loss_scale(double scale) { loss_scale_ = scale; }
  [[nodiscard]] double loss_scale() const { return loss_scale_; }

 private:
  /// Shared tail of both step flavours: charge compute, reduce, apply.
  void backward_reduce_apply(const nn::Tensor& loss_grad, double fwd_flops);

  comm::Comm& comm_;
  nn::Layer& model_;
  nn::Optimizer& opt_;
  nn::ParamStore store_;
  std::optional<OverlappedReducer> reducer_;
  double loss_scale_ = 1.0;
};

}  // namespace msa::dist
