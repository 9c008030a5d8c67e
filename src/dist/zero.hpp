// ZeRO stage-1 optimizer state sharding (the key memory optimisation of
// DeepSpeed, which the paper names alongside Horovod in Sec. III-A).
//
// Instead of every data-parallel replica holding full optimizer state
// (Adam's m/v are 2x the model size), each rank owns 1/P of the flattened
// parameter space:
//   1. gradients are reduce-scattered (each rank receives the summed
//      gradient of *its* shard only — half the allreduce traffic),
//   2. the inner optimizer updates just the local shard (state memory 1/P),
//   3. updated parameter shards are allgathered back to every replica.
// The update is element-wise, so the result is bit-identical to a full
// allreduce + full optimizer step modulo summation order.
//
// Both collective phases ride the same substrate as gradient allreduce
// (AllreduceOptions):
//   - fp16_compression: both phases move binary16 on the wire.  A persistent
//     fp32 master copy of this rank's parameter shard feeds the inner
//     optimizer, so quantisation never accumulates into the update; every
//     replica (including the shard owner) installs the same wire-format
//     values, keeping replicas bit-identical.
//   - hierarchical: reduce-scatter and allgather decompose into an
//     intra-group pass over the fast fabric and a cross-group pass over the
//     gateway (the shard this rank owns moves to the position the two-level
//     decomposition dictates — see shard_offset()).
//   - overlap: each phase is issued as a deferred operation on the progress
//     engine, so ZeRO wire traffic serialises honestly with every other
//     in-flight transfer on this rank (e.g. pipeline activations in a hybrid
//     mesh run).  A bare step has no compute between issue and wait, so the
//     phases themselves expose their full cost; the gain is scheduling
//     fidelity, not analytic credit.
//   (bucket_bytes and algorithm are not applicable: each phase is one fused
//   collective over the whole parameter space — that is ZeRO's wire shape.)
//
// step(nn::ParamStore&) runs the collectives directly on the store's
// contiguous slabs: the reduce-scatter uses the gradient slab as its ring
// scratch (the slab is consumed — zero_grads() starts the next step anyway)
// and the allgather lands updated parameters in place in the parameter
// slab.  Between the two phases the inner rule updates this rank's 1/P range
// of the parameter slab in place, with its state in a state_roles() x shard
// buffer this optimizer owns; under fp16 it updates the fp32 master instead,
// and a wire-format buffer carries both phases.  When the parameter count is not a
// multiple of the world size the step pads through a scratch pair (one
// contiguous copy per role).
//
// Wire traffic is accounted per step: cumulative payload bytes handed to
// the fabric by each phase are available via bytes_reduced() /
// bytes_gathered() and exported through the obs metrics registry as
// "zero.reduced_bytes" / "zero.gathered_bytes".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "dist/compression.hpp"
#include "dist/distributed.hpp"
#include "dist/overlap.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"

namespace msa::dist {

class ZeroOptimizer {
 public:
  /// @p inner performs the actual update rule on this rank's shard.
  /// Collective over @p comm when options.hierarchical is set (the two-level
  /// decomposition must be agreed by every member); local otherwise.
  ZeroOptimizer(comm::Comm& comm, std::unique_ptr<nn::Optimizer> inner,
                AllreduceOptions options = {});

  /// One sharded update step: the collectives run directly on the store's
  /// slab ranges (see file header).  The gradient slab is consumed as
  /// collective scratch.  The store's size must not change across calls.
  void step(nn::ParamStore& store);

  /// Elements of the parameter space this rank's optimizer state covers.
  [[nodiscard]] std::size_t shard_elements() const { return shard_elems_; }
  /// Total (padded) flattened size.
  [[nodiscard]] std::size_t padded_elements() const { return padded_; }
  /// Offset of this rank's shard in the padded parameter space.  rank *
  /// shard_elements() on a flat comm; the two-level position under
  /// `hierarchical`.  Fixed after the first step.
  [[nodiscard]] std::size_t shard_offset() const { return my_off_; }

  /// Optimizer-state memory per rank relative to unsharded data parallelism
  /// (1/P for element-wise optimizers).
  [[nodiscard]] double state_memory_fraction() const {
    return static_cast<double>(shard_elems_) / static_cast<double>(padded_);
  }

  /// Cumulative wire payload handed to the fabric by the reduce-scatter /
  /// allgather phases (bytes; fp16 counts 2 per element, hierarchical counts
  /// both levels).  Zero on a single-rank comm.
  [[nodiscard]] std::uint64_t bytes_reduced() const { return bytes_reduced_; }
  [[nodiscard]] std::uint64_t bytes_gathered() const {
    return bytes_gathered_;
  }

  [[nodiscard]] const AllreduceOptions& options() const { return options_; }

  void set_lr(double lr) { inner_->set_lr(lr); }
  [[nodiscard]] double lr() const { return inner_->lr(); }

 private:
  void initialise(std::size_t total_elems);
  /// Core sharded update: @p params / @p grads are padded_ elements; on
  /// return params holds the allgathered updated parameters and grads is
  /// scratch.
  void sharded_update(std::span<float> params, std::span<float> grads);
  /// Reduce-scatter @p data (padded_ elements, fp32 or binary16) so my
  /// shard [my_off_, my_off_ + shard_elems_) holds the sum over ranks.
  template <typename T>
  void reduce_scatter_shards(std::span<T> data);
  /// Allgather every rank's shard of @p data back to every rank, in place.
  template <typename T>
  void allgather_shards(std::span<T> data);
  /// Run one collective phase: deferred through the progress engine under
  /// options_.overlap, inline otherwise.
  void run_phase(std::uint64_t wire_bytes, std::function<void()> body);

  comm::Comm& comm_;
  std::unique_ptr<nn::Optimizer> inner_;
  AllreduceOptions options_;
  std::optional<HierarchicalComms> hier_;  // engaged only when exploitable
  std::size_t total_ = 0;        // true element count
  std::size_t padded_ = 0;       // padded to a multiple of comm.size()
  std::size_t shard_elems_ = 0;  // padded_ / P
  std::size_t chunk_intra_ = 0;  // padded_ / intra group size (hierarchical)
  std::size_t my_off_ = 0;       // my shard's offset in the padded space
  std::vector<float> state_;   // inner rule's state for my shard, role-major
  std::vector<float> master_;  // fp32 master of my shard (fp16 only)
  std::vector<float> gflat_;   // staging for a padded parameter space
  std::vector<float> pflat_;
  std::vector<Half> wire_;  // fp16 wire-format scratch
  std::uint64_t bytes_reduced_ = 0;
  std::uint64_t bytes_gathered_ = 0;
  bool initialised_ = false;
};

}  // namespace msa::dist
