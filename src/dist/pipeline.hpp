// Pipeline (model) parallelism over the dist::Mesh — the complementary axis
// to Horovod-style data parallelism (paper Sec. III-A), composed with it
// into true hybrid DP x PP.
//
// The model is partitioned into consecutive stages, one per pipeline rank of
// the mesh.  A global batch is split into microbatches driven through a 1F1B
// (one-forward-one-backward) schedule: after a warmup of
// min(M, stages-1-stage) forwards, each stage alternates one forward with
// one backward, so at most warmup+1 microbatches are in flight and the
// steady state keeps every stage busy.  Activations and upstream gradients
// travel as *deferred* nonblocking receives posted one microbatch ahead on a
// dedicated transfer communicator: the progress engine replays the transfer
// under the intervening compute and attributes the overlapped part as hidden
// comm (obs CommHidden), so activation traffic hides behind the pipeline's
// own arithmetic.  Structural stalls — the first activation of a step, the
// gradient waits of the cooldown phase — are wrapped in obs PipeBubble
// spans: the classic pipeline bubble becomes a first-class attribution
// category.
//
// In-flight microbatches share the stage's single forward-cache buffers, so
// each backward recomputes its forward from the stashed stage input when
// another forward intervened (activation checkpointing; recompute arithmetic
// is charged honestly).  Backward order equals microbatch order and
// gradients accumulate (+=) into the stage's contiguous grad slab, so the
// update is bit-identical to single-process training with gradient
// accumulation over the same microbatches.  Note the recompute re-runs
// forward(training=true), so stateful layers that update running statistics
// on forward (BatchNorm) would double-update; the deterministic schedule
// keeps even that reproducible, but prefer norm-free stages for exactness.
//
// Across the mesh's data axis the stage's gradient slab is averaged by the
// same OverlappedReducer as plain data parallelism: bucketed slab-range
// allreduce, optional fp16 wire compression, optional hierarchical
// intra/inter-node composition.  The reducer runs right after the last
// microbatch's backward — the one whose completion finalises the
// accumulated gradients — and under `overlap` is installed as that
// backward's observer, so its buckets launch while the backward runs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "comm/comm.hpp"
#include "comm/request.hpp"
#include "dist/distributed.hpp"
#include "dist/mesh.hpp"
#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"

namespace msa::dist {

/// One rank's stage of a (possibly data-parallel-replicated) pipeline.
class PipelineStage {
 public:
  /// Hybrid DP x PP over @p mesh: this rank runs pipeline stage
  /// mesh.stage() of replica chain mesh.replica().  @p stage is this rank's
  /// sub-network (stage 0 consumes inputs, the last stage holds the head +
  /// loss).  Parameters, gradients and optimizer state are relocated into
  /// contiguous ParamStore slabs.  @p allreduce configures the gradient
  /// reduction across the data axis — the same knobs as DistributedTrainer.
  /// Collective over the mesh.
  PipelineStage(Mesh mesh, std::unique_ptr<nn::Sequential> stage,
                std::unique_ptr<nn::Optimizer> optimizer,
                AllreduceOptions allreduce = {});

  /// Legacy pure-pipeline form: one stage per communicator rank, in rank
  /// order (a [size x 1] mesh carved without topology awareness).
  PipelineStage(comm::Comm& comm, std::unique_ptr<nn::Sequential> stage,
                std::unique_ptr<nn::Optimizer> optimizer);

  PipelineStage(const PipelineStage&) = delete;
  PipelineStage& operator=(const PipelineStage&) = delete;

  /// One training step over @p microbatches (classification) under the 1F1B
  /// schedule.  Every rank passes the *full* list of its replica's
  /// microbatch inputs/labels; only the first stage consumes the inputs and
  /// only the last stage the labels.  Returns the mean loss over the
  /// replica's microbatches, averaged across data-parallel replicas and
  /// broadcast to every stage.
  float step_classification(
      const std::vector<nn::Tensor>& micro_inputs,
      const std::vector<std::vector<std::int32_t>>& micro_labels);

  /// Inference over one batch: feeds forward through the stage chain.
  /// Returns logits on the last stage.  By default every other stage
  /// returns an empty tensor; with @p broadcast_result the last stage
  /// broadcasts the logits down the pipe communicator so *every* stage can
  /// compute metrics.  Cost: one extra bcast of the logits payload
  /// (shape header + numel * 4 bytes) per call, charged on the fabric like
  /// any collective.
  nn::Tensor forward_inference(const nn::Tensor& x,
                               bool broadcast_result = false);

  [[nodiscard]] nn::Sequential& stage() { return *stage_; }
  [[nodiscard]] nn::Optimizer& optimizer() { return *optimizer_; }
  [[nodiscard]] nn::ParamStore& param_store() { return store_; }
  [[nodiscard]] Mesh& mesh() { return mesh_; }
  [[nodiscard]] bool is_first() const { return mesh_.is_first_stage(); }
  [[nodiscard]] bool is_last() const { return mesh_.is_last_stage(); }

 private:
  /// A deferred tensor receive in flight on the transfer communicator.
  struct Pending {
    comm::Request req;
    std::shared_ptr<std::vector<float>> packed;
  };

  nn::Sequential& checked_stage();
  /// Pack (shape header + data) and send on the transfer comm (buffered —
  /// never blocks the schedule).
  void send_tensor(const nn::Tensor& t, int dest_stage, int tag);
  /// Post a deferred receive: the progress engine replays the transfer
  /// when waited, splitting it into hidden (behind compute) and exposed
  /// intervals.  @p bytes_hint sizes the NIC occupancy model (last seen
  /// payload of the same kind).
  [[nodiscard]] Pending prefetch_tensor(int src_stage, int tag,
                                        std::uint64_t bytes_hint);
  /// Wait for @p p and unpack.  When @p bubble_name is non-null the wait is
  /// a structural pipeline stall: it is recorded as a PipeBubble span (and
  /// the engine's comm intervals inside are shadowed, so the stall is
  /// attributed once, to the bubble).
  nn::Tensor take(Pending& p, const char* bubble_name);

  Mesh mesh_;
  std::unique_ptr<nn::Sequential> stage_;
  std::unique_ptr<nn::Optimizer> optimizer_;
  nn::ParamStore store_;
  /// Dedicated p2p channel for the deferred activation/gradient stream.
  /// Stages post different numbers of deferred ops (first: M, middle: 2M,
  /// last: M), and every deferred op reserves a collective-tag window on
  /// its communicator — on a dup this cannot desynchronise the pipe
  /// communicator's collective sequence (used for the loss/logits bcast).
  comm::Comm xfer_;
  /// Data-axis gradient reducer; null when the stage has one replica.
  std::optional<OverlappedReducer> reducer_;
  std::uint64_t last_act_bytes_ = 0;
  std::uint64_t last_grad_bytes_ = 0;
};

/// Partition a Sequential into @p parts stages of roughly equal parameter
/// count (greedy by cumulative parameters).  Consumes the input network.
[[nodiscard]] std::vector<std::unique_ptr<nn::Sequential>> partition_model(
    std::unique_ptr<nn::Sequential> model, int parts);

}  // namespace msa::dist
