// The training engine: one rank's stage of a DP x PP mesh (dist::Mesh).
// Pipeline (model) parallelism is the axis complementary to Horovod-style
// data parallelism (paper Sec. III-A); plain data parallelism is its
// one-stage case (S = 1, DistributedTrainer), and every training step in
// msalib runs here.
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
// Simulated compute is charged by one rule: a forward (or recompute) its
// flops as soon as it has run; a backward 2x its forward's flops as soon as
// it has run — per layer as each finishes while the overlapped reducer
// watches the final backward, then whatever the layers did not cover — and
// always before its upstream gradient leaves the stage.
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
// OverlappedReducer: bucketed slab-range allreduce, optional fp16 wire
// compression, optional hierarchical intra/inter-node composition.  The
// reducer runs right after the last microbatch's backward — the one whose
// completion finalises the accumulated gradients — and under `overlap` is
// handed each layer of that backward as it completes, so its buckets launch
// while the backward runs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "comm/request.hpp"
#include "dist/mesh.hpp"
#include "dist/overlap.hpp"
#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"

namespace msa::dist {

/// Result of one optimisation step.
struct StepResult {
  float loss = 0.0f;      ///< mean microbatch loss (see step_classification)
  double accuracy = 0.0;  ///< one-stage meshes only; 0 in a pipeline
};

/// One rank's stage of a (possibly data-parallel-replicated) pipeline.
class PipelineStage : private nn::BackwardObserver {
 public:
  /// Hybrid DP x PP over @p mesh: this rank runs pipeline stage
  /// mesh.stage() of replica chain mesh.replica().  @p stage is this rank's
  /// sub-network (stage 0 consumes inputs, the last stage holds the head +
  /// loss); its parameters, gradients and @p optimizer's state are
  /// relocated into contiguous ParamStore slabs.  Both must outlive the
  /// engine.  @p allreduce configures the gradient reduction across the
  /// data axis.  Collective over the mesh when it has more than one stage
  /// (the transfer channel is a dup of the pipe axis) and under
  /// allreduce.hierarchical.
  PipelineStage(Mesh mesh, nn::Layer& stage, nn::Optimizer& optimizer,
                AllreduceOptions allreduce = {});

  PipelineStage(const PipelineStage&) = delete;
  PipelineStage& operator=(const PipelineStage&) = delete;

  /// One training step over the microbatches (classification) under the
  /// 1F1B schedule.  Every rank passes the *full* list of its replica's
  /// microbatch inputs/labels; only the first stage consumes the inputs and
  /// only the last stage the labels.  Each microbatch's loss gradient is
  /// scaled by the loss scale / M.  With one stage the result is this
  /// rank's own mean loss and accuracy over its microbatches; in a pipeline
  /// it is the mean loss averaged across data-parallel replicas and
  /// broadcast to every stage, with accuracy 0.
  StepResult step_classification(
      std::span<const nn::Tensor> micro_inputs,
      std::span<const std::vector<std::int32_t>> micro_labels);

  /// Inference over one batch: feeds forward through the stage chain.
  /// Returns logits on the last stage.  By default every other stage
  /// returns an empty tensor; with @p broadcast_result the last stage
  /// broadcasts the logits down the pipe communicator so *every* stage can
  /// compute metrics.  Cost: one extra bcast of the logits payload
  /// (shape header + numel * 4 bytes) per call, charged on the fabric like
  /// any collective.
  nn::Tensor forward_inference(const nn::Tensor& x,
                               bool broadcast_result = false);

  /// Scale applied to the loss gradient before backward.  Under weighted
  /// (throughput-aware) micro-batching each rank's gradient is a mean over a
  /// different row count b_r; scaling by P*b_r/B_total makes the 1/P
  /// average over the data axis equal the true global-batch mean.
  /// 1.0 = uniform.
  void set_loss_scale(double scale) { loss_scale_ = scale; }

  [[nodiscard]] nn::Layer& stage() { return stage_; }
  [[nodiscard]] nn::ParamStore& param_store() { return store_; }
  [[nodiscard]] Mesh& mesh() { return mesh_; }
  /// The data-axis gradient reducer; null when the stage has one replica.
  [[nodiscard]] const OverlappedReducer* reducer() const {
    return reducer_ ? &*reducer_ : nullptr;
  }
  [[nodiscard]] bool is_first() const { return mesh_.is_first_stage(); }
  [[nodiscard]] bool is_last() const { return mesh_.is_last_stage(); }

 private:
  /// A deferred tensor receive in flight on the transfer communicator.
  struct Pending {
    comm::Request req;
    std::shared_ptr<std::vector<float>> packed;
  };

  /// Run the stage forward on @p x inside a Compute span named @p name,
  /// then charge its flops.
  nn::Tensor forward(const nn::Tensor& x, bool training, const char* name);
  /// Run the stage backward and charge it 2x its forward's flops: per layer
  /// through on_layer_backward when @p final_grads and the reducer
  /// overlaps, the remainder after.  @p final_grads marks the step's last
  /// backward, which finalises the gradients the reducer averages.
  nn::Tensor backward(const nn::Tensor& grad, bool final_grads);
  /// The one place training charges simulated compute.
  void charge(double flops);
  /// BackwardObserver of the final backward under overlap: charge the
  /// layer's backward, then hand the layer to the reducer.
  void on_layer_backward(nn::Layer& layer) override;

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
  nn::Layer& stage_;
  nn::Optimizer& optimizer_;
  nn::ParamStore store_;
  /// Dedicated p2p channel for the deferred activation/gradient stream.
  /// Stages post different numbers of deferred ops (first: M, middle: 2M,
  /// last: M), and every deferred op reserves a collective-tag window on
  /// its communicator — on a dup this cannot desynchronise the pipe
  /// communicator's collective sequence (used for the loss/logits bcast).
  /// With one stage there is no stream, and this is the pipe axis itself.
  comm::Comm xfer_;
  /// Data-axis gradient reducer; null when the stage has one replica.
  std::optional<OverlappedReducer> reducer_;
  double loss_scale_ = 1.0;
  double hooked_flops_ = 0.0;  ///< backward flops charged per layer this pass
  std::uint64_t last_act_bytes_ = 0;
  std::uint64_t last_grad_bytes_ = 0;
};

/// Partition a Sequential into @p parts stages of roughly equal parameter
/// count (greedy by cumulative parameters).  Consumes the input network.
[[nodiscard]] std::vector<std::unique_ptr<nn::Sequential>> partition_model(
    std::unique_ptr<nn::Sequential> model, int parts);

}  // namespace msa::dist
