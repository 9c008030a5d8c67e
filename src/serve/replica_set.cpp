#include "serve/replica_set.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>

#include "comm/failure.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "tensor/rng.hpp"

namespace msa::serve {

ReplicaSet::ReplicaSet(comm::Comm& world, ReplicaSetOptions options)
    : world_(world), options_(std::move(options)) {
  if (options_.replica_sizes.empty()) {
    throw std::invalid_argument("ReplicaSet: need at least one replica");
  }
  int total = 1;  // rank 0 is the router
  first_rank_.reserve(options_.replica_sizes.size());
  for (int sz : options_.replica_sizes) {
    if (sz < 1) {
      throw std::invalid_argument("ReplicaSet: replica size must be >= 1");
    }
    first_rank_.push_back(total);
    total += sz;
  }
  if (total != world_.size()) {
    throw std::invalid_argument(
        "ReplicaSet: replica sizes must sum to comm size - 1");
  }

  const int rank = world_.rank();
  int color = 0;  // router
  for (int r = 0; r < count() && rank > 0; ++r) {
    if (rank >= leader_rank(r) && rank < leader_rank(r) + members(r)) {
      my_replica_ = r;
      color = r + 1;
      break;
    }
  }
  // Collective: every rank splits, the router ends up in a singleton
  // sub-communicator it never uses.
  sub_ = world_.split(color, rank);

  // One private channel comm per replica, {router} + {members(r)} in world
  // order (router = channel rank 0, leader = 1, head = members).  Failure
  // isolation: the router abandoning a drain on a dead replica's channel
  // cannot abort a healthy leader's batch recv on another channel.
  // Collective: every rank joins every split; non-members discard theirs.
  for (int r = 0; r < count(); ++r) {
    const bool in_channel = rank == 0 || my_replica_ == r;
    comm::Comm ch = world_.split(in_channel ? 0 : 1, rank);
    if (rank == 0) {
      channels_.push_back(std::move(ch));
    } else if (my_replica_ == r) {
      channel_.emplace(std::move(ch));
    }
  }
  if (my_replica_ < 0) return;

  // Member: build this replica's pipeline.  topology_aware = false keeps
  // stage order == sub-comm rank order == consecutive world ranks, which is
  // exactly the leader/reply wire mapping the router assumes.
  dist::Mesh mesh(*sub_, dist::MeshOptions{.pipeline_stages = sub_->size(),
                                           .topology_aware = false});
  tensor::Rng rng(options_.model.seed);
  auto model = nn::make_mlp(options_.model.features, options_.model.hidden,
                            options_.model.classes, rng);
  auto parts = dist::partition_model(std::move(model), sub_->size());
  part_ = std::move(parts[static_cast<std::size_t>(mesh.stage())]);
  // Inference-only replica: the optimizer is a required PipelineStage
  // collaborator but never steps (lr 0 keeps even an accidental step inert).
  optimizer_ = std::make_unique<nn::Sgd>(0.0);
  stage_ = std::make_unique<dist::PipelineStage>(std::move(mesh), *part_,
                                                 *optimizer_);
}

void ReplicaSet::serve_loop() {
  if (my_replica_ < 0) {
    throw std::logic_error("ReplicaSet::serve_loop: router rank must not serve");
  }
  comm::Comm& sub = *sub_;
  comm::Comm& channel = *channel_;
  const bool leader = sub.rank() == 0;
  const std::size_t features = options_.model.features;
  try {
    for (;;) {
      std::vector<float> msg;
      std::array<float, kBatchHeaderFloats> header{};
      if (leader) {
        msg = channel.recv_any_size<float>(0, kBatchTag);
        if (msg.size() < kBatchHeaderFloats) {
          throw std::runtime_error("serve_loop: short batch message");
        }
        std::copy_n(msg.begin(), kBatchHeaderFloats, header.begin());
      }
      if (sub.size() > 1) {
        sub.bcast(std::span<float>(header.data(), header.size()), 0);
      }
      if (static_cast<int>(header[0]) == kMsgStop) break;
      const auto seq = static_cast<std::uint64_t>(header[1]);
      const auto rows = static_cast<std::size_t>(header[2]);
      tensor::Tensor x;
      if (leader) {
        if (static_cast<std::size_t>(header[3]) != features) {
          throw std::runtime_error("serve_loop: feature width mismatch");
        }
        x = tensor::Tensor({rows, features});
        std::copy_n(msg.begin() + kBatchHeaderFloats, rows * features,
                    x.data());
      }
      // Fixed per-batch overhead on every member, through the same meter as
      // the forward itself, so device speed and any injected compute
      // slowdown stretch it identically.
      if (options_.overhead_flops > 0.0) {
        world_.charge_compute(options_.overhead_flops, 0.0);
      }
      tensor::Tensor logits = stage_->forward_inference(x, false);
      if (stage_->is_last()) {
        // Nominal watermark: this batch's flops priced on the head's own
        // roofline profile.  An injected compute-slowdown factor stretches
        // the *charged* meter but not this one, so the router's
        // charged/nominal ratio isolates the factor from batch size and
        // device speed.
        nominal_s_ += world_.machine()
                          .compute(world_.world_rank())
                          .kernel_time(options_.overhead_flops +
                                           stage_->stage().forward_flops(),
                                       0.0);
        const std::size_t n = logits.numel();
        std::vector<double> reply(kReplyHeaderDoubles + n);
        reply[0] = static_cast<double>(seq);
        reply[1] = world_.sim_now();  // t_sent: head clock after compute
        reply[2] = world_.compute_charged_s();
        reply[3] = nominal_s_;
        const float* src = logits.data();
        for (std::size_t i = 0; i < n; ++i) {
          reply[kReplyHeaderDoubles + i] = static_cast<double>(src[i]);
        }
        channel.send(std::span<const double>(reply), 0, kReplyTag);
      }
      ++batches_;
      world_.progress(static_cast<int>(batches_));
    }
  } catch (const comm::RankKilledError&) {
    throw;  // injected kill: the Runtime records it
  } catch (const comm::RankFailedError&) {
    // A replica peer died mid-batch; the pipeline is broken.  Drain out —
    // the router notices on its next reply from this replica and re-routes.
  } catch (const comm::CommTimeoutError&) {
    // Same drain path when the failure surfaces as a timeout.
  }
}

}  // namespace msa::serve
