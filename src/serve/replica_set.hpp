// Replica set: N model replicas carved from one communicator, each a
// dist::Mesh + PipelineStage over its own sub-communicator.
//
// World-comm rank 0 is the router (frontier + scheduler + routing); the
// remaining ranks are assigned to replicas in consecutive blocks, one block
// per entry of replica_sizes.  A 1-rank block is a single-stage replica
// (the Cluster shape); a k-rank block is a k-stage pipelined replica
// serving through PipelineStage::forward_inference (the Booster shape).
// Carving is one collective Comm::split (router color 0, replica i color
// i+1) plus a per-replica Mesh with pipeline_stages == block size and
// topology_aware = false, so stage order equals rank order equals the
// router's wire mapping: batches enter at the block's first rank (stage 0)
// and replies leave from its last (the head stage).
//
// Wire protocol (all explicit-source, explicit-tag — the determinism
// contract forbids any-source receives).  Router <-> replica traffic rides a
// PRIVATE per-replica channel communicator {router, members(r)} rather than
// the world comm: a failed replica makes the router abandon its drain recv,
// and the abandonment board is per-communicator, so on a shared comm that
// one abort would cascade into every healthy leader's pending batch recv.
// Channel ranks are 0 = router, 1 = leader (stage 0), members = head stage.
//   router -> leader, kBatchTag, floats:
//     [kind, seq, rows, features, row-major rows x features data]
//     (kind == kMsgStop carries no payload and shuts the replica down)
//   head -> router, kReplyTag, doubles:
//     [seq, t_sent, compute_watermark_s, nominal_watermark_s, logits...]
// t_sent is the head's simulated clock at send, so the router can price the
// reply transfer off the machine's link model without any wall-clock
// dependence.  The two watermarks are the head rank's cumulative charged
// compute seconds (Comm::compute_charged_s — the same meter
// dist::HealthMonitor allgathers) and its cumulative *nominal* compute
// seconds: the same flops priced on the head's own roofline profile, which
// cannot see an injected slowdown factor.  The router differences
// consecutive watermarks and takes charged/nominal — exactly the rank's
// slowdown factor, independent of batch size and device speed, the
// gray-replica signal for SLO routing.
//
// Failure semantics: every member announces its batch count through
// Comm::progress (the canonical kill site).  A member that loses a peer
// mid-batch (RankFailedError from the pipeline's internal recv/bcast)
// drains out of the loop quietly; injected kills (RankKilledError)
// propagate so the Runtime records them.  The router notices the death when
// draining the replica's next reply and re-routes (see server.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "comm/comm.hpp"
#include "dist/mesh.hpp"
#include "dist/pipeline.hpp"

namespace msa::serve {

inline constexpr int kBatchTag = 901;
inline constexpr int kReplyTag = 902;
inline constexpr int kMsgBatch = 1;
inline constexpr int kMsgStop = 2;
inline constexpr std::size_t kBatchHeaderFloats = 4;
inline constexpr std::size_t kReplyHeaderDoubles = 4;

/// The served model: an MLP classifier, identical on every replica (same
/// seed => bit-identical weights, so routing never changes answers).
struct ModelSpec {
  std::size_t features = 16;
  std::vector<std::size_t> hidden = {64};
  std::size_t classes = 4;
  unsigned seed = 7;
};

struct ReplicaSetOptions {
  /// Ranks per replica, in world order after the router.  sum + 1 must
  /// equal the communicator size.
  std::vector<int> replica_sizes = {1, 1};
  ModelSpec model;
  /// Fixed per-batch work charged on every member rank before the forward
  /// (kernel launch, weight streaming) — the overhead continuous batching
  /// amortises.  Charged through Comm::charge_compute so device speed and
  /// injected compute-slowdown factors apply to it too.
  double overhead_flops = 0.0;
};

class ReplicaSet {
 public:
  /// Collective over @p world (every rank constructs with identical
  /// options).  Pass the runtime's root communicator: comm ranks are used
  /// as world ranks for link-model lookups.
  ReplicaSet(comm::Comm& world, ReplicaSetOptions options);

  [[nodiscard]] bool is_router() const { return world_.rank() == 0; }
  [[nodiscard]] int count() const {
    return static_cast<int>(options_.replica_sizes.size());
  }
  [[nodiscard]] int members(int replica) const {
    return options_.replica_sizes.at(static_cast<std::size_t>(replica));
  }
  /// World-comm rank of the replica's stage-0 member (batch ingress).
  [[nodiscard]] int leader_rank(int replica) const {
    return first_rank_.at(static_cast<std::size_t>(replica));
  }
  /// World-comm rank of the replica's head stage (reply egress).
  [[nodiscard]] int reply_rank(int replica) const {
    return leader_rank(replica) + members(replica) - 1;
  }
  [[nodiscard]] const ModelSpec& model() const { return options_.model; }

  /// The router's private channel to @p replica (router side only).
  [[nodiscard]] comm::Comm& channel(int replica) {
    return channels_.at(static_cast<std::size_t>(replica));
  }
  /// Channel-comm rank of the replica's leader (the router is channel 0).
  [[nodiscard]] static constexpr int channel_leader_rank() { return 1; }
  /// Channel-comm rank of the replica's head stage.
  [[nodiscard]] int channel_reply_rank(int replica) const {
    return members(replica);
  }

  /// Member-side serve loop: recv batch, forward_inference, reply, until a
  /// STOP message or the death of a replica peer.  Router must not call.
  void serve_loop();

  /// Batches this member completed (member side; test visibility).
  [[nodiscard]] std::uint64_t batches_served() const { return batches_; }

 private:
  comm::Comm world_;
  ReplicaSetOptions options_;
  std::vector<int> first_rank_;  // per replica
  int my_replica_ = -1;          // -1 on the router
  std::optional<comm::Comm> sub_;
  std::vector<comm::Comm> channels_;   // router: one per replica
  std::optional<comm::Comm> channel_;  // member: own replica's channel
  std::unique_ptr<nn::Sequential> part_;  // member: its stage of the model
  std::unique_ptr<nn::Optimizer> optimizer_;
  std::unique_ptr<dist::PipelineStage> stage_;  // over part_ and optimizer_
  std::uint64_t batches_ = 0;
  double nominal_s_ = 0.0;  // head-stage cumulative nominal compute seconds
};

}  // namespace msa::serve
