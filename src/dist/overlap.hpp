// Hierarchical allreduce over the MSA topology (paper Sec. III: modules of
// nodes joined by a slower inter-module fabric).
//
// A flat ring at world scale pays the slowest link on every hop.  The
// hierarchical composition keeps the bulk of the traffic on fast intra-module
// links: an intra-module ring reduce-scatter leaves each local rank owning
// 1/P_intra of the reduction, only those owners cross the module boundary
// (inter-module allreduce of the owned chunk — ring, tree, or GCE offload
// when the fabric has one), and an intra-module allgather redistributes the
// result.  Traffic on the slow fabric drops by the intra-module fan-in.
//
// make_hierarchical derives the two sub-communicators from the machine's
// rank placement and decides eligibility (equal-size groups, both levels
// non-trivial); it returns nothing when the topology gives the split nothing
// to exploit, and the caller reduces flat.
//
// OverlappedReducer, below, is the one gradient-averaging path of training:
// it reduces a stage's gradient slab over the data axis, flat or through
// this composition.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "dist/compression.hpp"
#include "nn/layer.hpp"
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


/// Which placement field defines the "close" group.
enum class HierarchyLevel {
  Node,    ///< ranks sharing a node (fast intra-node links)
  Module,  ///< ranks sharing a module (cluster / booster / DAM)
};

/// The two-level decomposition of a world communicator.
struct HierarchicalComms {
  comm::Comm intra;  ///< ranks in my group (node or module)
  comm::Comm cross;  ///< rank i of every group, i = my intra rank
};

/// Split @p world by rank placement into intra-group and cross-group
/// communicators.  Collective (every member of a multi-rank @p world must
/// call).  Empty when the topology gives the composition nothing to exploit:
/// a single group, singleton groups, or unequal group sizes (the chunked
/// exchange needs every group to own the same chunk count).
[[nodiscard]] std::optional<HierarchicalComms> make_hierarchical(
    comm::Comm& world, HierarchyLevel level = HierarchyLevel::Node);

/// Two-level allreduce: intra ring reduce-scatter, inter-group allreduce of
/// the owned chunk (@p inter_alg — e.g. GCE offload when available), intra
/// allgather.  Equivalent reduction up to floating-point reassociation
/// (exact for integer-valued data); the elementwise result uses every rank's
/// contribution exactly once.
template <typename T>
void hierarchical_allreduce(
    comm::Comm& world, HierarchicalComms& topo, std::span<T> data,
    comm::ReduceOp op,
    std::optional<simnet::CollectiveAlgorithm> inter_alg = {}) {
  const int P = topo.intra.size();
  const std::size_t chunk = data.size() / static_cast<std::size_t>(P);
  if (chunk > 0) {
    std::span<T> head(data.data(), chunk * static_cast<std::size_t>(P));
    // Intra reduce-scatter: my chunk (index = intra rank) now holds the
    // group-local reduction, in place in head.
    (void)topo.intra.reduce_scatter(head, chunk, op);
    // Cross-group reduction of my chunk only: 1/P of the payload crosses
    // the slow fabric.
    topo.cross.allreduce(
        head.subspan(static_cast<std::size_t>(topo.intra.rank()) * chunk,
                     chunk),
        op, inter_alg);
    // Intra allgather is ordered by intra rank, which is exactly the chunk
    // layout reduce_scatter used.
    topo.intra.allgather_inplace(head, chunk);
  }
  // Tail too small to chunk: flat tree over the world (tiny payload).
  const std::size_t tail = chunk * static_cast<std::size_t>(P);
  if (tail < data.size()) {
    world.allreduce(data.subspan(tail), op,
                    simnet::CollectiveAlgorithm::BinomialTree);
  }
}

/// The one gradient-averaging path over a data axis (Horovod's tensor
/// fusion, fp16 compression and backward overlap, Sec. III-A).  The gradient
/// slab is cut into fixed offset-range buckets of bucket_bytes; each bucket
/// is summed across the communicator — as binary16 under fp16_compression,
/// through the reducer's own intra/cross split under `hierarchical` when the
/// topology has one — and scaled by 1/size().
///
/// Without `overlap`, finish() reduces every bucket blocking, in ascending
/// order, inside one "allreduce_grads" Comm span.  With `overlap`, the
/// training engine (dist/pipeline.hpp) hands the reducer each layer as it
/// finishes its backward pass, in reverse order, right after charging that
/// layer's backward compute; the reducer launches a nonblocking reduction
/// for every bucket the moment its last contributing layer completes, while
/// earlier layers are still computing, and finish() drains them outside any
/// span.
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

  /// BackwardObserver (overlap only): mark the layer's gradient ranges
  /// ready and launch any bucket that just filled.
  void on_layer_backward(nn::Layer& layer) override;

  /// Launch every bucket not launched yet, drain, and apply the fp16 unpack
  /// and 1/world scaling.
  void finish();

  /// True when buckets launch from backward hooks (options.overlap).
  [[nodiscard]] bool overlapped() const { return options_.overlap; }

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
};

}  // namespace msa::dist
