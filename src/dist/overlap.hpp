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
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "comm/comm.hpp"

namespace msa::dist {

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

}  // namespace msa::dist
