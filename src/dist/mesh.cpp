#include "dist/mesh.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace msa::dist {

namespace {

/// Ranks 0..n-1 of a communicator of size @p n.
std::vector<int> all_ranks(int n) {
  std::vector<int> ranks(static_cast<std::size_t>(n));
  std::iota(ranks.begin(), ranks.end(), 0);
  return ranks;
}

}  // namespace

Mesh::Coord Mesh::carve(comm::Comm& world, const MeshOptions& options) {
  const int size = world.size();
  const int S = options.pipeline_stages;
  if (S <= 0 || S > size || size % S != 0) {
    throw std::invalid_argument(
        "Mesh: world size must be a positive multiple of pipeline_stages");
  }
  const int D = size / S;
  if (S == 1) return Coord{0, world.rank(), false};

  // Placement key: module-major, then node, then device.  Ties (and the
  // topology-unaware mode) fall back to communicator rank order, which every
  // member agrees on, so the carve is deterministic.
  std::int64_t entry[2] = {static_cast<std::int64_t>(world.rank()), 0};
  {
    const simnet::RankLocation& loc =
        world.machine().location(world.world_rank());
    entry[1] = loc.module;
    if (options.topology_aware) {
      entry[0] = (static_cast<std::int64_t>(loc.module) << 40) |
                 (static_cast<std::int64_t>(loc.node) << 20) |
                 static_cast<std::int64_t>(loc.device);
    }
  }
  const std::vector<std::int64_t> all =
      world.allgather(std::span<const std::int64_t>(entry, 2));

  std::vector<int> order(static_cast<std::size_t>(size));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const std::int64_t ka = all[static_cast<std::size_t>(a) * 2];
    const std::int64_t kb = all[static_cast<std::size_t>(b) * 2];
    return ka != kb ? ka < kb : a < b;
  });

  Coord c;
  for (int idx = 0; idx < size; ++idx) {
    if (order[static_cast<std::size_t>(idx)] == world.rank()) {
      // D consecutive placement-sorted ranks form one stage's replica group:
      // replicas stay co-located, the stage chain walks across modules.
      c.stage = idx / D;
      c.replica = idx % D;
      break;
    }
  }
  for (int s = 0; s + 1 < S; ++s) {
    const auto at = [&](int stage) {
      const int rank = order[static_cast<std::size_t>(stage * D + c.replica)];
      return all[static_cast<std::size_t>(rank) * 2 + 1];
    };
    if (at(s) != at(s + 1)) {
      c.crosses_modules = true;
      break;
    }
  }
  return c;
}

Mesh::Mesh(comm::Comm& world, MeshOptions options)
    : coord_(carve(world, options)),
      stages_(options.pipeline_stages),
      replicas_(world.size() / options.pipeline_stages),
      // Row: my stage's replicas, ranked by replica index.  Column: my
      // replica chain's stages, ranked by stage index.  Both collective,
      // except with one stage: the row is the world, the column me.
      data_(stages_ == 1 ? world.split_known(0, all_ranks(world.size()))
                         : world.split(coord_.stage, coord_.replica)),
      pipe_(stages_ == 1
                ? world.split_known(world.rank(), std::array{world.rank()})
                : world.split(coord_.replica, coord_.stage)),
      world_(world) {}

}  // namespace msa::dist
