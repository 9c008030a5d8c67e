// Composable parallelism mesh: a 2-D (data x pipeline) process grid carved
// from one communicator, following the MSA placement model (paper Sec. III):
// pipeline stages are placed along module boundaries (a Cluster stage can
// feed a Booster stage) while the data-parallel replicas of one stage stay
// inside a module, so the heavy gradient traffic rides the fast intra-module
// fabric and only the thin activation stream crosses the gateway.
//
// Carving is topology-aware: members are ordered by their machine placement
// (module, node, device), split into `pipeline_stages` consecutive groups of
// D = size / pipeline_stages ranks, and two sub-communicators are derived by
// Comm::split:
//   data(): the D replicas of my stage   (grid row;    rank == replica())
//   pipe(): the S stages of my replica   (grid column; rank == stage())
// Both splits are collective and deterministic, so every member of the mesh
// agrees on the grid without any central coordinator.
//
// A one-stage mesh (S = 1, plain data parallelism) is known without asking:
// data() is the whole world in rank order and pipe() this rank alone, both
// made by Comm::split_known, so carving it sends nothing.
//
// With `topology_aware = false` members keep communicator rank order (stage
// = rank / D; D == 1 => stage == rank), which gives tests a
// placement-independent grid.
#pragma once

#include "comm/comm.hpp"

namespace msa::dist {

struct MeshOptions {
  int pipeline_stages = 1;  ///< S; world size must be a multiple
  /// Order members by machine placement before carving (see file header).
  /// When false, communicator rank order is used verbatim.
  bool topology_aware = true;
};

/// The 2-D grid.  Copyable handle (its communicators are handles).
class Mesh {
 public:
  /// Collective over @p world: every member must construct the Mesh with the
  /// same options.  The carve runs on @p world itself, so its split sequence
  /// advances and a later split of it cannot reuse a mesh communicator's id.
  /// Throws std::invalid_argument when the world size is not divisible by
  /// pipeline_stages.
  explicit Mesh(comm::Comm& world, MeshOptions options = {});

  /// The communicator the mesh was carved from (a handle copy taken after
  /// the carve).
  [[nodiscard]] comm::Comm& world() { return world_; }
  /// Data-parallel axis: the replicas of my pipeline stage.
  [[nodiscard]] comm::Comm& data() { return data_; }
  /// Pipeline axis: the stages of my data-parallel replica chain.
  [[nodiscard]] comm::Comm& pipe() { return pipe_; }

  [[nodiscard]] int stages() const { return stages_; }      ///< S
  [[nodiscard]] int replicas() const { return replicas_; }  ///< D
  /// My pipeline-stage index in [0, stages()); equals pipe().rank().
  [[nodiscard]] int stage() const { return coord_.stage; }
  /// My data-parallel replica index in [0, replicas()); equals data().rank().
  [[nodiscard]] int replica() const { return coord_.replica; }
  [[nodiscard]] bool is_first_stage() const { return coord_.stage == 0; }
  [[nodiscard]] bool is_last_stage() const {
    return coord_.stage == stages_ - 1;
  }

  /// True when some pipeline-adjacent pair of this replica chain sits in
  /// different modules (the placement the mesh aims for on an MSA machine).
  [[nodiscard]] bool pipeline_crosses_modules() const {
    return coord_.crosses_modules;
  }

 private:
  struct Coord {
    int stage = 0;
    int replica = 0;
    bool crosses_modules = false;
  };
  /// The collective part of carving (none when S = 1): agree on the
  /// placement order, find my grid coordinate.  Throws on a non-divisible
  /// world.
  static Coord carve(comm::Comm& world, const MeshOptions& options);

  Coord coord_;
  int stages_ = 1;
  int replicas_ = 1;
  comm::Comm data_;
  comm::Comm pipe_;
  comm::Comm world_;
};

}  // namespace msa::dist
