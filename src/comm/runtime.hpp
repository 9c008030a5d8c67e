// Runtime: spawns one std::thread per simulated rank and runs an SPMD
// function, exactly like `mpirun -np P ./program`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "comm/comm.hpp"
#include "simnet/machine.hpp"

namespace msa::comm {

/// Owns the shared mailboxes/clocks and launches SPMD regions.
///
/// Usage:
///   Runtime rt(Machine::homogeneous(8, 4, cfg, gpu));
///   rt.run([](Comm& comm) { ... });
///   double t = rt.max_sim_time();
class Runtime {
 public:
  explicit Runtime(simnet::Machine machine);

  /// Run @p fn on every rank concurrently; returns when all ranks finish.
  /// Clocks, mailboxes and the liveness board reset at entry.
  ///
  /// Error contract: a RankKilledError escaping a rank is an *injected kill*
  /// (recorded in killed_ranks(), not an error — surviving ranks are expected
  /// to recover and complete).  Any other escaping exception is a program
  /// error: with exactly one, the original is rethrown (type preserved); with
  /// several, every rank's message is aggregated into AggregateRankError so a
  /// failure cascade cannot mask the root cause.
  void run(const std::function<void(Comm&)>& fn);

  /// Arm (or disarm, with nullptr) fault-injection hooks for subsequent runs.
  void set_fault_hooks(std::shared_ptr<FaultHooks> hooks) {
    state_->hooks = std::move(hooks);
  }

  /// (world rank, step) of every injected kill during the last run().
  [[nodiscard]] const std::vector<std::pair<int, int>>& killed_ranks() const {
    return killed_;
  }

  /// Simulated completion time of each rank after the last run().
  [[nodiscard]] std::vector<double> sim_times() const;

  /// Makespan: slowest rank's simulated completion time.
  [[nodiscard]] double max_sim_time() const;

  /// Payload bytes sent per world rank during the last run().
  [[nodiscard]] std::vector<std::uint64_t> bytes_sent() const;

  [[nodiscard]] int ranks() const { return state_->machine.ranks(); }
  [[nodiscard]] const simnet::Machine& machine() const {
    return state_->machine;
  }

 private:
  std::shared_ptr<detail::SharedState> state_;
  std::vector<std::pair<int, int>> killed_;  // (world rank, step) per kill
};

}  // namespace msa::comm
