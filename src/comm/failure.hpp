// Failure semantics for the message-passing runtime.
//
// The paper's machines (DEEP, JUWELS) lose nodes during long Horovod runs;
// this header gives the comm layer the vocabulary to survive that: typed
// errors for dead ranks and timeouts, a liveness board, and the hook
// interface the fault-injection library (msa::fault) implements.  The hooks
// are a single nullable pointer in the shared runtime state, so an unarmed
// run pays one predictable branch per operation and nothing else.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace msa::comm {

/// Liveness of one world rank within the current Runtime::run.
enum class RankState : int {
  Alive = 0,   ///< thread running normally
  Exited = 1,  ///< SPMD function returned (clean end of program)
  Failed = 2,  ///< thread died: injected kill or escaped exception
};

/// Thrown *inside* a rank that a FaultPlan kills: the rank's thread unwinds
/// and exits, simulating a node crash.  The Runtime recognises this type and
/// records an injected kill rather than a program error.
class RankKilledError : public std::runtime_error {
 public:
  RankKilledError(int world_rank, int step)
      : std::runtime_error("rank " + std::to_string(world_rank) +
                           " killed by fault plan at step " +
                           std::to_string(step)),
        world_rank_(world_rank),
        step_(step) {}

  [[nodiscard]] int world_rank() const { return world_rank_; }
  [[nodiscard]] int step() const { return step_; }

 private:
  int world_rank_;
  int step_;
};

/// Thrown inside a rank that the health monitor voted out for persistent
/// fail-slow behaviour.  Subclasses RankKilledError so the Runtime and the
/// recovery path treat a demotion exactly like a crash: the thread unwinds,
/// survivors shrink around it.  The distinct type keeps reports honest about
/// *why* the rank left the world.
class RankDemotedError : public RankKilledError {
 public:
  RankDemotedError(int world_rank, int step)
      : RankKilledError(world_rank, step) {}
};

/// Thrown by recv/collectives on a *surviving* rank when a peer it depends on
/// is dead (or exited without sending).  Carries the failed world-rank set so
/// recovery code can Comm::shrink around it.
class RankFailedError : public std::runtime_error {
 public:
  explicit RankFailedError(std::vector<int> failed_world_ranks,
                           const std::string& context = "recv")
      : std::runtime_error(format(failed_world_ranks, context)),
        failed_(std::move(failed_world_ranks)) {}

  /// Sorted world ranks known dead/exited when the error was raised.
  [[nodiscard]] const std::vector<int>& failed_world_ranks() const {
    return failed_;
  }

 private:
  static std::string format(const std::vector<int>& failed,
                            const std::string& context) {
    std::ostringstream os;
    os << context << ": rank(s) {";
    for (std::size_t i = 0; i < failed.size(); ++i) {
      os << (i ? "," : "") << failed[i];
    }
    os << "} failed or exited before sending";
    return os.str();
  }

  std::vector<int> failed_;
};

/// Thrown when the real-wall-clock backstop expires with no known-dead peer:
/// the message may still be coming (extreme straggler) or the program is
/// genuinely deadlocked.  Distinct from RankFailedError so callers can retry
/// with backoff before declaring a rank dead.
class CommTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// All exceptions of a Runtime::run, aggregated so a failure cascade (one
/// rank's bug triggering RankFailedError on every peer) cannot mask the root
/// cause.  what() lists every rank's message.
class AggregateRankError : public std::runtime_error {
 public:
  explicit AggregateRankError(std::vector<std::pair<int, std::string>> errors)
      : std::runtime_error(format(errors)), errors_(std::move(errors)) {}

  /// (world rank, what()) per failed rank, ascending rank order.
  [[nodiscard]] const std::vector<std::pair<int, std::string>>& rank_errors()
      const {
    return errors_;
  }

 private:
  static std::string format(
      const std::vector<std::pair<int, std::string>>& errors) {
    std::ostringstream os;
    os << errors.size() << " rank(s) threw:";
    for (const auto& [rank, what] : errors) {
      os << "\n  rank " << rank << ": " << what;
    }
    return os.str();
  }

  std::vector<std::pair<int, std::string>> errors_;
};

/// What a disk fault does to the checkpoint file a rank just wrote.
enum class DiskFaultKind : int {
  None = 0,       ///< write landed intact
  TornWrite = 1,  ///< file truncated mid-write (power loss after rename)
  BitFlip = 2,    ///< one payload bit flipped (silent media corruption)
};

/// Hook interface for deterministic fault injection (implemented by
/// fault::FaultInjector).  All methods are called concurrently from rank
/// threads and must be thread-safe.  Methods may throw RankKilledError to
/// simulate the calling rank crashing at that point.
struct FaultHooks {
  virtual ~FaultHooks() = default;

  /// Progress marker: a rank announces it reached @p step (ResilientTrainer
  /// calls once per training step).  The canonical kill site.
  virtual void on_step(int world_rank, int step, double sim_now) = 0;

  /// Called before each send.  Returns extra simulated seconds to add to the
  /// message timestamp (straggler injection); may also kill the sender.
  virtual double on_send(int src_world, int dst_world, std::uint64_t bytes,
                         double sim_now) = 0;

  /// Multiplier (>= 1) applied to the link transfer time of a message from
  /// @p src_world to @p dst_world at simulated time @p sim_now (persistent
  /// degraded links and time-windowed link flaps).
  virtual double link_factor(int src_world, int dst_world, double sim_now) = 0;

  /// Multiplier (>= 1) applied to every compute kernel @p world_rank charges
  /// (thermal throttling / a gray-failed accelerator).  Evaluated against the
  /// rank's last announced step, so it is a pure function of rank progress.
  virtual double compute_factor(int /*world_rank*/) { return 1.0; }

  /// Called after @p world_rank commits a checkpoint archive to disk; the
  /// returned kind is applied to the just-written file.  Counted per rank in
  /// write order, so plans name "the Nth checkpoint write of rank r".
  virtual DiskFaultKind on_checkpoint_write(int /*world_rank*/) {
    return DiskFaultKind::None;
  }
};

}  // namespace msa::comm
