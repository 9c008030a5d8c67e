// Fail-slow (gray-failure) detection and mitigation for resilient training.
//
// Fail-STOP faults (crashes, kills) are handled by the recovery path in
// resilient.{hpp,cpp}; this module handles the harder case the MSA paper's
// production experience motivates: ranks that keep answering but run slow —
// a thermally throttled GPU, a flapping link, a node stealing cycles.  Such
// "gray" failures stall every synchronous collective at the speed of the
// slowest member while tripping none of the liveness machinery.
//
// Detection is deterministic and collective.  Each rank meters its own
// simulated compute seconds (Comm::compute_charged_s) and the rows it
// processed over a fixed window of steps, then all ranks allgather the
// [compute_s, rows, world_rank] triples and run the SAME robust-statistics
// pass on the SAME data: per-row compute time, median, median absolute
// deviation (MAD).  A rank is flagged when it is BOTH a MAD outlier
//
//     t_r > median + mad_threshold * MAD
//
// and materially slow in ratio terms
//
//     t_r > slow_factor_min * median
//
// (the ratio guard matters because homogeneous simulated ranks give MAD ~ 0,
// which would otherwise flag harmless jitter).  Because inputs are
// allgathered and arithmetic is identical, every rank reaches the same
// verdict with no extra vote round — the allgather IS the collective vote.
// All statistics are simulated-time based, so replays of the same seed are
// bit-identical and decisions are independent of MSA_THREADS.
//
// The mitigation ladder, in escalation order:
//   1. Detection alone (enabled): every window flags the slow ranks and
//      folds the verdict into the digest; nothing else changes.
//   2. Throughput-aware re-sharding: per-rank micro-batch sizes rebalanced
//      proportional to measured throughput (balanced_batch_counts), so the
//      slow rank gets fewer rows and the window skew collapses.  Gradient
//      math stays exact via the engine's loss scale
//      (PipelineStage::set_loss_scale), one-stage layouts only.
//   3. Demotion: a rank flagged for demote_after consecutive windows is
//      evicted through the existing shrink path as if it had failed
//      (comm::RankDemotedError), trading its capacity for its latency.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "comm/comm.hpp"

namespace msa::obs {
class TimeSeries;
}  // namespace msa::obs

namespace msa::dist {

/// Knobs for fail-slow detection and the mitigation ladder.  Defaults keep
/// everything off so the fault-free fast path is untouched.
struct HealthOptions {
  bool enabled = false;  ///< master switch for windowed detection
  int window = 8;        ///< steps per detection window
  /// MAD-outlier gate: flag when t > median + mad_threshold * MAD.
  double mad_threshold = 4.0;
  /// Ratio guard: additionally require t > slow_factor_min * median.
  double slow_factor_min = 1.5;
  /// Rungs of the ladder.  rebalance re-shards micro-batches each window;
  /// demote_after > 0 evicts a rank that spent that many consecutive
  /// windows both flagged AND stretching the window (its total window
  /// compute an outlier too, not just its per-row time) — so a re-shard
  /// that absorbs the slowness de-escalates, and only slowness beyond what
  /// the one-row-minimum shares can contain reaches demotion (0 = never).
  bool rebalance = false;
  int demote_after = 0;
  /// Optional telemetry sink: comm-rank 0 samples it at every window
  /// boundary (after health.* gauges are published), stamped with the
  /// window-close simulated time.  Window boundaries are collectively
  /// agreed, so the resulting series is deterministic.  Not owned.
  obs::TimeSeries* timeseries = nullptr;
};

/// One window's collectively-agreed verdict.  Identical on every rank.
struct HealthDecision {
  int window_index = 0;
  int global_step = 0;        ///< step at which the window closed
  double median_s = 0.0;      ///< median per-row compute seconds
  double mad_s = 0.0;         ///< median absolute deviation
  std::vector<int> flagged_world;  ///< world ranks flagged this window
  /// New per-comm-rank micro-batch sizes (empty: unchanged).
  std::vector<int> batch_counts;
  int demote_world_rank = -1;  ///< world rank to evict, -1 = none
};

/// Split @p total rows across ranks by measured throughput @p weights (one
/// weight per rank, larger = faster), each share at least 1.  Greedy
/// makespan-minimising assignment (each row to the rank with the lowest
/// resulting finish time, deterministic index tie-break) so the synchronous
/// step's critical path — not just the proportional shares — is optimised.
/// Requires total >= ranks.
[[nodiscard]] std::vector<int> balanced_batch_counts(
    const std::vector<double>& weights, int total);

/// Median of @p v (copied; an even count averages the middle pair, an empty
/// one gives 0).  The input order is irrelevant, so every rank gets the same
/// value from the same allgathered multiset.
[[nodiscard]] double median_of(std::vector<double> v);

/// Windowed fail-slow detector + mitigation chooser.  SPMD: every rank owns
/// one monitor and calls on_step after every training step; at window
/// boundaries the monitors allgather their meters and return the same
/// HealthDecision everywhere (or nullopt between boundaries).
///
/// The caller applies the decision: adopt batch_counts for its slicing and
/// loss scale, or raise comm::RankDemotedError when it is the demotee.
class HealthMonitor {
 public:
  explicit HealthMonitor(HealthOptions options) : options_(options) {}

  /// (Re)arm over @p comm's current membership with uniform @p batch_size
  /// rows per rank per step.  Call at training start and after every
  /// recovery (membership or position changed).  Keeps the decision log and
  /// digest — they describe the whole run.
  void reset(comm::Comm& comm, int batch_size);

  /// Account one finished step (@p rows processed by this rank) and, at a
  /// window boundary, run the collective detection pass.  Collective at
  /// boundaries (allgather) — every rank must call it every step.
  std::optional<HealthDecision> on_step(comm::Comm& comm, int global_step,
                                        int rows);

  /// Current per-comm-rank micro-batch sizes (uniform after reset).
  [[nodiscard]] const std::vector<int>& batch_counts() const {
    return counts_;
  }
  /// Rows per step across all ranks (batch_size * ranks at last reset).
  [[nodiscard]] int batch_total() const { return batch_total_; }

  /// Every decision taken, in order.
  [[nodiscard]] const std::vector<HealthDecision>& decisions() const {
    return log_;
  }
  /// Order-sensitive splitmix64 chain over every decision ever taken —
  /// replays and MSA_THREADS=1 vs N must produce the same digest.
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

  [[nodiscard]] const HealthOptions& options() const { return options_; }

 private:
  void fold_decision(const HealthDecision& d);

  HealthOptions options_;
  std::vector<int> counts_;  // per comm rank
  int batch_size_ = 0;
  int batch_total_ = 0;
  int steps_in_window_ = 0;
  double rows_in_window_ = 0.0;
  double compute_mark_s_ = 0.0;  // compute_charged_s at last boundary
  int window_index_ = 0;
  std::map<int, int> consecutive_;  // world rank -> consecutive flag count
  std::vector<HealthDecision> log_;
  std::uint64_t digest_ = 0x4845414C5448ull;  // "HEALTH"
};

}  // namespace msa::dist
