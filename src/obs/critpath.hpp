// Critical-path & wait-state analysis over the recorded span timeline.
//
// The tracer already holds everything needed to reconstruct the run's
// happens-before graph: per-rank program order (spans sorted by record
// sequence), and — since every comm-layer send/recv span carries
// (comm id, peer world rank, tag) edge metadata — the exact message edges,
// because the mailbox matches FIFO per (comm, src, tag) and both endpoints
// record their wire ops in program order, so zipping the k-th send with the
// k-th recv of each key is the true matching.  Collective synchronisation
// needs no extra nodes: a collective IS its constituent messages (the
// algorithms are built on the timed p2p layer), so its sync structure is
// already in the graph.
//
// The engine walks backward in simulated time from the globally last span:
// at frontier (rank, t) the most recent completed wait gates progress; the
// interval after it is local work (attributed by the covering unshadowed
// attribution spans), the wait itself becomes a path segment classified by
// the Scalasca-style taxonomy below, and the frontier jumps to the matched
// sender at its send time.  The resulting segment chain partitions [0, T]
// exactly — the path length EQUALS end-to-end simulated time by
// construction, which bench/claims.py checks in bench_gate.
//
// Wait-state taxonomy (for a recv span with positive simulated duration —
// the only way a rank blocks, since sends are buffered):
//   PipelineBubble  — the wait sits under a PipeBubble attribution span
//                     (1F1B warmup/cooldown stalls; seen through deferred
//                     replays via the span's inherited ctx).
//   NicOccupancy    — the matched message was already in flight when the
//                     wait began (send_time < wait begin): the block is
//                     wire/serialisation time, not peer lateness.
//   CollectiveSkew  — collective-internal tag (tag < 0) and the peer had
//                     not sent yet: skewed arrival inside a collective.
//   LateSender      — user-tag p2p message the peer had not sent yet.
//   LateReceiver    — structurally empty in this runtime (sends never
//                     block), reported for taxonomy completeness; the
//                     oracle test asserts it stays zero.
//
// Determinism: the analysis is a pure function of the span snapshot's sim
// times and metadata — host-real times are never consulted — and the span
// snapshot itself is sim-deterministic (pool threads record with rank -1
// and are ignored here), so the analysis and its JSON are byte-identical
// across replays and MSA_THREADS settings.  Caveats: analyze one run's
// spans (clear the tracer between runs — a rank that spans two runs may
// interleave shards nondeterministically), and require dropped_count() == 0
// (ring overwrites break FIFO matching; see obs.trace.dropped_spans).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace msa::obs::critpath {

/// Why a rank was blocked (see taxonomy in the file header).
enum class WaitState : std::uint8_t {
  None = 0,  ///< local work, not a wait
  LateSender = 1,
  LateReceiver = 2,
  CollectiveSkew = 3,
  NicOccupancy = 4,
  PipelineBubble = 5,
};
inline constexpr int kWaitStateCount = 6;

[[nodiscard]] const char* to_string(WaitState w);

/// One interval of the critical path (chronological order in
/// Analysis::segments).  Local-work segments have wait == None and carry the
/// rank doing the work; wait segments carry the blocked rank and, when the
/// message edge was matched, the sender it waited on.
struct PathSegment {
  double begin_s = 0.0;
  double end_s = 0.0;
  std::int32_t rank = -1;       ///< rank on the path over this interval
  std::int32_t from_rank = -1;  ///< wait segments: matched sender (-1 if none)
  WaitState wait = WaitState::None;

  [[nodiscard]] double duration_s() const { return end_s - begin_s; }
};

/// Blocked time on the critical path, by wait state.
struct WaitBreakdown {
  double late_sender_s = 0.0;
  double late_receiver_s = 0.0;
  double collective_skew_s = 0.0;
  double nic_s = 0.0;
  double bubble_s = 0.0;

  [[nodiscard]] double total() const {
    return late_sender_s + late_receiver_s + collective_skew_s + nic_s +
           bubble_s;
  }
};

/// Time-on-path for one rank.
struct RankShare {
  std::int32_t rank = -1;
  double local_s = 0.0;  ///< local-work segments on this rank
  double wait_s = 0.0;   ///< wait segments while this rank was blocked
};

/// Result of one analysis pass.
struct Analysis {
  double end_time_s = 0.0;     ///< globally last span end (sim time)
  std::int32_t end_rank = -1;  ///< rank whose span ends last (tie: lowest)
  double path_length_s = 0.0;  ///< sum of segment durations (== end_time_s)

  std::vector<PathSegment> segments;  ///< chronological partition of [0, T]

  /// Local-work attribution: path time covered by unshadowed attribution
  /// spans of each category (indexed by Category), plus uncovered remainder.
  double local_by_cat_s[kCategoryCount] = {};
  double local_uncovered_s = 0.0;
  double local_total_s = 0.0;

  WaitBreakdown waits;
  double blocked_s = 0.0;  ///< == waits.total()

  std::vector<RankShare> ranks;  ///< sorted by rank, only ranks on the path

  // Diagnostics.
  std::uint64_t spans_seen = 0;      ///< rank-bound non-instant spans
  std::uint64_t edges_matched = 0;   ///< recv spans paired with their send
  std::uint64_t recvs_unmatched = 0; ///< recv edges with no recorded send
  std::uint64_t waits_on_path = 0;   ///< wait segments in the chain

  /// Share of the path blocked on communication or under exposed comm spans
  /// (everything except compute/io/fault/bubble local work and bubble
  /// waits).  Comparable to Attribution::comm_fraction on symmetric runs.
  [[nodiscard]] double exposed_comm_fraction() const;
  [[nodiscard]] double compute_fraction() const;

  /// Deterministic JSON object ({"path_length_s":...}).  @p with_segments
  /// appends the full segment chain (can be large); off by default.
  [[nodiscard]] std::string to_json(bool with_segments = false) const;
};

/// Analyze an explicit span snapshot (must be in Tracer::snapshot() order —
/// sorted by (rank, shard, seq)).  Host spans (rank < 0) are ignored.
[[nodiscard]] Analysis analyze(const std::vector<Span>& spans);

/// Analyze the live tracer's snapshot.  Quiescent only.
[[nodiscard]] Analysis from_tracer();

}  // namespace msa::obs::critpath
