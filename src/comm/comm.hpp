// MPI-style communicator over the thread-backed runtime.
//
// This is the stand-in for MPI + Horovod's transport in the paper's software
// stack.  Real bytes move between rank threads (numerics are exact); each
// operation also advances the rank's simulated clock according to the simnet
// cost models, so time measurements scale to rank counts far beyond the
// host's physical cores (the "dual clock" described in DESIGN.md).
//
// Collectives are implemented with the textbook algorithms (binomial trees,
// ring reduce-scatter/allgather, recursive halving-doubling) on top of the
// timed point-to-point layer, so the simulated critical path *emerges* from
// the algorithm rather than being asserted.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "comm/failure.hpp"
#include "comm/mailbox.hpp"
#include "comm/request.hpp"
#include "obs/trace.hpp"
#include "simnet/clock.hpp"
#include "simnet/collective.hpp"
#include "simnet/machine.hpp"

namespace msa::comm {

/// Element-wise combine operations for reductions.
enum class ReduceOp { Sum, Max, Min, Prod };

template <typename T>
[[nodiscard]] T apply_reduce(ReduceOp op, T a, T b) {
  switch (op) {
    case ReduceOp::Sum: return a + b;
    case ReduceOp::Max: return a > b ? a : b;
    case ReduceOp::Min: return a < b ? a : b;
    case ReduceOp::Prod: return a * b;
  }
  throw std::invalid_argument("unknown reduce op");
}

namespace detail {

/// Runtime-wide state shared by every Comm handle.
struct SharedState {
  explicit SharedState(simnet::Machine m)
      : machine(std::move(m)),
        mailboxes(static_cast<std::size_t>(machine.ranks())),
        clocks(static_cast<std::size_t>(machine.ranks())),
        rank_state(static_cast<std::size_t>(machine.ranks())),
        straggler_events(static_cast<std::size_t>(machine.ranks())),
        compute_charged_s(static_cast<std::size_t>(machine.ranks()), 0.0) {
    // Engines hold pointers into `clocks`, which never resizes after this.
    engines.reserve(static_cast<std::size_t>(machine.ranks()));
    for (int r = 0; r < machine.ranks(); ++r) {
      engines.emplace_back(r, &clocks[static_cast<std::size_t>(r)]);
    }
  }

  simnet::Machine machine;
  std::vector<Mailbox> mailboxes;           // indexed by world rank
  std::vector<simnet::SimClock> clocks;     // indexed by world rank
  std::vector<ProgressEngine> engines;      // indexed by world rank
  std::vector<std::uint64_t> bytes_sent =   // traffic accounting per rank
      std::vector<std::uint64_t>(static_cast<std::size_t>(machine.ranks()), 0);

  // ---- liveness board (see failure.hpp) ------------------------------------
  // One RankState per world rank; failure_epoch increments on every Failed
  // transition so a recovery rendezvous (rejoin) can notice "the failed set
  // grew since my communicator last acknowledged it" with one atomic load.
  std::vector<std::atomic<int>> rank_state;
  std::atomic<std::uint64_t> failure_epoch{0};
  std::mutex failed_mutex;
  std::vector<int> failed_ranks;  // world ranks, guarded by failed_mutex

  // Straggler tolerance accounting: backstop expiries survived per rank.
  std::vector<std::atomic<std::uint64_t>> straggler_events;

  // Cumulative simulated compute seconds charged per rank (after any injected
  // compute_factor).  Written and read only by the owning rank's thread — the
  // health monitor samples its own slot and allgathers, so no atomics needed.
  std::vector<double> compute_charged_s;

  // ---- collective abandonment board ----------------------------------------
  // ULFM-revoke-style propagation: a rank that aborts a collective mid-flight
  // stops forwarding, so peers waiting on its messages would hang.  Rather
  // than an eager "abort everything on any failure" cascade (whose abort
  // points depend on thread timing, making recovery rollback points — and
  // therefore replayed trajectories — nondeterministic), the aborting rank
  // marks itself abandoned on that communicator and a blocked recv aborts
  // only when its sender is dead, exited, or abandoned.  Every survivor's
  // abort point is then a pure function of the collective's message structure
  // and the fault plan: deterministic across runs and thread counts.
  std::mutex abandon_mutex;
  std::map<std::uint64_t, std::vector<char>> comm_abandoned;  // comm -> world flags

  void mark_abandoned(std::uint64_t comm_id, int world_rank) {
    {
      std::lock_guard lock(abandon_mutex);
      auto& flags = comm_abandoned[comm_id];
      if (flags.empty()) flags.resize(static_cast<std::size_t>(machine.ranks()), 0);
      flags[static_cast<std::size_t>(world_rank)] = 1;
    }
    poke_all();
  }
  [[nodiscard]] bool is_abandoned(std::uint64_t comm_id, int world_rank) {
    std::lock_guard lock(abandon_mutex);
    auto it = comm_abandoned.find(comm_id);
    return it != comm_abandoned.end() && !it->second.empty() &&
           it->second[static_cast<std::size_t>(world_rank)] != 0;
  }
  void clear_abandoned(std::uint64_t comm_id) {
    std::lock_guard lock(abandon_mutex);
    comm_abandoned.erase(comm_id);
  }

  // Rank-wide recovery flags: a rank that enters recovery
  // (Comm::abandon_requests) stops sending on EVERY communicator it belongs
  // to until it passes its next rejoin().  Per-comm abandonment cannot tell
  // peers blocked on the rank's OTHER communicators (a mesh's data axis
  // while the rank aborted on the pipeline axis), and without this flag
  // their only rescue is the slow wall-clock backstop — skewing survivors'
  // rejoin arrivals past the rendezvous backstop.  The abort point stays
  // deterministic: a blocked recv aborts at the first message the
  // recovering rank provably will never send (it cannot resume before the
  // waiter itself reaches rejoin).
  std::vector<char> recovering;  // world flags, guarded by abandon_mutex
  void set_recovering(int world_rank, bool on) {
    {
      std::lock_guard lock(abandon_mutex);
      if (recovering.empty()) {
        recovering.resize(static_cast<std::size_t>(machine.ranks()), 0);
      }
      recovering[static_cast<std::size_t>(world_rank)] = on ? 1 : 0;
    }
    if (on) poke_all();
  }
  [[nodiscard]] bool is_recovering(int world_rank) {
    std::lock_guard lock(abandon_mutex);
    return !recovering.empty() &&
           recovering[static_cast<std::size_t>(world_rank)] != 0;
  }

  // ---- recovery rendezvous board (Comm::rejoin) ----------------------------
  // Out-of-band agreement per communicator id, modelling a ULFM-style
  // shrink/agree service.  In-band barriers cannot serve as the recovery
  // rendezvous: survivors enter recovery at different times with divergent
  // collective-tag sequences, so their barrier messages cross-talk with the
  // aborted collective's leftovers.  The board needs no messages and no tags.
  struct JoinState {
    std::uint64_t generation = 0;
    // world rank -> (coll_seq, sim clock) of ranks currently waiting.
    std::map<int, std::pair<int, double>> arrivals;
    // completed generation -> agreed (max coll_seq, max clock).
    std::map<std::uint64_t, std::pair<int, double>> results;
  };
  std::mutex join_mutex;
  std::condition_variable join_cv;
  std::map<std::uint64_t, JoinState> joins;  // keyed by communicator id

  // Fault-injection hooks; null when no plan is armed (the common case), so
  // the hot paths pay a single pointer test.
  std::shared_ptr<FaultHooks> hooks;

  [[nodiscard]] RankState state_of(int world_rank) const {
    return static_cast<RankState>(
        rank_state[static_cast<std::size_t>(world_rank)].load(
            std::memory_order_acquire));
  }

  /// Clean SPMD return.  Pokes mailboxes so orphaned receives waiting on this
  /// rank re-check liveness, but does NOT bump the failure epoch: peers still
  /// draining already-sent messages must not abort spuriously.
  void mark_exited(int world_rank) {
    rank_state[static_cast<std::size_t>(world_rank)].store(
        static_cast<int>(RankState::Exited), std::memory_order_release);
    poke_all();
  }

  /// Crash (injected kill or escaped exception).  Bumps the failure epoch so
  /// every blocked recv in the world aborts and surfaces RankFailedError.
  void mark_failed(int world_rank) {
    rank_state[static_cast<std::size_t>(world_rank)].store(
        static_cast<int>(RankState::Failed), std::memory_order_release);
    {
      std::lock_guard lock(failed_mutex);
      failed_ranks.push_back(world_rank);
    }
    failure_epoch.fetch_add(1, std::memory_order_acq_rel);
    poke_all();
  }

  /// Sorted world ranks that have Failed so far this run.
  [[nodiscard]] std::vector<int> failed_snapshot() {
    std::lock_guard lock(failed_mutex);
    std::vector<int> out = failed_ranks;
    std::sort(out.begin(), out.end());
    return out;
  }

  void poke_all() {
    for (auto& mb : mailboxes) mb.poke();
    // Lock-then-notify so a rejoin waiter between its predicate check and its
    // wait cannot miss the wakeup (same discipline as Mailbox::poke).
    { std::lock_guard lock(join_mutex); }
    join_cv.notify_all();
  }

  /// Reset liveness + fault accounting for a fresh Runtime::run.
  void reset_run() {
    for (auto& s : rank_state) {
      s.store(static_cast<int>(RankState::Alive), std::memory_order_relaxed);
    }
    failure_epoch.store(0, std::memory_order_relaxed);
    {
      std::lock_guard lock(failed_mutex);
      failed_ranks.clear();
    }
    for (auto& s : straggler_events) s.store(0, std::memory_order_relaxed);
    for (auto& c : compute_charged_s) c = 0.0;
    for (auto& e : engines) e.reset();
    for (auto& mb : mailboxes) mb.clear();
    {
      std::lock_guard lock(abandon_mutex);
      comm_abandoned.clear();
    }
    {
      std::lock_guard lock(join_mutex);
      joins.clear();
    }
  }

  // Deterministic assignment of communicator ids across threads: the first
  // rank to ask for (parent, split_seq, color) allocates the id, the rest
  // look it up.
  std::mutex id_mutex;
  std::uint64_t next_comm_id = 1;  // 0 is the world communicator
  std::map<std::tuple<std::uint64_t, std::uint64_t, int>, std::uint64_t>
      child_ids;

  std::uint64_t child_comm_id(std::uint64_t parent, std::uint64_t seq,
                              int color) {
    std::lock_guard lock(id_mutex);
    auto key = std::make_tuple(parent, seq, color);
    auto [it, inserted] = child_ids.try_emplace(key, next_comm_id);
    if (inserted) ++next_comm_id;
    return it->second;
  }
};

}  // namespace detail

/// A communicator handle bound to one rank (one per rank thread).
///
/// SPMD discipline applies, exactly as with MPI: all ranks of a communicator
/// must call collectives in the same order.
class Comm {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return static_cast<int>(members_.size()); }
  [[nodiscard]] int world_rank() const { return members_[static_cast<std::size_t>(rank_)]; }

  /// ---- simulated time ----------------------------------------------------

  /// Current simulated time of this rank, seconds.
  [[nodiscard]] double sim_now() const { return clock().now(); }

  /// Charge compute time for a kernel of @p flops touching @p bytes, using
  /// this rank's roofline profile.  An armed fault plan may stretch the
  /// charge (fail-slow compute degradation); the stretched time also feeds
  /// the per-rank compute accounting the health monitor samples.
  void charge_compute(double flops, double bytes) {
    obs::ScopedSpan span(obs::Category::Compute, "charge_compute",
                         world_rank(), &clock(),
                         static_cast<std::uint64_t>(bytes),
                         static_cast<std::uint64_t>(flops), comm_id_);
    double t = machine().compute(world_rank()).kernel_time(flops, bytes);
    if (FaultHooks* h = state_->hooks.get()) {
      t *= h->compute_factor(world_rank());
    }
    state_->compute_charged_s[static_cast<std::size_t>(world_rank())] += t;
    clock().advance(t);
  }

  /// Cumulative simulated compute seconds this world rank has charged
  /// (including any injected slowdown) — the health monitor's raw signal.
  [[nodiscard]] double compute_charged_s() const {
    return state_->compute_charged_s[static_cast<std::size_t>(world_rank())];
  }

  /// Charge an explicit duration (e.g. measured host time scaled to target).
  void charge_seconds(double s) { clock().advance(s); }

  [[nodiscard]] const simnet::Machine& machine() const { return state_->machine; }

  /// Total payload bytes this world rank has sent so far.
  [[nodiscard]] std::uint64_t bytes_sent() const {
    return state_->bytes_sent[static_cast<std::size_t>(world_rank())];
  }

  /// ---- point to point ----------------------------------------------------

  template <typename T>
  void send(std::span<const T> data, int dest, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(as_bytes(data), dest, tag, /*charge_link=*/true);
  }

  template <typename T>
  void recv(std::span<T> out, int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Envelope env = recv_envelope(src, tag);
    if (env.payload.size() != out.size_bytes()) {
      throw std::runtime_error("recv: size mismatch");
    }
    // memcpy with a null source is UB even for zero bytes (empty chunks
    // happen in ring phases when the payload is smaller than the ring).
    if (!env.payload.empty()) {
      std::memcpy(out.data(), env.payload.data(), env.payload.size());
    }
  }

  /// Receive a message of unknown size.
  template <typename T>
  std::vector<T> recv_any_size(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Envelope env = recv_envelope(src, tag);
    if (env.payload.size() % sizeof(T) != 0) {
      throw std::runtime_error("recv_any_size: payload not a multiple of T");
    }
    std::vector<T> out(env.payload.size() / sizeof(T));
    if (!env.payload.empty()) {
      std::memcpy(out.data(), env.payload.data(), env.payload.size());
    }
    return out;
  }

  /// ---- collectives ---------------------------------------------------

  /// Dissemination barrier (log P zero-payload rounds).
  void barrier();

  /// Binomial-tree broadcast of @p data from @p root.
  template <typename T>
  void bcast(std::span<T> data, int root) {
    obs::ScopedSpan span(obs::Category::Comm, "bcast", world_rank(), &clock(),
                         data.size_bytes(), 0, comm_id_);
    const int vrank = virtual_rank(rank(), root);
    const int tag = next_coll_tag();
    span.set_edge(obs::EdgeKind::None, -1, tag);
    // Receive from parent, then forward to children, in virtual rank space.
    if (vrank != 0) {
      const int parent = actual_rank(parent_of(vrank), root);
      recv(data, parent, tag);
    }
    for (int child : children_of(vrank)) {
      send(std::span<const T>(data.data(), data.size()),
           actual_rank(child, root), tag);
    }
  }

  /// Binomial-tree reduction to @p root (in place on root; other ranks'
  /// buffers are used as scratch and keep their local contribution).
  template <typename T>
  void reduce(std::span<T> data, ReduceOp op, int root) {
    obs::ScopedSpan span(obs::Category::Comm, "reduce", world_rank(), &clock(),
                         data.size_bytes(), 0, comm_id_);
    const int vrank = virtual_rank(rank(), root);
    const int tag = next_coll_tag();
    span.set_edge(obs::EdgeKind::None, -1, tag);
    std::vector<T> incoming(data.size());
    // Children first (deepest subtrees), then send partial to parent.
    for (int child : children_of(vrank)) {
      recv(std::span<T>(incoming), actual_rank(child, root), tag);
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = apply_reduce(op, data[i], incoming[i]);
      }
    }
    if (vrank != 0) {
      send(std::span<const T>(data.data(), data.size()),
           actual_rank(parent_of(vrank), root), tag);
    }
  }

  /// Allreduce with explicit algorithm choice; defaults to a tuned pick
  /// (ring for large payloads, tree for tiny, GCE when the fabric has one).
  template <typename T>
  void allreduce(std::span<T> data, ReduceOp op,
                 std::optional<simnet::CollectiveAlgorithm> alg = {}) {
    if (size() == 1) return;
    obs::ScopedSpan span(obs::Category::Comm, "allreduce", world_rank(),
                         &clock(), data.size_bytes(), 0, comm_id_);
    const auto chosen = alg.value_or(auto_allreduce_alg(data.size_bytes()));
    switch (chosen) {
      case simnet::CollectiveAlgorithm::Ring:
        ring_allreduce(data, op);
        return;
      case simnet::CollectiveAlgorithm::BinomialTree:
        reduce(data, op, 0);
        bcast(data, 0);
        return;
      case simnet::CollectiveAlgorithm::Rabenseifner:
        rabenseifner_allreduce(data, op);
        return;
      case simnet::CollectiveAlgorithm::GceOffload:
        gce_allreduce(data, op);
        return;
    }
    throw std::invalid_argument("unknown allreduce algorithm");
  }

  /// Ring allgather: every rank contributes @p mine, returns concatenation
  /// ordered by rank.  All contributions must have equal size.
  template <typename T>
  std::vector<T> allgather(std::span<const T> mine) {
    const std::size_t n = mine.size();
    std::vector<T> out(n * static_cast<std::size_t>(size()));
    std::copy(mine.begin(), mine.end(),
              out.begin() + static_cast<std::ptrdiff_t>(
                                n * static_cast<std::size_t>(rank())));
    allgather_inplace(std::span<T>(out), n);
    return out;
  }

  /// In-place ring allgather: @p data holds size()*chunk elements; on entry
  /// this rank's chunk [rank*chunk, (rank+1)*chunk) carries its contribution,
  /// on return every chunk holds its owner's contribution.  allgather() is
  /// this ring over a fresh buffer; destinations that are already contiguous
  /// slabs (e.g. ZeRO's parameter gather) call it directly.
  template <typename T>
  void allgather_inplace(std::span<T> data, std::size_t chunk) {
    obs::ScopedSpan span(obs::Category::Comm, "allgather", world_rank(),
                         &clock(), chunk * sizeof(T), 0, comm_id_);
    const int P = size();
    if (data.size() != chunk * static_cast<std::size_t>(P)) {
      throw std::runtime_error("allgather_inplace: data must be size()*chunk");
    }
    if (P == 1) return;
    const int tag = next_coll_tag();
    const int right = (rank() + 1) % P;
    const int left = (rank() + P - 1) % P;
    int have = rank();  // block index we most recently obtained
    for (int step = 0; step < P - 1; ++step) {
      std::span<const T> outgoing(
          data.data() + chunk * static_cast<std::size_t>(have), chunk);
      send(outgoing, right, tag);
      const int incoming = (have + P - 1) % P;
      std::span<T> in_block(
          data.data() + chunk * static_cast<std::size_t>(incoming), chunk);
      recv(in_block, left, tag);
      have = incoming;
    }
  }

  /// Gather equal-size contributions at @p root (binomial tree).  Returns the
  /// concatenation at root, empty vector elsewhere.
  template <typename T>
  std::vector<T> gather(std::span<const T> mine, int root) {
    obs::ScopedSpan span(obs::Category::Comm, "gather", world_rank(), &clock(),
                         mine.size_bytes(), 0, comm_id_);
    const int P = size();
    const std::size_t n = mine.size();
    const int vrank = virtual_rank(rank(), root);
    const int tag = next_coll_tag();
    // Each node accumulates the blocks of its whole virtual subtree, indexed
    // by virtual rank, then forwards one packed message to its parent.
    std::vector<T> packed(mine.begin(), mine.end());  // block vrank..subtree
    std::vector<int> block_vranks{vrank};
    for (int child : children_of(vrank)) {
      auto sub = recv_any_size<T>(actual_rank(child, root), tag);
      packed.insert(packed.end(), sub.begin(), sub.end());
      const int subtree = subtree_size(child, P);
      for (int i = 0; i < subtree; ++i) block_vranks.push_back(child + i);
    }
    if (vrank != 0) {
      send(std::span<const T>(packed), actual_rank(parent_of(vrank), root), tag);
      return {};
    }
    // Root: unpack from virtual-rank order into actual-rank order.
    std::vector<T> out(n * static_cast<std::size_t>(P));
    for (std::size_t b = 0; b < block_vranks.size(); ++b) {
      const int ar = actual_rank(block_vranks[b], root);
      std::copy(packed.begin() + static_cast<std::ptrdiff_t>(b * n),
                packed.begin() + static_cast<std::ptrdiff_t>((b + 1) * n),
                out.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(ar) * n));
    }
    return out;
  }

  /// Scatter equal-size chunks from @p root.  @p all is significant at root
  /// only and must hold size()*chunk elements.  Returns this rank's chunk.
  template <typename T>
  std::vector<T> scatter(std::span<const T> all, std::size_t chunk, int root) {
    obs::ScopedSpan span(obs::Category::Comm, "scatter", world_rank(),
                         &clock(), chunk * sizeof(T), 0, comm_id_);
    const int tag = next_coll_tag();
    if (rank() == root) {
      if (all.size() != chunk * static_cast<std::size_t>(size())) {
        throw std::runtime_error("scatter: bad source size");
      }
      for (int r = 0; r < size(); ++r) {
        if (r == root) continue;
        send(std::span<const T>(all.data() + chunk * static_cast<std::size_t>(r), chunk), r, tag);
      }
      return std::vector<T>(all.begin() + static_cast<std::ptrdiff_t>(chunk * static_cast<std::size_t>(root)),
                            all.begin() + static_cast<std::ptrdiff_t>(chunk * static_cast<std::size_t>(root + 1)));
    }
    std::vector<T> mine(chunk);
    recv(std::span<T>(mine), root, tag);
    return mine;
  }

  /// Ring reduce-scatter: @p data holds size()*chunk elements on every rank;
  /// on return this rank's chunk [rank*chunk, (rank+1)*chunk) holds the
  /// element-wise reduction across all ranks (other positions are scratch).
  /// Returns a copy of the owned chunk.
  template <typename T>
  std::vector<T> reduce_scatter(std::span<T> data, std::size_t chunk,
                                ReduceOp op) {
    obs::ScopedSpan span(obs::Category::Comm, "reduce_scatter", world_rank(),
                         &clock(), data.size_bytes(), 0, comm_id_);
    const int P = size();
    if (data.size() != chunk * static_cast<std::size_t>(P)) {
      throw std::runtime_error("reduce_scatter: data must be size()*chunk");
    }
    const int tag = next_coll_tag();
    const int right = (rank() + 1) % P;
    const int left = (rank() + P - 1) % P;
    std::vector<T> incoming(chunk);
    auto chunk_span = [&](int c) {
      const int cc = ((c % P) + P) % P;
      return std::span<T>(data.data() + chunk * static_cast<std::size_t>(cc),
                          chunk);
    };
    // Chunk c starts at rank c+1 and walks the ring accumulating local
    // contributions, arriving complete at rank c on the final step.
    for (int step = 0; step < P - 1; ++step) {
      auto out_chunk = chunk_span(rank() - step - 1);
      auto in_chunk = chunk_span(rank() - step - 2);
      send(std::span<const T>(out_chunk.data(), out_chunk.size()), right, tag);
      std::span<T> in_buf(incoming.data(), chunk);
      recv(in_buf, left, tag);
      for (std::size_t i = 0; i < chunk; ++i) {
        in_chunk[i] = apply_reduce(op, in_chunk[i], in_buf[i]);
      }
    }
    auto mine = chunk_span(rank());
    return std::vector<T>(mine.begin(), mine.end());
  }

  /// Pairwise-exchange all-to-all: @p data holds size() blocks of @p chunk
  /// elements (block r destined for rank r).  Returns the gathered blocks
  /// ordered by source rank.
  template <typename T>
  std::vector<T> alltoall(std::span<const T> data, std::size_t chunk) {
    obs::ScopedSpan span(obs::Category::Comm, "alltoall", world_rank(),
                         &clock(), data.size_bytes(), 0, comm_id_);
    const int P = size();
    if (data.size() != chunk * static_cast<std::size_t>(P)) {
      throw std::runtime_error("alltoall: data must be size()*chunk");
    }
    const int tag = next_coll_tag();
    std::vector<T> out(data.size());
    // Own block copies locally.
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(chunk * static_cast<std::size_t>(rank())),
              data.begin() + static_cast<std::ptrdiff_t>(chunk * static_cast<std::size_t>(rank() + 1)),
              out.begin() + static_cast<std::ptrdiff_t>(chunk * static_cast<std::size_t>(rank())));
    // Pairwise exchange: at step s, swap with rank ^ s is only valid for
    // power-of-two; use the general (rank + s) pattern instead.
    for (int step = 1; step < P; ++step) {
      const int to = (rank() + step) % P;
      const int from = (rank() + P - step) % P;
      send(std::span<const T>(
               data.data() + chunk * static_cast<std::size_t>(to), chunk),
           to, tag);
      std::span<T> in(out.data() + chunk * static_cast<std::size_t>(from),
                      chunk);
      recv(in, from, tag);
    }
    return out;
  }

  /// Advance every rank's clock as if an allreduce of @p n_bytes happened,
  /// without moving that payload.  Used by performance-model benches to
  /// price full-scale workloads (e.g. ResNet-50's 102 MB gradients) while
  /// the numerics run on a scaled stand-in (see DESIGN.md, dual clock).
  void charge_allreduce(std::uint64_t n_bytes,
                        std::optional<simnet::CollectiveAlgorithm> alg = {});

  /// ---- nonblocking operations (see request.hpp) ---------------------------

  /// This rank's progress engine (one per world rank, rank-thread-local use).
  [[nodiscard]] ProgressEngine& progress_engine() const {
    return state_->engines[static_cast<std::size_t>(world_rank())];
  }

  /// Nonblocking send.  The runtime's sends are buffered (the mailbox deposit
  /// happens here), so the request completes at issue; the handle exists for
  /// MPI-shaped call sites and wait_all symmetry.
  template <typename T>
  Request isend(std::span<const T> data, int dest, int tag) {
    send(data, dest, tag);
    return progress_engine().submit_immediate();
  }

  /// Nonblocking receive into @p out (which must outlive completion).
  /// test() polls the mailbox without blocking; wait() blocks like recv.
  template <typename T>
  Request irecv(std::span<T> out, int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Comm self = *this;
    return progress_engine().submit_poll(
        [self, out, src, tag](bool blocking) mutable -> bool {
          if (blocking) {
            self.recv(out, src, tag);
            return true;
          }
          return self.try_recv(out, src, tag);
        });
  }

  /// Nonblocking allreduce.  Deferred execution: the real algorithm runs on
  /// real data when the request is drained (wait/test), with the simulated
  /// clock rewound to the issue point so the interval overlaps whatever the
  /// rank did in between — see request.hpp.  SPMD: every rank must issue its
  /// nonblocking collectives in the same order.
  template <typename T>
  Request iallreduce(std::span<T> data, ReduceOp op,
                     std::optional<simnet::CollectiveAlgorithm> alg = {}) {
    if (size() == 1) return progress_engine().submit_immediate();
    Comm snapshot = reserve_coll_window();
    return progress_engine().submit_deferred(
        data.size_bytes(), [snapshot, data, op, alg]() mutable {
          snapshot.allreduce(data, op, alg);
        });
  }

  /// Nonblocking counterpart of charge_allreduce (time-only, no payload);
  /// overlap with the caller's compute emerges from the drain.
  Request icharge_allreduce(
      std::uint64_t n_bytes,
      std::optional<simnet::CollectiveAlgorithm> alg = {}) {
    if (size() == 1) return progress_engine().submit_immediate();
    Comm snapshot = reserve_coll_window();
    return progress_engine().submit_deferred(
        n_bytes, [snapshot, n_bytes, alg]() mutable {
          snapshot.charge_allreduce(n_bytes, alg);
        });
  }

  /// Generic deferred operation for composing multi-stage reductions (e.g.
  /// the hierarchical intra/inter-module path): @p body runs its blocking
  /// communication when the request drains.  Bodies must follow SPMD issue
  /// order on every involved communicator; @p bytes is attribution metadata.
  Request idefer(std::uint64_t bytes, std::function<void()> body) {
    (void)reserve_coll_window();  // keep later blocking tags out of the window
    return progress_engine().submit_deferred(bytes, std::move(body));
  }

  /// Abandon every in-flight request on this rank (recovery after failures).
  /// Outstanding handles then throw RequestError(Kind::Abandoned) on wait.
  /// Also marks this rank as recovering on every communicator: peers blocked
  /// on a recv from it — on ANY comm of a multi-axis layout — abort with the
  /// usual typed errors instead of waiting out their wall backstop.  The
  /// flag clears when this rank passes its next rejoin().
  void abandon_requests() {
    state_->set_recovering(world_rank(), true);
    progress_engine().abandon_all();
  }

  /// Split into sub-communicators by @p color; ranks ordered by (key, rank).
  [[nodiscard]] Comm split(int color, int key);

  /// What split(color, key) gives this rank, without the exchange, for a
  /// caller that already knows its group: @p ranks are its members as ranks
  /// of this communicator, in their new rank order, and include rank().  It
  /// takes the split sequence number and child id split would, so every
  /// member calls it where it would call split, with the same arguments as
  /// the rest of its group.  With rank() as the only rank it makes this rank
  /// alone.
  [[nodiscard]] Comm split_known(int color, std::span<const int> ranks);

  /// Duplicate this communicator (fresh tag space).
  [[nodiscard]] Comm dup() { return split(0, rank()); }

  /// ---- failure semantics ---------------------------------------------------

  /// Announce that this rank reached training step @p step.  The canonical
  /// fault-injection site: an armed FaultPlan may throw RankKilledError here.
  /// No-op (one pointer test) when no plan is armed.
  void progress(int step) {
    if (FaultHooks* h = state_->hooks.get()) {
      h->on_step(world_rank(), step, clock().now());
    }
  }

  /// Consult an armed fault plan about the checkpoint archive this rank just
  /// committed (disk-fault injection: torn write / bit flip, applied by the
  /// checkpoint writer).  None when no plan is armed.
  [[nodiscard]] DiskFaultKind checkpoint_write_fault() {
    if (FaultHooks* h = state_->hooks.get()) {
      return h->on_checkpoint_write(world_rank());
    }
    return DiskFaultKind::None;
  }

  /// Deterministically rebuild this communicator without @p dead_world_ranks.
  /// Pure function of (parent comm, removed set): every survivor that calls
  /// shrink with the same dead set gets the same communicator id, and repeated
  /// calls are idempotent — essential when failures race with recovery.
  /// Purely local (no communication): survivors may be in arbitrary states.
  [[nodiscard]] Comm shrink(const std::vector<int>& dead_world_ranks) const;

  /// Recovery rendezvous: block until every member of this communicator has
  /// also called rejoin, then align all members' collective-tag sequences (to
  /// the max, so tags of aborted collectives are never reused and their stale
  /// messages can never match again) and max-sync their simulated clocks plus
  /// the detection timeout.  Out-of-band (no messages): survivors may arrive
  /// with arbitrarily divergent tag state, which is exactly the situation
  /// after an aborted collective.  Throws RankFailedError if the failed set
  /// grows past this handle's acknowledgement while waiting (caller should
  /// shrink further and retry) or if a member exited; CommTimeoutError when
  /// the real-wall-clock backstop expires first.
  void rejoin();

  /// Identity of this communicator (world is 0; split/shrink children are
  /// deterministically derived — see shrink()).
  [[nodiscard]] std::uint64_t id() const { return comm_id_; }

  /// Accept the current failed set: recvs on this handle stop aborting for
  /// failures already visible now.  Returns the sorted failed world ranks.
  std::vector<int> acknowledge_failures() {
    ack_epoch_ = state_->failure_epoch.load(std::memory_order_acquire);
    return state_->failed_snapshot();
  }

  /// Sorted world ranks that have failed so far this run.
  [[nodiscard]] std::vector<int> failed_ranks() const {
    return state_->failed_snapshot();
  }

  /// Set the real-wall-clock backstop of this handle's blocking recvs and
  /// rejoins (seconds; 0, the default, waits for a liveness event).
  /// @p retries extra doubled waits tolerate transient stragglers before
  /// CommTimeoutError.  Handles later made from this one by split,
  /// split_known, dup or shrink inherit the setting.  Wall-clock only:
  /// simulated time is untouched until the final expiry.
  void set_wall_backstop(double seconds, int retries = 1) {
    wall_backstop_s_ = seconds;
    backstop_retries_ = retries;
  }

  /// Times this rank survived a backstop expiry and then got its message —
  /// i.e. transient stragglers absorbed by retry-with-backoff.
  [[nodiscard]] std::uint64_t straggler_events() const {
    return state_->straggler_events[static_cast<std::size_t>(world_rank())]
        .load(std::memory_order_relaxed);
  }

  /// Drop stale queued messages addressed to this communicator on this rank's
  /// mailbox (cleanup after abandoning a broken collective).
  std::size_t purge_pending() {
    return state_->mailboxes[static_cast<std::size_t>(world_rank())].purge(
        comm_id_);
  }

 private:
  friend class Runtime;

  Comm(std::shared_ptr<detail::SharedState> state, std::uint64_t comm_id,
       std::vector<int> members, int rank)
      : state_(std::move(state)),
        comm_id_(comm_id),
        members_(std::move(members)),
        rank_(rank) {}

  [[nodiscard]] simnet::SimClock& clock() const {
    return state_->clocks[static_cast<std::size_t>(world_rank())];
  }

  template <typename T>
  static std::span<const std::byte> as_bytes(std::span<const T> s) {
    return {reinterpret_cast<const std::byte*>(s.data()), s.size_bytes()};
  }

  void send_bytes(std::span<const std::byte> bytes, int dest, int tag,
                  bool charge_link);
  Envelope recv_envelope(int src, int tag);

  /// True when a blocked recv from @p src (comm rank or kAnySource) can never
  /// complete: the source (every other member, for any-source) is no longer
  /// Alive or has abandoned a collective on this communicator — see the
  /// abandonment board in SharedState for why this is deliberately narrower
  /// than "any failure anywhere".
  [[nodiscard]] bool recv_abandoned(int src) const;

  /// Snapshot this communicator for a deferred body and advance the
  /// original's collective-tag sequence past the snapshot's window (8 tags
  /// covers any single composed collective here — the widest, tree allreduce
  /// and GCE offload, use 2).  Blocking collectives issued between a deferred
  /// op's issue and its drain therefore can never share tags with it.
  Comm reserve_coll_window() {
    Comm snapshot = *this;
    coll_seq_ = (coll_seq_ + 8) & 0x1FFFFFFF;
    return snapshot;
  }

  /// Nonblocking receive attempt backing irecv::test(): take a queued match
  /// if present, with the same clock/link accounting as the blocking path.
  template <typename T>
  bool try_recv(std::span<T> out, int src, int tag) {
    if (src != kAnySource && (src < 0 || src >= size())) {
      throw std::out_of_range("recv: bad src");
    }
    auto opt = state_->mailboxes[static_cast<std::size_t>(world_rank())]
                   .try_get(comm_id_, src, tag);
    if (!opt) return false;
    Envelope env = std::move(*opt);
    if (env.payload.size() != out.size_bytes()) {
      throw std::runtime_error("recv: size mismatch");
    }
    obs::ScopedSpan span(obs::Category::Comm, "recv", world_rank(), &clock(),
                         env.payload.size(), 0, comm_id_);
    span.set_edge(obs::EdgeKind::Recv,
                  members_[static_cast<std::size_t>(env.src)], tag);
    if (env.charge_link) {
      const int src_world = members_[static_cast<std::size_t>(env.src)];
      const auto& link = machine().link_between(src_world, world_rank());
      double transfer = link.transfer_time(env.payload.size());
      if (FaultHooks* h = state_->hooks.get()) {
        transfer *= h->link_factor(src_world, world_rank(), clock().now());
      }
      clock().sync_to(env.send_time_s + transfer);
    } else {
      clock().sync_to(env.send_time_s);
    }
    if (!env.payload.empty()) {
      std::memcpy(out.data(), env.payload.data(), env.payload.size());
    }
    return true;
  }

  /// Fresh tag for one collective call; negative space, advances per call.
  int next_coll_tag() {
    // User tags are >= 0.  Collective tags cycle through a large negative
    // range; 2^29 concurrent outstanding collectives would be needed to
    // collide.
    coll_seq_ = (coll_seq_ + 1) & 0x1FFFFFFF;
    return -1 - coll_seq_;
  }

  [[nodiscard]] simnet::CollectiveAlgorithm auto_allreduce_alg(
      std::size_t n_bytes) const;

  // ---- binomial tree helpers in "virtual rank" space (root -> vrank 0) ----
  [[nodiscard]] int virtual_rank(int r, int root) const {
    return (r - root + size()) % size();
  }
  [[nodiscard]] int actual_rank(int vrank, int root) const {
    return (vrank + root) % size();
  }
  [[nodiscard]] static int parent_of(int vrank) {
    // Clear the lowest set bit.
    return vrank & (vrank - 1);
  }
  [[nodiscard]] std::vector<int> children_of(int vrank) const {
    // Children are vrank + 2^k for growing k while below lowest set bit of
    // vrank (or any power of two for vrank 0), bounded by size().
    std::vector<int> kids;
    for (int bit = 1; vrank + bit < size(); bit <<= 1) {
      if (vrank != 0 && (vrank & bit) != 0) break;
      if ((vrank & (bit - 1)) != 0) break;
      kids.push_back(vrank + bit);
    }
    // Order children so deeper subtrees are received last (better overlap).
    return kids;
  }
  [[nodiscard]] static int subtree_size(int vrank, int P) {
    // Size of the binomial subtree rooted at vrank within P ranks.
    int span = vrank == 0 ? P : (vrank & -vrank);
    return std::min(span, P - vrank);
  }

  template <typename T>
  void ring_allreduce(std::span<T> data, ReduceOp op);

  template <typename T>
  void rabenseifner_allreduce(std::span<T> data, ReduceOp op);

  template <typename T>
  void gce_allreduce(std::span<T> data, ReduceOp op);

  /// Max-synchronise all clocks in this communicator without charging link
  /// time, then advance everyone by @p cost (used for offloaded collectives).
  void sync_clocks_and_charge(double cost);

  std::shared_ptr<detail::SharedState> state_;
  std::uint64_t comm_id_;
  std::vector<int> members_;  // comm rank -> world rank
  int rank_;
  int coll_seq_ = 0;
  std::uint64_t split_seq_ = 0;
  // Failure-detection state, inherited by split()/shrink() children.
  std::uint64_t ack_epoch_ = 0;       // failure epoch this handle has accepted
  double wall_backstop_s_ = 0.0;      // 0: wait for a liveness event
  int backstop_retries_ = 1;          // doubled re-waits after the first expiry
};

// ---- template implementations ----------------------------------------------

template <typename T>
void Comm::ring_allreduce(std::span<T> data, ReduceOp op) {
  const int P = size();
  const std::size_t n = data.size();
  const int tag = next_coll_tag();
  const int right = (rank() + 1) % P;
  const int left = (rank() + P - 1) % P;
  // Partition into P chunks (last chunks may be smaller/empty).
  auto chunk_begin = [&](int c) {
    const std::size_t base = n / static_cast<std::size_t>(P);
    const std::size_t rem = n % static_cast<std::size_t>(P);
    const auto uc = static_cast<std::size_t>(c);
    return base * uc + std::min(uc, rem);
  };
  auto chunk_span = [&](int c) {
    const int cc = ((c % P) + P) % P;
    return std::span<T>(data.data() + chunk_begin(cc),
                        chunk_begin(cc + 1) - chunk_begin(cc));
  };
  std::vector<T> incoming(n / static_cast<std::size_t>(P) + 1);
  // Phase 1: reduce-scatter.  After step s, rank r owns the full reduction of
  // chunk (r - s) (mod P) progressively.
  for (int step = 0; step < P - 1; ++step) {
    auto out_chunk = chunk_span(rank() - step);
    auto in_chunk = chunk_span(rank() - step - 1);
    send(std::span<const T>(out_chunk.data(), out_chunk.size()), right, tag);
    std::span<T> in_buf(incoming.data(), in_chunk.size());
    recv(in_buf, left, tag);
    for (std::size_t i = 0; i < in_chunk.size(); ++i) {
      in_chunk[i] = apply_reduce(op, in_chunk[i], in_buf[i]);
    }
  }
  // Phase 2: allgather of the reduced chunks.
  for (int step = 0; step < P - 1; ++step) {
    auto out_chunk = chunk_span(rank() + 1 - step);
    auto in_chunk = chunk_span(rank() - step);
    send(std::span<const T>(out_chunk.data(), out_chunk.size()), right, tag);
    std::span<T> in_buf(in_chunk.data(), in_chunk.size());
    recv(in_buf, left, tag);
  }
}

template <typename T>
void Comm::rabenseifner_allreduce(std::span<T> data, ReduceOp op) {
  // Recursive halving/doubling; requires a power-of-two rank count and a
  // payload divisible by it (so windows halve evenly), otherwise falls back
  // to the ring, which keeps numerics identical.
  const int P = size();
  if ((P & (P - 1)) != 0 || data.empty() ||
      data.size() % static_cast<std::size_t>(P) != 0) {
    ring_allreduce(data, op);
    return;
  }
  const int tag = next_coll_tag();
  const std::size_t n = data.size();
  std::vector<T> incoming(n);
  // Recursive halving reduce-scatter.
  std::size_t lo = 0, hi = n;  // my active window
  for (int dist = P / 2; dist >= 1; dist /= 2) {
    const int partner = rank() ^ dist;
    const std::size_t mid = lo + (hi - lo) / 2;
    const bool keep_low = (rank() & dist) == 0;
    const std::size_t send_lo = keep_low ? mid : lo;
    const std::size_t send_hi = keep_low ? hi : mid;
    send(std::span<const T>(data.data() + send_lo, send_hi - send_lo), partner,
         tag);
    const std::size_t keep_lo = keep_low ? lo : mid;
    const std::size_t keep_hi = keep_low ? mid : hi;
    std::span<T> in_buf(incoming.data(), keep_hi - keep_lo);
    recv(in_buf, partner, tag);
    for (std::size_t i = 0; i < in_buf.size(); ++i) {
      data[keep_lo + i] = apply_reduce(op, data[keep_lo + i], in_buf[i]);
    }
    lo = keep_lo;
    hi = keep_hi;
  }
  // Recursive doubling allgather (reverse the halving).
  for (int dist = 1; dist < P; dist *= 2) {
    const int partner = rank() ^ dist;
    const std::size_t width = hi - lo;
    send(std::span<const T>(data.data() + lo, width), partner, tag);
    // Partner's window mirrors ours at this level.
    const bool i_am_low = (rank() & dist) == 0;
    const std::size_t other_lo = i_am_low ? hi : lo - width;
    std::span<T> in_buf(data.data() + other_lo, width);
    recv(in_buf, partner, tag);
    lo = std::min(lo, other_lo);
    hi = lo + 2 * width;
  }
}

template <typename T>
void Comm::gce_allreduce(std::span<T> data, ReduceOp op) {
  // Data path: software tree reduce + bcast with *no* link charges (the FPGA
  // does this in-network); time path: max-sync + analytic GCE cost.
  const int tag = next_coll_tag();
  const int vrank = rank();  // root 0
  std::vector<T> incoming(data.size());
  for (int child : children_of(vrank)) {
    Envelope env = recv_envelope(child, tag);
    if (!env.payload.empty()) {
      std::memcpy(incoming.data(), env.payload.data(), env.payload.size());
    }
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = apply_reduce(op, data[i], incoming[i]);
    }
  }
  if (vrank != 0) {
    send_bytes(as_bytes(std::span<const T>(data.data(), data.size())),
               parent_of(vrank), tag, /*charge_link=*/false);
  }
  // Broadcast back, still uncharged.
  if (vrank != 0) {
    Envelope env = recv_envelope(parent_of(vrank), tag);
    if (!env.payload.empty()) {
      std::memcpy(data.data(), env.payload.data(), env.payload.size());
    }
  }
  for (int child : children_of(vrank)) {
    send_bytes(as_bytes(std::span<const T>(data.data(), data.size())), child,
               tag, /*charge_link=*/false);
  }
  // Charge the hardware-offload cost model.
  std::vector<int> world_members(members_);
  const auto model = machine().collective_model(world_members);
  sync_clocks_and_charge(model.allreduce(
      size(), data.size_bytes(), simnet::CollectiveAlgorithm::GceOffload));
}

}  // namespace msa::comm
