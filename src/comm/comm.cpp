#include "comm/comm.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "core/hash.hpp"
#include "obs/metrics.hpp"

namespace msa::comm {

namespace {

/// Simulated seconds a rank is charged for acting on silence: declaring a
/// peer dead, timing out, or leaving a recovery rendezvous.  Models the
/// detection timeout a real system needs before it acts.
constexpr double kDetectionTimeoutS = 1e-3;

}  // namespace

void Comm::send_bytes(std::span<const std::byte> bytes, int dest, int tag,
                      bool charge_link) {
  if (dest < 0 || dest >= size()) throw std::out_of_range("send: bad dest");
  const int dest_world = members_[static_cast<std::size_t>(dest)];
  obs::ScopedSpan span(obs::Category::Comm, "send", world_rank(), &clock(),
                       bytes.size(), 0, comm_id_);
  span.set_edge(obs::EdgeKind::Send, dest_world, tag);
  if (obs::trace_enabled()) {
    static obs::Counter& msgs =
        obs::Registry::instance().counter("comm.msgs_sent");
    static obs::Counter& nbytes =
        obs::Registry::instance().counter("comm.bytes_sent");
    msgs.add(1);
    nbytes.add(bytes.size());
  }
  Envelope env;
  env.comm_id = comm_id_;
  env.src = rank_;
  env.tag = tag;
  env.charge_link = charge_link;
  env.send_time_s = clock().now();
  // Fault-injection site: an armed plan may delay this message (straggler) or
  // kill the sender outright by throwing RankKilledError.
  if (FaultHooks* h = state_->hooks.get()) {
    env.send_time_s += h->on_send(world_rank(), dest_world, bytes.size(),
                                  env.send_time_s);
  }
  env.payload.assign(bytes.begin(), bytes.end());
  state_->bytes_sent[static_cast<std::size_t>(world_rank())] += bytes.size();
  state_->mailboxes[static_cast<std::size_t>(dest_world)].put(std::move(env));
}

bool Comm::recv_abandoned(int src) const {
  // A blocked recv aborts only when its sender provably cannot deliver: the
  // sender is dead or exited (liveness board), or has itself abandoned a
  // collective on this communicator (abandonment board) and so will never
  // send again on it.  Deliberately NOT "any failure anywhere aborts every
  // waiter": such an eager cascade aborts ranks at thread-timing-dependent
  // points, which makes the set of completed steps — and therefore the
  // recovery rollback point and the replayed trajectory — nondeterministic.
  // Transitive starvation still terminates: a sender blocked further down
  // the dependency chain eventually aborts at ITS dead/abandoned source and
  // marks itself abandoned, which unblocks us — one deterministic hop at a
  // time back from the failed rank.
  auto gone = [&](int r) {
    const int world = members_[static_cast<std::size_t>(r)];
    return state_->state_of(world) != RankState::Alive ||
           state_->is_abandoned(comm_id_, world) ||
           state_->is_recovering(world);
  };
  if (src != kAnySource) return gone(src);
  // Any-source: hopeless only when every other member is gone.
  for (int r = 0; r < size(); ++r) {
    if (r != rank_ && !gone(r)) return false;
  }
  return true;
}

Envelope Comm::recv_envelope(int src, int tag) {
  if (src != kAnySource && (src < 0 || src >= size())) {
    throw std::out_of_range("recv: bad src");
  }
  obs::ScopedSpan span(obs::Category::Comm, "recv", world_rank(), &clock(),
                       0, 0, comm_id_);
  // Stack-allocated abandon test: evaluated by the mailbox only on the
  // slow path (nothing queued, about to block), so the fast path costs
  // nothing beyond passing the pointer.
  struct RecvWaiter final : Mailbox::Waiter {
    const Comm* comm;
    int src;
    RecvWaiter(const Comm* c, int s) : comm(c), src(s) {}
    bool abandoned() override { return comm->recv_abandoned(src); }
  } waiter(this, src);
  auto res = state_->mailboxes[static_cast<std::size_t>(world_rank())].get(
      comm_id_, src, tag, &waiter, wall_backstop_s_, backstop_retries_);
  if (res.late_waits > 0) {
    // Backstop expiries depend on host load, so they are counted here and
    // kept off the span timeline, which must replay bit-identically.
    state_->straggler_events[static_cast<std::size_t>(world_rank())]
        .fetch_add(static_cast<std::uint64_t>(res.late_waits),
                   std::memory_order_relaxed);
  }
  if (res.status == Mailbox::Status::Abandoned) {
    // This rank stops forwarding for the collective it is abandoning, so
    // peers blocked on its messages must learn to give up too (see
    // recv_abandoned): publish the abandonment before surfacing the error.
    state_->mark_abandoned(comm_id_, world_rank());
    // Model the detection latency a real system pays before acting on
    // silence, then surface the failed set for recovery.
    clock().advance(kDetectionTimeoutS);
    std::vector<int> failed = state_->failed_snapshot();
    if (failed.empty()) {
      // No Failed rank anywhere: the wait was orphaned by clean Exits or an
      // abandoning peer (previously a permanent hang).  Name those peers.
      for (int r = 0; r < size(); ++r) {
        if (r == rank_ || (src != kAnySource && r != src)) continue;
        const int world = members_[static_cast<std::size_t>(r)];
        if (state_->state_of(world) != RankState::Alive ||
            state_->is_abandoned(comm_id_, world) ||
            state_->is_recovering(world)) {
          failed.push_back(world);
        }
      }
    }
    throw RankFailedError(failed, "recv");
  }
  if (res.status == Mailbox::Status::TimedOut) {
    // A final backstop expiry also abandons the collective mid-flight.
    state_->mark_abandoned(comm_id_, world_rank());
    clock().advance(kDetectionTimeoutS);
    throw CommTimeoutError(
        "recv: wall-clock backstop expired with no liveness verdict (rank " +
        std::to_string(world_rank()) + " waiting on comm " +
        std::to_string(comm_id_) + ")");
  }
  Envelope env = std::move(res.env);
  span.add_bytes(env.payload.size());
  // The matched source is known only now; the edge (comm id in `detail`,
  // source world rank, tag) is what lets obs::critpath pair this recv with
  // the k-th same-key send without replaying mailbox state.
  span.set_edge(obs::EdgeKind::Recv,
                members_[static_cast<std::size_t>(env.src)], tag);
  if (env.charge_link) {
    const int src_world = members_[static_cast<std::size_t>(env.src)];
    const auto& link = machine().link_between(src_world, world_rank());
    double transfer = link.transfer_time(env.payload.size());
    if (FaultHooks* h = state_->hooks.get()) {
      transfer *= h->link_factor(src_world, world_rank(), clock().now());
    }
    // Fabric-transfer sub-span: covers the sync onto the simulated link's
    // arrival time (nested under "recv", so attribution-wise shadowed).
    obs::ScopedSpan xfer(obs::Category::Comm, "xfer", world_rank(), &clock(),
                         env.payload.size(), 0,
                         static_cast<std::uint64_t>(src_world));
    xfer.set_edge(obs::EdgeKind::None, src_world, tag);
    clock().sync_to(env.send_time_s + transfer);
  } else {
    clock().sync_to(env.send_time_s);
  }
  return env;
}

void Comm::barrier() {
  const int P = size();
  if (P == 1) return;
  obs::ScopedSpan span(obs::Category::Comm, "barrier", world_rank(), &clock(),
                       0, 0, comm_id_);
  const int tag = next_coll_tag();
  span.set_edge(obs::EdgeKind::None, -1, tag);  // collective window marker
  // Dissemination barrier: round k talks to rank +/- 2^k.
  for (int dist = 1; dist < P; dist <<= 1) {
    const int to = (rank_ + dist) % P;
    const int from = (rank_ + P - dist) % P;
    send_bytes({}, to, tag, /*charge_link=*/true);
    (void)recv_envelope(from, tag);
  }
}

simnet::CollectiveAlgorithm Comm::auto_allreduce_alg(
    std::size_t n_bytes) const {
  const auto model = machine().collective_model(members_);
  return model.best_allreduce(size(), n_bytes, machine().gce_usable(members_));
}

void Comm::sync_clocks_and_charge(double cost) {
  const int tag = next_coll_tag();
  // Max-reduce the clocks to vrank 0 with uncharged messages, then broadcast
  // the result back.  recv_envelope already syncs to the sender's timestamp,
  // so zero-payload messages suffice.
  const int vrank = rank_;
  for (int child : children_of(vrank)) {
    (void)recv_envelope(child, tag);
  }
  if (vrank != 0) {
    send_bytes({}, parent_of(vrank), tag, /*charge_link=*/false);
    (void)recv_envelope(parent_of(vrank), tag);
  }
  for (int child : children_of(vrank)) {
    send_bytes({}, child, tag, /*charge_link=*/false);
  }
  clock().advance(cost);
}

void Comm::charge_allreduce(std::uint64_t n_bytes,
                            std::optional<simnet::CollectiveAlgorithm> alg) {
  if (size() == 1) return;
  obs::ScopedSpan span(obs::Category::Comm, "charge_allreduce", world_rank(),
                       &clock(), n_bytes, 0, comm_id_);
  const auto model = machine().collective_model(members_);
  const auto chosen = alg.value_or(model.best_allreduce(
      size(), n_bytes, machine().gce_usable(members_)));
  sync_clocks_and_charge(model.allreduce(size(), n_bytes, chosen));
}

Comm Comm::split(int color, int key) {
  // Exchange (color, key) pairs, then group by color ordered by (key, rank).
  const int pair_mine[2] = {color, key};
  std::vector<int> pairs = allgather(std::span<const int>(pair_mine, 2));
  struct Entry {
    int rank;
    int color;
    int key;
  };
  std::vector<Entry> mates;
  for (int r = 0; r < size(); ++r) {
    const int c = pairs[static_cast<std::size_t>(2 * r)];
    const int k = pairs[static_cast<std::size_t>(2 * r + 1)];
    if (c == color) mates.push_back({r, c, k});
  }
  std::stable_sort(mates.begin(), mates.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.rank < b.rank;
  });
  std::vector<int> ranks;
  for (const Entry& e : mates) ranks.push_back(e.rank);
  return split_known(color, ranks);
}

Comm Comm::split_known(int color, std::span<const int> ranks) {
  std::vector<int> members;
  int my_new_rank = -1;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    members.push_back(members_.at(static_cast<std::size_t>(ranks[i])));
    if (ranks[i] == rank_) my_new_rank = static_cast<int>(i);
  }
  if (my_new_rank < 0) {
    throw std::invalid_argument("split_known: ranks must include this rank");
  }
  const std::uint64_t new_id =
      state_->child_comm_id(comm_id_, split_seq_++, color);
  Comm child(state_, new_id, std::move(members), my_new_rank);
  child.ack_epoch_ = ack_epoch_;
  child.wall_backstop_s_ = wall_backstop_s_;
  child.backstop_retries_ = backstop_retries_;
  return child;
}

void Comm::rejoin() {
  std::unique_lock lock(state_->join_mutex);
  auto& js = state_->joins[comm_id_];
  const std::uint64_t my_gen = js.generation;
  js.arrivals[world_rank()] = {coll_seq_, clock().now()};

  // Non-empty result = the set of peers that can never arrive.
  auto hopeless = [&]() -> std::vector<int> {
    if (state_->failure_epoch.load(std::memory_order_acquire) > ack_epoch_) {
      return state_->failed_snapshot();
    }
    std::vector<int> gone;
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      const int world = members_[static_cast<std::size_t>(r)];
      if (state_->state_of(world) != RankState::Alive) gone.push_back(world);
    }
    return gone;
  };
  auto abandon = [&](std::vector<int> gone) {
    js.arrivals.erase(world_rank());
    lock.unlock();
    clock().advance(kDetectionTimeoutS);
    throw RankFailedError(std::move(gone), "rejoin");
  };

  if (js.arrivals.size() == members_.size()) {
    // Last one in: agree on max tag sequence and max clock, open the next
    // generation, wake the waiters.
    int seq = 0;
    double t = 0.0;
    for (const auto& [world, sc] : js.arrivals) {
      seq = std::max(seq, sc.first);
      t = std::max(t, sc.second);
    }
    js.results[js.generation] = {seq, t};
    js.arrivals.clear();
    // Every member is here, so none is blocked on (or aborting) a collective
    // of this communicator: wipe its abandonment flags so post-recovery
    // collectives start clean.  (join_mutex -> abandon_mutex is the only
    // ordering between the two locks; mark_abandoned releases abandon_mutex
    // before poking, so there is no cycle.)
    state_->clear_abandoned(comm_id_);
    // Same for the rank-wide recovery flags — cleared for EVERY member here,
    // atomically with opening the generation, not by each waker on its own:
    // a fast waker's first post-recovery recv must not see a still-flagged
    // peer that simply has not woken yet.
    for (const int world : members_) state_->set_recovering(world, false);
    ++js.generation;
    // Keep only recent generations' results (slow wakers read theirs).
    while (js.results.size() > 8) js.results.erase(js.results.begin());
    state_->join_cv.notify_all();
  } else {
    int expiries = 0;
    while (js.generation == my_gen) {
      // Completion wins over abandonment (checked by the loop condition
      // first), mirroring the mailbox's match-wins ordering.
      if (auto gone = hopeless(); !gone.empty()) abandon(std::move(gone));
      if (wall_backstop_s_ <= 0.0) {
        state_->join_cv.wait(lock);
      } else {
        if (expiries > backstop_retries_) {
          js.arrivals.erase(world_rank());
          lock.unlock();
          clock().advance(kDetectionTimeoutS);
          throw CommTimeoutError(
              "rejoin: wall-clock backstop expired before all survivors "
              "arrived (rank " +
              std::to_string(world_rank()) + ", comm " +
              std::to_string(comm_id_) + ")");
        }
        const double wait_s =
            wall_backstop_s_ * static_cast<double>(1 << expiries);
        if (state_->join_cv.wait_for(
                lock, std::chrono::duration<double>(wait_s)) ==
            std::cv_status::timeout) {
          ++expiries;
        }
      }
    }
  }
  const auto [seq, t] = js.results.at(my_gen);
  lock.unlock();
  coll_seq_ = seq;
  clock().sync_to(t + kDetectionTimeoutS);
}

Comm Comm::shrink(const std::vector<int>& dead_world_ranks) const {
  // Survivor membership is parent membership minus the dead set, in parent
  // order — a pure local computation, no communication.  The communicator id
  // is keyed on (parent id, order-independent hash of the removed set), so
  // every survivor — even ones that call shrink at different times, or call
  // it twice after a retry — lands on the same id.  This idempotence is what
  // makes recovery converge when failures race with the recovery itself.
  std::vector<int> dead = dead_world_ranks;
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  // Sequential splitmix64 combine over the *sorted* dead set: deterministic
  // for a given removed set regardless of discovery order.
  std::uint64_t hash = hash::splitmix64(0);
  std::vector<int> members;
  members.reserve(members_.size());
  int my_new_rank = -1;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const int world = members_[i];
    if (std::binary_search(dead.begin(), dead.end(), world)) {
      hash = hash::combine(hash, static_cast<std::uint64_t>(world));
      continue;
    }
    if (static_cast<int>(i) == rank_) {
      my_new_rank = static_cast<int>(members.size());
    }
    members.push_back(world);
  }
  if (my_new_rank < 0) {
    throw std::logic_error("shrink: calling rank is in the dead set");
  }
  if (members.size() == members_.size()) {
    // Nothing removed from *this* communicator: reuse it unchanged so
    // repeated recoveries don't burn communicator ids.
    return *this;
  }
  // Reuse the child-id map with a sentinel "color" derived from the hash so
  // shrink ids never collide with split ids (splits use small user colors).
  const auto color = static_cast<int>((hash >> 33) | 0x40000000u);
  const std::uint64_t new_id = state_->child_comm_id(comm_id_, hash, color);
  Comm child(state_, new_id, std::move(members), my_new_rank);
  child.ack_epoch_ = ack_epoch_;
  child.wall_backstop_s_ = wall_backstop_s_;
  child.backstop_retries_ = backstop_retries_;
  return child;
}

}  // namespace msa::comm
