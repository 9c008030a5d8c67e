#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "comm/failure.hpp"
#include "core/hash.hpp"
#include "dist/health.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace msa::serve {

namespace {

/// Dense mat-mul forward flops of the served MLP, per input row (the
/// 2-flops-per-MAC convention the nn layers report).
double forward_flops_per_row(const ModelSpec& m) {
  double f = 0.0;
  std::size_t prev = m.features;
  for (std::size_t h : m.hidden) {
    f += 2.0 * static_cast<double>(prev * h);
    prev = h;
  }
  f += 2.0 * static_cast<double>(prev * m.classes);
  return f;
}

}  // namespace

std::vector<double> latency_bounds() {
  // Geometric grid, 10 us .. ~2 min at ratio 1.5: fine enough that a p99
  // bucket bound is within 50% of the true tail, coarse enough to stay at
  // ~41 buckets.
  std::vector<double> bounds;
  for (double b = 1e-5; b < 130.0; b *= 1.5) bounds.push_back(b);
  return bounds;
}

Server::Server(comm::Comm& world, ReplicaSet& replicas, ServeOptions options)
    : world_(world),
      replicas_(replicas),
      options_(std::move(options)),
      frontier_(generate_trace(options_.arrivals), options_.queue_capacity),
      scheduler_(options_.batch, options_.replicas.model.features,
                 options_.data_seed),
      meters_(static_cast<std::size_t>(replicas.count())) {
  if (!replicas_.is_router()) {
    throw std::logic_error("Server: must run on comm rank 0 (the router)");
  }
  // Nominal full-batch cost per replica, priced on its members' own compute
  // profiles: the seed for the drain-victim reply predictions.  Stage flops
  // are approximated as an even split — ordering, not accounting.
  const double batch_flops =
      static_cast<double>(options_.batch.max_batch_rows) *
      forward_flops_per_row(options_.replicas.model);
  nominal_batch_s_.reserve(meters_.size());
  for (int r = 0; r < replicas_.count(); ++r) {
    const int members = replicas_.members(r);
    double t = 0.0;
    for (int s = 0; s < members; ++s) {
      t += world_.machine()
               .compute(replicas_.leader_rank(r) + s)
               .kernel_time(options_.replicas.overhead_flops +
                                batch_flops / members,
                            0.0);
    }
    nominal_batch_s_.push_back(t);
  }
}

ServeStats Server::run() {
  hist_ = &obs::Registry::instance().histogram("serve.latency_s",
                                               latency_bounds());
  hist_->reset();
  stats_ = ServeStats{};
  stats_.offered = frontier_.offered();

  for (;;) {
    const double now = world_.sim_now();
    frontier_.pump_until(now);
    if (scheduler_.ready(frontier_, now)) {
      dispatch(scheduler_.form(frontier_, now));
      continue;
    }
    if (frontier_.exhausted()) {
      if (!frontier_.queue_empty()) {
        // Tail flush: no more arrivals will ever top the batch up.
        dispatch(scheduler_.form(frontier_, now));
        continue;
      }
      if (!any_outstanding()) break;
      drain_one(next_reply_replica());
      continue;
    }
    // Idle until the next event: an arrival or the oldest request's delay
    // cap.  Both are strictly ahead of now (pump_until consumed everything
    // at or before it; !ready means the cap has not passed), so the clock
    // advances every iteration and the loop terminates.
    const double target = std::min(frontier_.next_arrival_s(),
                                   scheduler_.deadline_s(frontier_));
    world_.charge_seconds(target - now);
  }

  for (int r = 0; r < replicas_.count(); ++r) {
    if (meters_[static_cast<std::size_t>(r)].alive) send_stop(r);
  }

  stats_.admitted = frontier_.admitted();
  stats_.rejected = frontier_.rejected();
  stats_.replicas_failed = replicas_failed_;
  stats_.digest = digest_;
  stats_.p50_s = hist_->quantile(0.50);
  stats_.p95_s = hist_->quantile(0.95);
  stats_.p99_s = hist_->quantile(0.99);
  stats_.goodput_rps = stats_.makespan_s > 0.0
                           ? static_cast<double>(stats_.completed) /
                                 stats_.makespan_s
                           : 0.0;
  stats_.replicas.reserve(meters_.size());
  for (int r = 0; r < replicas_.count(); ++r) {
    const auto& m = meters_[static_cast<std::size_t>(r)];
    ReplicaStats rs;
    rs.replica = r;
    rs.leader_rank = replicas_.leader_rank(r);
    rs.reply_rank = replicas_.reply_rank(r);
    rs.batches = m.batches;
    rs.rows = m.rows;
    rs.dead = !m.alive;
    rs.flagged = m.flagged;
    rs.slowdown_ewma = m.ewma;
    rs.score = m.score;
    stats_.replicas.push_back(std::move(rs));
  }
  publish_gauges();
  if (options_.timeseries != nullptr) {
    options_.timeseries->sample(world_.sim_now(), "serve_final");
  }
  return stats_;
}

void Server::dispatch(Batch batch) {
  const std::size_t rows = batch.requests.size();
  const std::size_t feats = scheduler_.features();
  for (;;) {
    const int r = pick_replica();
    auto& m = meters_[static_cast<std::size_t>(r)];
    if (static_cast<int>(m.outstanding.size()) >= options_.max_outstanding) {
      // Saturated.  Round-robin blocks on ITS replica's oldest reply (the
      // naive stall); the load-aware modes drain whichever replica is
      // predicted to reply soonest (every candidate is saturated or pick
      // would have chosen another).
      const int victim = options_.routing == RoutingMode::RoundRobin
                             ? r
                             : next_reply_replica();
      drain_one(victim);
      continue;  // re-pick: the drain may have freed or killed a replica
    }
    std::vector<float> msg(kBatchHeaderFloats + rows * feats);
    msg[0] = static_cast<float>(kMsgBatch);
    msg[1] = static_cast<float>(batch.seq);
    msg[2] = static_cast<float>(rows);
    msg[3] = static_cast<float>(feats);
    std::copy_n(batch.input.data(), rows * feats,
                msg.begin() + kBatchHeaderFloats);
    replicas_.channel(r).send(std::span<const float>(msg),
                              ReplicaSet::channel_leader_rank(), kBatchTag);
    ++m.batches;
    m.rows += rows;
    m.outstanding.push_back(
        {batch.seq, std::move(batch.requests), world_.sim_now()});
    // Predicted reply clock: the batch starts when the replica frees up and
    // costs the nominal batch time stretched by the current health score.
    m.busy_until = std::max(m.busy_until, world_.sim_now()) +
                   nominal_batch_s_[static_cast<std::size_t>(r)] *
                       std::max(1.0, m.score);
    if (options_.routing == RoutingMode::RoundRobin) {
      rr_next_ = (r + 1) % replicas_.count();
    }
    return;
  }
}

int Server::pick_replica() {
  const int n = replicas_.count();
  if (options_.routing == RoutingMode::RoundRobin) {
    for (int i = 0; i < n; ++i) {
      const int r = (rr_next_ + i) % n;
      if (meters_[static_cast<std::size_t>(r)].alive) return r;
    }
    throw std::runtime_error("serve: all replicas dead");
  }
  std::vector<int> candidates;
  if (options_.routing == RoutingMode::HealthAware) {
    for (int r = 0; r < n; ++r) {
      const auto& m = meters_[static_cast<std::size_t>(r)];
      if (m.alive && !m.flagged) candidates.push_back(r);
    }
  }
  if (candidates.empty()) {  // no healthy replica left: any alive one
    for (int r = 0; r < n; ++r) {
      if (meters_[static_cast<std::size_t>(r)].alive) candidates.push_back(r);
    }
  }
  if (candidates.empty()) throw std::runtime_error("serve: all replicas dead");
  int best = candidates.front();
  for (int r : candidates) {
    if (meters_[static_cast<std::size_t>(r)].outstanding.size() <
        meters_[static_cast<std::size_t>(best)].outstanding.size()) {
      best = r;
    }
  }
  return best;
}

void Server::drain_one(int replica) {
  auto& m = meters_[static_cast<std::size_t>(replica)];
  std::vector<double> reply;
  try {
    reply = replicas_.channel(replica).recv_any_size<double>(
        replicas_.channel_reply_rank(replica), kReplyTag);
  } catch (const comm::RankFailedError&) {
    on_replica_dead(replica);
    return;
  }
  if (reply.size() < kReplyHeaderDoubles || m.outstanding.empty()) {
    throw std::runtime_error("serve: malformed or unexpected reply");
  }
  OutBatch ob = std::move(m.outstanding.front());
  m.outstanding.pop_front();
  if (static_cast<std::uint64_t>(reply[0]) != ob.seq) {
    throw std::runtime_error("serve: reply out of order");
  }
  const double sent_s = reply[1];
  update_health(replica, reply[2], reply[3]);
  // Re-anchor the reply prediction to the observed head clock: whatever is
  // still outstanding completes after sent_s, one nominal-x-score batch
  // each.  Keeps the estimate honest when a replica degrades mid-flight.
  m.busy_until = std::max(
      m.busy_until,
      sent_s + static_cast<double>(m.outstanding.size()) *
                   nominal_batch_s_[static_cast<std::size_t>(replica)] *
                   std::max(1.0, m.score));

  // Delivery time is priced off the link model from the head's send clock,
  // NOT off the router's drain time — client-visible latency must not
  // depend on how long a reply sat in the router's mailbox.
  const std::uint64_t reply_bytes = reply.size() * sizeof(double);
  const double transfer =
      world_.machine()
          .link_between(replicas_.reply_rank(replica), world_.world_rank())
          .transfer_time(reply_bytes);
  const double reply_s = sent_s + transfer;

  const std::size_t rows = ob.requests.size();
  const std::size_t classes = replicas_.model().classes;
  if (reply.size() != kReplyHeaderDoubles + rows * classes) {
    throw std::runtime_error("serve: reply payload size mismatch");
  }
  for (std::size_t i = 0; i < rows; ++i) {
    const Request& q = ob.requests[i];
    RequestRecord rec;
    rec.id = q.id;
    rec.arrival_s = q.arrival_s;
    rec.admit_s = q.admit_s;
    rec.dispatch_s = ob.dispatch_s;
    rec.sent_s = sent_s;
    rec.reply_s = reply_s;
    rec.latency_s = reply_s - q.arrival_s;
    rec.replica = replica;
    rec.seq = ob.seq;
    rec.redispatches = q.redispatches;
    digest_ = hash::combine(digest_, q.id);
    digest_ = hash::combine(digest_, std::bit_cast<std::uint64_t>(rec.latency_s));
    digest_ = hash::combine(digest_, static_cast<std::uint64_t>(replica));
    for (std::size_t c = 0; c < classes; ++c) {
      const auto logit =
          static_cast<float>(reply[kReplyHeaderDoubles + i * classes + c]);
      digest_ = hash::combine(digest_, std::bit_cast<std::uint32_t>(logit));
      if (options_.keep_predictions) rec.logits.push_back(logit);
    }
    hist_->observe(rec.latency_s);
    if (options_.record_spans) {
      const int rank = world_.world_rank();
      // The compute/reply legs carry the replica head rank as informational
      // peer metadata (EdgeKind::None — not a wire edge), so a timeline can
      // be grouped by which replica served each request.
      const int head = replicas_.reply_rank(replica);
      obs::record_interval(obs::Category::Serve, "serve_queue", rank,
                           q.arrival_s, q.admit_s, 0, q.id);
      obs::record_interval(obs::Category::Serve, "serve_batch", rank,
                           q.admit_s, ob.dispatch_s, 0, q.id);
      obs::record_interval(obs::Category::Serve, "serve_compute", rank,
                           ob.dispatch_s, sent_s, 0, q.id, head);
      obs::record_interval(obs::Category::Serve, "serve_reply", rank, sent_s,
                           reply_s, reply_bytes, q.id, head);
    }
    if (q.redispatches > 0) ++stats_.redispatched;
    ++stats_.completed;
    stats_.makespan_s = std::max(stats_.makespan_s, reply_s);
    stats_.records.push_back(std::move(rec));
  }

  ++drained_batches_;
  if (options_.timeseries != nullptr && options_.timeseries_every > 0 &&
      drained_batches_ % static_cast<std::uint64_t>(
                             options_.timeseries_every) ==
          0) {
    publish_gauges();
    options_.timeseries->sample(world_.sim_now(), "serve_window");
  }
}

void Server::publish_gauges() {
  auto& reg = obs::Registry::instance();
  reg.gauge("serve.completed").set(static_cast<double>(stats_.completed));
  reg.gauge("serve.redispatched")
      .set(static_cast<double>(stats_.redispatched));
  reg.gauge("serve.replicas_failed")
      .set(static_cast<double>(replicas_failed_));
  reg.gauge("serve.makespan_s").set(stats_.makespan_s);
  reg.gauge("serve.p50_s").set(hist_->quantile(0.50));
  reg.gauge("serve.p95_s").set(hist_->quantile(0.95));
  reg.gauge("serve.p99_s").set(hist_->quantile(0.99));
  for (int r = 0; r < replicas_.count(); ++r) {
    const auto& m = meters_[static_cast<std::size_t>(r)];
    char name[48];
    std::snprintf(name, sizeof name, "serve.replica.%d.score", r);
    reg.gauge(name).set(m.score);
  }
}

void Server::on_replica_dead(int replica) {
  auto& m = meters_[static_cast<std::size_t>(replica)];
  if (!m.alive) return;
  m.alive = false;
  ++replicas_failed_;
  // Admitted work is never lost: every outstanding request goes back to the
  // FRONT of the queue in dispatch order, original arrival/admit intact.
  std::vector<Request> again;
  for (auto& ob : m.outstanding) {
    for (auto& q : ob.requests) again.push_back(q);
  }
  m.outstanding.clear();
  frontier_.requeue_front(std::move(again));
  // Unblock any surviving leader stuck in its batch recv (a send to a dead
  // mailbox is a harmless buffered deposit).
  send_stop(replica);
}

void Server::update_health(int replica, double compute_wm, double nominal_wm) {
  auto& m = meters_[static_cast<std::size_t>(replica)];
  const double d_nominal = nominal_wm - m.last_nominal_wm;
  const double d_comp = compute_wm - m.last_compute_wm;
  m.last_nominal_wm = nominal_wm;
  m.last_compute_wm = compute_wm;
  if (d_nominal <= 0.0) return;
  // charged/nominal over this reply's batches: 1.0 healthy, k under a k-x
  // compute slowdown, whatever the batch size or device speed.
  const double ratio = d_comp / d_nominal;
  const double a = options_.health.ewma_alpha;
  m.ewma = m.replies == 0 ? ratio : a * ratio + (1.0 - a) * m.ewma;
  ++m.replies;
  if (m.baseline == 0.0 || m.ewma < m.baseline) m.baseline = m.ewma;
  m.score = m.baseline > 0.0 ? m.ewma / m.baseline : 0.0;
  refresh_flags();
}

void Server::refresh_flags() {
  // Self-normalised scores make heterogeneous fleets comparable: a Cluster
  // replica that is natively 4x slower than a Booster one still scores 1.0
  // while healthy.  The flag is a one-way ratchet, and it can only catch a
  // replica that degrades AFTER its baseline window (min_replies clean
  // replies) — a replica slow from the very first batch scores 1.0 against
  // its own (already degraded) baseline.
  std::vector<double> scores;
  for (const auto& m : meters_) {
    if (m.alive && m.replies >= options_.health.min_replies) {
      scores.push_back(m.score);
    }
  }
  const double med = dist::median_of(scores);
  std::vector<double> dev;
  dev.reserve(scores.size());
  for (double s : scores) dev.push_back(std::abs(s - med));
  const double mad = dist::median_of(std::move(dev));
  for (auto& m : meters_) {
    if (!m.alive || m.flagged || m.replies < options_.health.min_replies) {
      continue;
    }
    const bool slow = m.score > options_.health.slow_factor_min;
    // The median+MAD consensus needs a fleet: with fewer than 4 scored
    // replicas the median is not an outlier reference, so the self-ratio
    // gate stands alone.
    const bool outlier =
        scores.size() < 4 ||
        m.score > med + options_.health.mad_threshold * std::max(mad, 0.02);
    if (slow && outlier) m.flagged = true;
  }
}

int Server::next_reply_replica() const {
  int best = -1;
  double best_eta = 0.0;
  for (int r = 0; r < replicas_.count(); ++r) {
    const auto& m = meters_[static_cast<std::size_t>(r)];
    if (!m.alive || m.outstanding.empty()) continue;
    // ETA of the FRONT reply: predicted last-reply clock minus the batches
    // queued behind the front.
    const double eta =
        m.busy_until - static_cast<double>(m.outstanding.size() - 1) *
                           nominal_batch_s_[static_cast<std::size_t>(r)] *
                           std::max(1.0, m.score);
    if (best < 0 || eta < best_eta) {
      best = r;
      best_eta = eta;
    }
  }
  if (best < 0) throw std::logic_error("serve: no outstanding batch to drain");
  return best;
}

bool Server::any_outstanding() const {
  for (const auto& m : meters_) {
    if (!m.outstanding.empty()) return true;
  }
  return false;
}

void Server::send_stop(int replica) {
  const std::array<float, kBatchHeaderFloats> stop = {
      static_cast<float>(kMsgStop), 0.0f, 0.0f, 0.0f};
  replicas_.channel(replica).send(std::span<const float>(stop.data(),
                                                         stop.size()),
                                  ReplicaSet::channel_leader_rank(), kBatchTag);
}

ServeStats run(comm::Comm& comm, const ServeOptions& options) {
  ReplicaSet replicas(comm, options.replicas);
  if (replicas.is_router()) {
    Server server(comm, replicas, options);
    return server.run();
  }
  replicas.serve_loop();
  return {};
}

}  // namespace msa::serve
