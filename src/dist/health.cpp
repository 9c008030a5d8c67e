#include "dist/health.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "core/hash.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace msa::dist {

namespace {

std::uint64_t fold_double(std::uint64_t h, double v) {
  return hash::combine(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  if (v.size() % 2 == 1) return v[mid];
  return 0.5 * (v[mid - 1] + v[mid]);
}

std::vector<int> balanced_batch_counts(const std::vector<double>& weights,
                                       int total) {
  const int n = static_cast<int>(weights.size());
  if (n == 0 || total < n) {
    throw std::invalid_argument(
        "balanced_batch_counts: need total >= one row per rank");
  }
  std::vector<double> w(weights.size());
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = std::max(weights[i], 1e-12);
  // Everyone starts at 1 row (a rank must keep contributing so its meter
  // stays live).  The spare rows are then handed out greedily: each row goes
  // to the rank whose finish time (counts + 1) / weight stays lowest, ties
  // broken by lower rank index.  This minimises the window's critical path
  // (the synchronous step runs at the speed of the last finisher), which a
  // proportional apportionment does not: largest-remainder rounding can hand
  // the slow rank its share rounded UP, and one extra row on a 4x-slow rank
  // stretches the whole window by four row-times.  Deterministic: same
  // weights in, same counts out, on every rank.
  std::vector<int> counts(static_cast<std::size_t>(n), 1);
  for (int k = 0; k < total - n; ++k) {
    std::size_t best = 0;
    double best_finish = (counts[0] + 1) / w[0];
    for (std::size_t r = 1; r < w.size(); ++r) {
      const double finish = (counts[r] + 1) / w[r];
      if (finish < best_finish) {
        best = r;
        best_finish = finish;
      }
    }
    ++counts[best];
  }
  return counts;
}

void HealthMonitor::reset(comm::Comm& comm, int batch_size) {
  batch_size_ = batch_size;
  batch_total_ = batch_size * comm.size();
  counts_.assign(static_cast<std::size_t>(comm.size()), batch_size);
  steps_in_window_ = 0;
  rows_in_window_ = 0.0;
  compute_mark_s_ = comm.compute_charged_s();
  consecutive_.clear();
}

void HealthMonitor::fold_decision(const HealthDecision& d) {
  digest_ = hash::combine(digest_, static_cast<std::uint64_t>(d.window_index));
  digest_ = hash::combine(digest_, static_cast<std::uint64_t>(d.global_step));
  digest_ = fold_double(digest_, d.median_s);
  digest_ = fold_double(digest_, d.mad_s);
  for (int w : d.flagged_world) {
    digest_ = hash::combine(digest_, static_cast<std::uint64_t>(w) + 1);
  }
  for (int c : d.batch_counts) {
    digest_ = hash::combine(digest_, static_cast<std::uint64_t>(c) + 1);
  }
  digest_ = hash::combine(
      digest_, static_cast<std::uint64_t>(d.demote_world_rank + 2));
}

std::optional<HealthDecision> HealthMonitor::on_step(comm::Comm& comm,
                                                     int global_step,
                                                     int rows) {
  if (!options_.enabled || comm.size() < 2) return std::nullopt;
  if (counts_.size() != static_cast<std::size_t>(comm.size())) {
    reset(comm, batch_size_);  // defensive: membership changed without reset
  }
  ++steps_in_window_;
  rows_in_window_ += rows;
  if (steps_in_window_ < options_.window) return std::nullopt;

  const int ranks = comm.size();
  HealthDecision d;
  d.window_index = window_index_++;
  d.global_step = global_step;

  std::vector<double> compute(static_cast<std::size_t>(ranks));
  std::vector<double> per_row(static_cast<std::size_t>(ranks));
  std::vector<int> world(static_cast<std::size_t>(ranks));
  double my_compute = 0.0;
  {
    // The whole evaluation — watermark allgather included — bills to the
    // Rebalance category: it is health-subsystem overhead, not training.
    obs::ScopedSpan span(obs::Category::Rebalance, "health_window",
                         std::uint64_t{0}, std::uint64_t{0},
                         static_cast<std::uint64_t>(d.window_index));
    const double mark = comm.compute_charged_s();
    my_compute = mark - compute_mark_s_;
    compute_mark_s_ = mark;
    // Progress watermark piggybacked on one small collective: simulated
    // compute seconds, rows processed, and the world identity of each slot.
    const double payload[3] = {my_compute, rows_in_window_,
                               static_cast<double>(comm.world_rank())};
    const std::vector<double> all =
        comm.allgather(std::span<const double>(payload, 3));
    for (int r = 0; r < ranks; ++r) {
      const std::size_t i = static_cast<std::size_t>(r);
      compute[i] = all[i * 3];
      const double rws = std::max(1.0, all[i * 3 + 1]);
      world[i] = static_cast<int>(all[i * 3 + 2]);
      per_row[i] = compute[i] / rws;
    }

    d.median_s = median_of(per_row);
    std::vector<double> dev(per_row.size());
    for (std::size_t i = 0; i < per_row.size(); ++i) {
      dev[i] = std::abs(per_row[i] - d.median_s);
    }
    d.mad_s = median_of(dev);

    // Flag MAD outliers that are also slow in ratio terms (homogeneous
    // simulated ranks give MAD ~ 0, so the ratio guard carries the load).
    const double gate = d.median_s + options_.mad_threshold * d.mad_s;
    for (int r = 0; r < ranks; ++r) {
      const std::size_t i = static_cast<std::size_t>(r);
      if (per_row[i] > gate &&
          per_row[i] > options_.slow_factor_min * d.median_s) {
        d.flagged_world.push_back(world[i]);
      }
    }
    std::sort(d.flagged_world.begin(), d.flagged_world.end());

    // Escalation bookkeeping.  A flagged rank only climbs the demotion
    // ladder while it is still STRETCHING the window — its total window
    // compute is an outlier too.  Under re-sharding a slow-but-contained
    // rank does equal wall work on fewer rows (per-row time stays high,
    // totals equalise), so a successful re-shard de-escalates; only slowness
    // beyond what the one-row-minimum shares can absorb reaches demotion.
    const double med_total = median_of(compute);
    std::vector<int> stretching;
    for (int r = 0; r < ranks; ++r) {
      const std::size_t i = static_cast<std::size_t>(r);
      if (compute[i] > options_.slow_factor_min * med_total &&
          std::binary_search(d.flagged_world.begin(), d.flagged_world.end(),
                             world[i])) {
        stretching.push_back(world[i]);
      }
    }
    std::sort(stretching.begin(), stretching.end());
    for (auto it = consecutive_.begin(); it != consecutive_.end();) {
      const bool still = std::binary_search(stretching.begin(),
                                            stretching.end(), it->first);
      it = still ? std::next(it) : consecutive_.erase(it);
    }
    for (int w : stretching) ++consecutive_[w];

    if (options_.demote_after > 0 && ranks > 1) {
      for (const auto& [w, count] : consecutive_) {  // map: ascending world
        if (count >= options_.demote_after) {
          d.demote_world_rank = w;
          consecutive_.erase(w);
          break;
        }
      }
    }
    if (d.demote_world_rank < 0 && options_.rebalance) {
      // Only re-shard when something is flagged or a previous re-shard is
      // still in force (so shares can relax back once the rank recovers) —
      // never churn a healthy uniform window on noise.
      const bool skewed =
          std::any_of(counts_.begin(), counts_.end(),
                      [&](int c) { return c != batch_size_; });
      if (!d.flagged_world.empty() || skewed) {
        std::vector<double> throughput(per_row.size());
        for (std::size_t i = 0; i < per_row.size(); ++i) {
          throughput[i] = 1.0 / std::max(per_row[i], 1e-12);
        }
        std::vector<int> next = balanced_batch_counts(throughput, batch_total_);
        // Hysteresis: adopt only when the predicted window critical path
        // (slowest rank's rows x per-row time) improves by more than 2%.
        // Measured per-row times jitter a little window to window, and
        // flapping shares by one row buys nothing but churn.
        const auto critical_path = [&](const std::vector<int>& c) {
          double worst = 0.0;
          for (std::size_t i = 0; i < c.size(); ++i) {
            worst = std::max(worst, c[i] * per_row[i]);
          }
          return worst;
        };
        if (next != counts_ &&
            critical_path(next) < 0.98 * critical_path(counts_)) {
          counts_ = next;
          d.batch_counts = counts_;
        }
      }
    }
  }

  // Straggler skew for the health report: how long this rank's window sat
  // behind the window-slowest rank.  Concurrent interval (like CommHidden):
  // the stall itself is already on the timeline as comm/other time.
  const double slowest = *std::max_element(compute.begin(), compute.end());
  if (slowest > my_compute) {
    const double end = comm.sim_now();
    obs::record_interval(obs::Category::StragglerWait, "window_skew",
                         comm.world_rank(), end - (slowest - my_compute), end,
                         /*bytes=*/0, /*detail=*/comm.id());
  }

  steps_in_window_ = 0;
  rows_in_window_ = 0.0;
  fold_decision(d);
  log_.push_back(d);

  // Telemetry: one rank publishes the collectively-agreed verdict so the
  // gauges (and any attached time series) are single-writer deterministic.
  // The 64-bit digest rides in two 32-bit halves — both exact in a double.
  if (comm.rank() == 0) {
    auto& reg = obs::Registry::instance();
    reg.gauge("health.windows").set(static_cast<double>(window_index_));
    reg.gauge("health.median_row_s").set(d.median_s);
    reg.gauge("health.mad_s").set(d.mad_s);
    reg.gauge("health.flagged").set(static_cast<double>(d.flagged_world.size()));
    reg.gauge("health.demoted_rank")
        .set(static_cast<double>(d.demote_world_rank));
    reg.gauge("health.digest.hi")
        .set(static_cast<double>(static_cast<std::uint32_t>(digest_ >> 32)));
    reg.gauge("health.digest.lo")
        .set(static_cast<double>(static_cast<std::uint32_t>(digest_)));
    if (options_.timeseries != nullptr) {
      options_.timeseries->sample(comm.sim_now(), "health_window");
    }
  }
  return d;
}

}  // namespace msa::dist
