#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <stdexcept>

namespace msa::obs {

double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // rank = max(1, ceil(q * total)): the 1-indexed position in the sorted
  // observation sequence that the quantile answers for.
  const double want = std::ceil(q * static_cast<double>(total));
  const std::uint64_t rank =
      want < 1.0 ? 1 : static_cast<std::uint64_t>(want);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    cumulative += counts[b];
    if (cumulative >= rank) {
      // First bucket reaching the rank wins (tie-break: lowest bound);
      // the overflow bucket reports the highest finite bound.
      if (b < bounds.size()) return bounds[b];
      break;
    }
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

namespace detail {

std::size_t thread_cell() {
  // Round-robin cell assignment at first use per thread: spreads concurrent
  // writers across cells regardless of how thread ids hash.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t cell =
      next.fetch_add(1, std::memory_order_relaxed) % kCells;
  return cell;
}

}  // namespace detail

// ---- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      cells_((bounds_.size() + 1) * detail::kCells) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("histogram bounds must be ascending");
  }
}

void Histogram::observe(double v) {
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  cells_[detail::thread_cell() * (bounds_.size() + 1) + bucket]
      .value.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::counts() const {
  const std::size_t n = bounds_.size() + 1;
  std::vector<std::uint64_t> out(n, 0);
  for (std::size_t cell = 0; cell < detail::kCells; ++cell) {
    for (std::size_t b = 0; b < n; ++b) {
      out[b] += cells_[cell * n + b].value.load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::uint64_t Histogram::total() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t c : counts()) sum += c;
  return sum;
}

double Histogram::quantile(double q) const {
  return histogram_quantile(bounds_, counts(), q);
}

void Histogram::reset() {
  for (auto& c : cells_) c.value.store(0, std::memory_order_relaxed);
}

// ---- Registry ----------------------------------------------------------------

struct Registry::Impl {
  mutable std::mutex mutex;
  // std::map keeps deterministic lexicographic order for snapshots; node
  // stability keeps references valid across registrations.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& Registry::instance() {
  static Registry* registry = new Registry;  // leaked: outlives rank threads
  return *registry;
}

Registry::Impl& Registry::impl() const {
  static Impl* impl = new Impl;
  return *impl;
}

Counter& Registry::counter(std::string_view name) {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  auto [it, inserted] = i.counters.try_emplace(std::string(name));
  if (inserted) it->second = std::make_unique<Counter>();
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  auto [it, inserted] = i.gauges.try_emplace(std::string(name));
  if (inserted) it->second = std::make_unique<Gauge>();
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> upper_bounds) {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  auto it = i.histograms.find(std::string(name));
  if (it == i.histograms.end()) {
    it = i.histograms
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(upper_bounds)))
             .first;
  } else if (it->second->bounds() != upper_bounds) {
    throw std::invalid_argument("histogram '" + std::string(name) +
                                "' re-registered with different bounds");
  }
  return *it->second;
}

Registry::Snapshot Registry::snapshot() const {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  Snapshot out;
  for (const auto& [name, c] : i.counters) out.counters[name] = c->value();
  for (const auto& [name, g] : i.gauges) out.gauges[name] = g->value();
  for (const auto& [name, h] : i.histograms) {
    out.histograms[name] = {h->bounds(), h->counts()};
  }
  return out;
}

std::string Registry::to_json() const {
  const Snapshot snap = snapshot();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  char buf[128];  // fits three %.17g quantiles plus their keys
  for (const auto& [name, v] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    out += "    \"" + name + "\": " + buf;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += "    \"" + name + "\": " + buf;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": {\"bounds\": [";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      std::snprintf(buf, sizeof buf, "%s%.17g", b ? ", " : "", h.bounds[b]);
      out += buf;
    }
    out += "], \"counts\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      std::snprintf(buf, sizeof buf, "%s%llu", b ? ", " : "",
                    static_cast<unsigned long long>(h.counts[b]));
      out += buf;
    }
    std::snprintf(buf, sizeof buf,
                  "], \"p50\": %.17g, \"p95\": %.17g, \"p99\": %.17g}",
                  histogram_quantile(h.bounds, h.counts, 0.50),
                  histogram_quantile(h.bounds, h.counts, 0.95),
                  histogram_quantile(h.bounds, h.counts, 0.99));
    out += buf;
  }
  out += "\n  }\n}\n";
  return out;
}

void Registry::reset() {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  for (auto& [name, c] : i.counters) c->reset();
  for (auto& [name, g] : i.gauges) g->reset();
  for (auto& [name, h] : i.histograms) h->reset();
}

}  // namespace msa::obs
