#include "dist/overlap.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "obs/trace.hpp"

namespace msa::dist {

std::optional<HierarchicalComms> make_hierarchical(comm::Comm& world,
                                                   HierarchyLevel level) {
  if (world.size() == 1) return std::nullopt;
  const simnet::RankLocation& loc =
      world.machine().location(world.world_rank());
  // Group key: ranks sharing a node (or module) reduce locally first.  The
  // module stride keeps node indices from different modules distinct.
  const int color = level == HierarchyLevel::Node
                        ? loc.module * 4096 + loc.node
                        : loc.module;
  comm::Comm intra = world.split(color, world.rank());
  // Cross-group communicator: the i-th rank of every group, keyed by my
  // intra rank (so chunk i's owners across all groups form one comm).
  comm::Comm cross = world.split(intra.rank(), color);
  // Eligible only when every group has the same size (the chunked exchange
  // pairs chunk owners one-to-one across groups) and both levels are
  // non-trivial.  Agreement is collective: min == max group size everywhere.
  std::array<int, 2> extent = {intra.size(), -intra.size()};
  world.allreduce(std::span<int>(extent), comm::ReduceOp::Max);
  const bool equal_sizes = extent[0] == -extent[1];
  if (!equal_sizes || intra.size() == 1 || cross.size() == 1) {
    return std::nullopt;
  }
  return HierarchicalComms{std::move(intra), std::move(cross)};
}

OverlappedReducer::OverlappedReducer(comm::Comm& comm, nn::ParamStore& store,
                                     AllreduceOptions options)
    : comm_(comm),
      store_(store),
      options_(options),
      bucket_elems_(
          std::max<std::size_t>(1, options.bucket_bytes / sizeof(float))),
      n_buckets_((store.size() + bucket_elems_ - 1) / bucket_elems_) {
  if (comm_.size() <= 1) {
    throw std::invalid_argument(
        "OverlappedReducer: needs a multi-rank communicator");
  }
  if (options_.hierarchical) hier_ = make_hierarchical(comm_);
  remaining_.resize(n_buckets_);
  launched_.resize(n_buckets_, 0);
  seen_.resize(store_.grads().size(), 0);
  half_.resize(n_buckets_);
  requests_.reserve(n_buckets_);
}

void OverlappedReducer::begin_step() {
  if (!requests_.empty()) {
    throw std::logic_error(
        "OverlappedReducer::begin_step: previous step never finished "
        "(requests still in flight)");
  }
  for (std::size_t b = 0; b < n_buckets_; ++b) {
    remaining_[b] = bucket(b).size();
    launched_[b] = 0;
  }
  std::fill(seen_.begin(), seen_.end(), 0);
  launched_in_backward_ = 0;
}

std::span<float> OverlappedReducer::bucket(std::size_t b) const {
  const std::size_t lo = b * bucket_elems_;
  return store_.grad_span().subspan(
      lo, std::min(bucket_elems_, store_.size() - lo));
}

template <typename T>
void OverlappedReducer::reduce(std::span<T> wire) {
  // One body for both modes: run now on the live communicators, or replayed
  // when the engine drains on snapshots taken at issue (see Comm::idefer).
  auto body = [wire, alg = options_.algorithm](
                  comm::Comm& world, std::optional<HierarchicalComms>& topo) {
    if (topo) {
      hierarchical_allreduce(world, *topo, wire, comm::ReduceOp::Sum, alg);
    } else {
      world.allreduce(wire, comm::ReduceOp::Sum, alg);
    }
  };
  if (!options_.overlap) {
    body(comm_, hier_);
    return;
  }
  requests_.push_back(comm_.idefer(
      wire.size_bytes(), [body, world = comm_, topo = hier_]() mutable {
        body(world, topo);
      }));
}

void OverlappedReducer::launch_bucket(std::size_t b) {
  launched_[b] = 1;
  // The wire payload is final here: every tensor overlapping this bucket has
  // finished its backward accumulation, so reducing now produces exactly
  // what any other launch order would.
  const std::span<float> range = bucket(b);
  if (!options_.fp16_compression) {
    reduce(range);
    return;
  }
  std::vector<Half>& h = half_[b];
  h.resize(range.size());
  for (std::size_t i = 0; i < range.size(); ++i) h[i] = Half(range[i]);
  reduce(std::span<Half>(h));
}

void OverlappedReducer::on_layer_backward(nn::Layer& layer) {
  const auto& ranges = store_.ranges();
  for (nn::Tensor* g : layer.grads()) {
    const std::size_t idx = store_.index_of_grad(g);
    if (idx == nn::ParamStore::npos) continue;  // not slab-managed
    if (seen_[idx] != 0) continue;              // defensive: counted once
    seen_[idx] = 1;
    const nn::ParamStore::Range r = ranges[idx];
    // Walk the buckets this tensor's slab range overlaps.
    std::size_t off = r.offset;
    const std::size_t end = r.offset + r.count;
    while (off < end) {
      const std::size_t b = off / bucket_elems_;
      const std::size_t bucket_end = (b + 1) * bucket_elems_;
      const std::size_t take = std::min(end, bucket_end) - off;
      remaining_[b] -= take;
      if (remaining_[b] == 0 && launched_[b] == 0) {
        launch_bucket(b);
        ++launched_in_backward_;
      }
      off += take;
    }
  }
}

void OverlappedReducer::finish() {
  // Blocking, the whole reduction is one attributed Comm phase.  Overlapped,
  // the drain stays OUTSIDE any span: the engine's hidden/exposed intervals
  // are the authoritative record for the in-flight buckets.
  std::optional<obs::ScopedSpan> span;
  if (!options_.overlap) {
    span.emplace(obs::Category::Comm, "allreduce_grads",
                 store_.grad_span().size_bytes(), 0, comm_.id());
  }
  // Buckets not launched yet go out now, ascending: every bucket when
  // blocking, and under overlap any whose tensors no layer reported (e.g.
  // parameters outside the observed container).
  for (std::size_t b = 0; b < n_buckets_; ++b) {
    if (launched_[b] == 0) launch_bucket(b);
  }
  try {
    comm::wait_all(requests_);
  } catch (...) {
    // Rank failure mid-drain: the engine abandoned everything in flight.
    // Clear our bookkeeping so recovery can start a fresh step.
    requests_.clear();
    throw;
  }
  requests_.clear();
  const float inv_world = 1.0f / static_cast<float>(comm_.size());
  for (std::size_t b = 0; b < n_buckets_; ++b) {
    const std::span<float> range = bucket(b);
    if (options_.fp16_compression) {
      const std::vector<Half>& h = half_[b];
      for (std::size_t i = 0; i < range.size(); ++i) {
        range[i] = h[i].to_float() * inv_world;
      }
    } else {
      for (float& g : range) g *= inv_world;
    }
  }
}

}  // namespace msa::dist
