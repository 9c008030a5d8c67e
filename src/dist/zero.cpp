#include "dist/zero.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace msa::dist {

ZeroOptimizer::ZeroOptimizer(comm::Comm& comm,
                             std::unique_ptr<nn::Optimizer> inner,
                             AllreduceOptions options)
    : comm_(comm), inner_(std::move(inner)), options_(options) {
  if (!inner_) throw std::invalid_argument("ZeroOptimizer: null inner");
  if (options_.hierarchical) hier_ = make_hierarchical(comm_);
}

void ZeroOptimizer::initialise(std::size_t total_elems) {
  total_ = total_elems;
  const auto P = static_cast<std::size_t>(comm_.size());
  padded_ = (total_ + P - 1) / P * P;
  shard_elems_ = padded_ / P;
  if (hier_) {
    // Two-level shard position: the intra pass hands this rank the chunk at
    // intra.rank(), the cross pass the sub-chunk at cross.rank() within it.
    chunk_intra_ = padded_ / static_cast<std::size_t>(hier_->intra.size());
    my_off_ = static_cast<std::size_t>(hier_->intra.rank()) * chunk_intra_ +
              static_cast<std::size_t>(hier_->cross.rank()) * shard_elems_;
  } else {
    my_off_ = shard_elems_ * static_cast<std::size_t>(comm_.rank());
  }
  state_.assign(inner_->state_roles() * shard_elems_, 0.0f);
  initialised_ = true;
}

void ZeroOptimizer::run_phase(std::uint64_t wire_bytes,
                              std::function<void()> body) {
  if (options_.overlap && comm_.size() > 1) {
    // Deferred through the progress engine: the transfer serialises with
    // every other in-flight operation on this rank's NIC.  The immediate
    // wait keeps the step synchronous; hiding comes from surrounding
    // traffic, not from this call.
    comm_.idefer(wire_bytes, std::move(body)).wait();
  } else {
    body();
  }
}

template <typename T>
void ZeroOptimizer::reduce_scatter_shards(std::span<T> data) {
  if (hier_) {
    HierarchicalComms topo = *hier_;
    (void)topo.intra.reduce_scatter(data, chunk_intra_, comm::ReduceOp::Sum);
    auto sub = data.subspan(
        static_cast<std::size_t>(topo.intra.rank()) * chunk_intra_,
        chunk_intra_);
    (void)topo.cross.reduce_scatter(sub, shard_elems_, comm::ReduceOp::Sum);
  } else {
    comm::Comm c = comm_;
    (void)c.reduce_scatter(data, shard_elems_, comm::ReduceOp::Sum);
  }
}

template <typename T>
void ZeroOptimizer::allgather_shards(std::span<T> data) {
  if (hier_) {
    HierarchicalComms topo = *hier_;
    auto sub = data.subspan(
        static_cast<std::size_t>(topo.intra.rank()) * chunk_intra_,
        chunk_intra_);
    topo.cross.allgather_inplace(sub, shard_elems_);
    topo.intra.allgather_inplace(data, chunk_intra_);
  } else {
    comm::Comm c = comm_;
    c.allgather_inplace(data, shard_elems_);
  }
}

void ZeroOptimizer::sharded_update(std::span<float> params,
                                   std::span<float> grads) {
  static obs::Counter& reduced_bytes_metric =
      obs::Registry::instance().counter("zero.reduced_bytes");
  static obs::Counter& gathered_bytes_metric =
      obs::Registry::instance().counter("zero.gathered_bytes");

  const bool multi = comm_.size() > 1;
  const bool fp16 = options_.fp16_compression;
  const float inv_world = 1.0f / static_cast<float>(comm_.size());
  const std::size_t wire_sz = fp16 ? sizeof(Half) : sizeof(float);
  // Payload handed to the fabric per phase: the full span on the (single or
  // intra) pass plus the owned chunk on the cross pass.
  const std::uint64_t phase_bytes =
      multi ? static_cast<std::uint64_t>(padded_ + (hier_ ? chunk_intra_ : 0)) *
                  wire_sz
            : 0;

  // ---- Phase 1: reduce-scatter the gradients; my shard ends up summed and
  // scaled, in place, at [my_off_, my_off_ + shard_elems_).  A single rank's
  // "sum" is its local gradient.
  run_phase(phase_bytes, [this, grads, inv_world, multi, fp16]() {
    if (multi && fp16) {
      // fp16 wire: reduce in binary16 (same precision model as the fp16
      // gradient allreduce), unpack only the owned shard.
      wire_.resize(padded_);
      for (std::size_t i = 0; i < padded_; ++i) wire_[i] = Half(grads[i]);
      reduce_scatter_shards(std::span<Half>(wire_));
      for (std::size_t i = 0; i < shard_elems_; ++i) {
        grads[my_off_ + i] = wire_[my_off_ + i].to_float() * inv_world;
      }
      return;
    }
    if (multi) reduce_scatter_shards(grads);
    for (std::size_t i = 0; i < shard_elems_; ++i) {
      grads[my_off_ + i] *= inv_world;
    }
  });

  // ---- Phase 2: the inner rule updates this rank's 1/P slice in place.
  // Under fp16 it updates a persistent fp32 master instead (seeded from the
  // parameters on the first step), so wire quantisation never feeds back
  // into the optimizer state.
  const std::span<float> shard = params.subspan(my_off_, shard_elems_);
  const std::span<const float> grad_shard =
      grads.subspan(my_off_, shard_elems_);
  if (fp16) {
    if (master_.empty()) master_.assign(shard.begin(), shard.end());
    inner_->step(master_, grad_shard, state_);
    std::copy(master_.begin(), master_.end(), shard.begin());
  } else {
    inner_->step(shard, grad_shard, state_);
  }

  // ---- Phase 3: allgather the updated shards, in place.  With fp16 every
  // replica (owner included) installs the wire-format values, so replicas
  // stay bit-identical; the fp32 master stays in master_.
  run_phase(phase_bytes, [this, params, multi, fp16]() {
    if (!multi) return;
    if (!fp16) {
      allgather_shards(params);
      return;
    }
    wire_.assign(padded_, Half{});
    for (std::size_t i = 0; i < shard_elems_; ++i) {
      wire_[my_off_ + i] = Half(params[my_off_ + i]);
    }
    allgather_shards(std::span<Half>(wire_));
    for (std::size_t i = 0; i < padded_; ++i) params[i] = wire_[i].to_float();
  });

  bytes_reduced_ += phase_bytes;
  bytes_gathered_ += phase_bytes;
  reduced_bytes_metric.add(phase_bytes);
  gathered_bytes_metric.add(phase_bytes);
}

void ZeroOptimizer::step(nn::ParamStore& store) {
  if (!initialised_) initialise(store.size());
  if (store.size() != total_) {
    throw std::invalid_argument("ZeroOptimizer::step: store size changed");
  }

  if (padded_ == total_) {
    // Slabs are already flat and exactly padded: the collectives run
    // directly on the slab ranges.  The gradient slab doubles as the ring
    // scratch; updated parameters land in place in the parameter slab.
    sharded_update(store.param_span(), store.grad_span());
    return;
  }

  // Padded case: one contiguous staging copy per role.
  if (gflat_.size() != padded_) gflat_.assign(padded_, 0.0f);
  if (pflat_.size() != padded_) pflat_.assign(padded_, 0.0f);
  const std::span<float> g = store.grad_span();
  std::copy(g.begin(), g.end(), gflat_.begin());
  std::fill(gflat_.begin() + static_cast<std::ptrdiff_t>(total_),
            gflat_.end(), 0.0f);
  const std::span<float> p = store.param_span();
  const std::size_t lo = std::min(my_off_, total_);
  const std::size_t hi = std::min(my_off_ + shard_elems_, total_);
  std::copy(p.begin() + static_cast<std::ptrdiff_t>(lo),
            p.begin() + static_cast<std::ptrdiff_t>(hi),
            pflat_.begin() + static_cast<std::ptrdiff_t>(lo));

  sharded_update(std::span<float>(pflat_), std::span<float>(gflat_));

  std::copy(pflat_.begin(),
            pflat_.begin() + static_cast<std::ptrdiff_t>(total_), p.begin());
}

}  // namespace msa::dist
