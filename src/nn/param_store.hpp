// Contiguous parameter/gradient/optimizer-state slabs for a Layer tree.
//
// The Horovod recipe of paper Sec. III-A depends on gradient fusion: flat
// buffers handed straight to allreduce.  ParamStore walks a layer tree once,
// in the deterministic order Layer::params() defines (registration order),
// and relocates every parameter and gradient tensor into one contiguous
// Storage slab per role.  The layer members themselves become views into the
// slabs (Tensor::view_of), so every kernel keeps reading and writing its own
// tensors unchanged while:
//
//   * dist::broadcast_parameters is ONE bcast of the parameter slab,
//   * dist::OverlappedReducer reduces slab ranges in place — buckets are
//     offsets, there is nothing to pack or scatter,
//   * zero_grads() is one fill over the gradient slab,
//   * an optimizer step is one parallel_for sweep over the param, grad and
//     optimizer-state slabs — the state slab is the only per-parameter
//     memory an optimizer has, and
//   * checkpoints stream each slab with one contiguous write/read.
//
// Invariants: registration order (and therefore the slab layout) is fixed by
// the layer tree; slabs never reallocate, so the cached Tensor* lists and
// every raw pointer into a slab stay valid for the store's lifetime.  That
// pointer stability is what lets optimizer state be positional: element j of
// each state role forever corresponds to element j of the parameter slab.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "nn/layer.hpp"
#include "nn/optimizer.hpp"
#include "tensor/storage.hpp"

namespace msa::nn {

class ParamStore {
 public:
  /// Relocates every parameter/gradient of @p root into fresh slabs.
  /// Current values are preserved; @p root must outlive the store.
  explicit ParamStore(Layer& root);

  ParamStore(const ParamStore&) = delete;
  ParamStore& operator=(const ParamStore&) = delete;

  /// Total learnable elements (= size of the param and grad slabs).
  [[nodiscard]] std::size_t size() const { return total_; }

  /// Flat views of the slabs.  Ranges of these spans alias the layer
  /// tensors directly — mutating them mutates the model.
  [[nodiscard]] std::span<float> param_span() { return param_slab_->span(); }
  [[nodiscard]] std::span<float> grad_span() { return grad_slab_->span(); }
  /// Optimizer-state slab; empty until attach_optimizer().
  [[nodiscard]] std::span<float> opt_span() {
    return opt_slab_ ? opt_slab_->span() : std::span<float>{};
  }

  [[nodiscard]] const std::shared_ptr<tensor::Storage>& param_storage() const {
    return param_slab_;
  }
  [[nodiscard]] const std::shared_ptr<tensor::Storage>& grad_storage() const {
    return grad_slab_;
  }

  /// Stable cached per-tensor views (pointers to the layer members, in
  /// registration order).  Valid for the lifetime of the store.
  [[nodiscard]] const std::vector<Tensor*>& params() const { return params_; }
  [[nodiscard]] const std::vector<Tensor*>& grads() const { return grads_; }

  /// [offset, offset+count) of each registered tensor within its slab
  /// (identical layout for the param and grad slabs).
  struct Range {
    std::size_t offset;
    std::size_t count;
  };
  [[nodiscard]] const std::vector<Range>& ranges() const { return ranges_; }

  /// Registration index of a gradient tensor (the layer member relocated
  /// into the grad slab), or npos if @p grad was not registered here.  Lets
  /// a backward hook map "layer finished, these grad tensors are final" to
  /// slab ranges in O(log n) without walking the tree.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t index_of_grad(const Tensor* grad) const;

  /// One fill over the gradient slab.
  void zero_grads() { grad_slab_->fill(0.0f); }

  /// Allocates @p opt's zeroed optimizer-state slab: opt.state_roles()
  /// role-major blocks of size() elements (Adam's is [all m | all v]).
  void attach_optimizer(Optimizer& opt);

  [[nodiscard]] Optimizer* attached_optimizer() const { return attached_; }

  /// One update of the parameter slab from the gradient and state slabs.
  /// Throws std::logic_error unless @p opt is the attached optimizer.
  void step(Optimizer& opt);

 private:
  std::vector<Tensor*> params_;
  std::vector<Tensor*> grads_;
  std::vector<Range> ranges_;
  // (grad tensor pointer, registration index), sorted by pointer for the
  // index_of_grad binary search.  Pointers are stable (see invariants above).
  std::vector<std::pair<const Tensor*, std::size_t>> grad_index_;
  std::size_t total_ = 0;
  std::shared_ptr<tensor::Storage> param_slab_;
  std::shared_ptr<tensor::Storage> grad_slab_;
  std::shared_ptr<tensor::Storage> opt_slab_;
  Optimizer* attached_ = nullptr;
};

}  // namespace msa::nn
