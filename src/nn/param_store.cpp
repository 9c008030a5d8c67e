#include "nn/param_store.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace msa::nn {

namespace {

/// Moves each tensor's payload into @p slab at consecutive offsets and
/// rebinds the tensor to be a view of that range.  Layout (registration
/// order) is the caller's contract.
void relocate_into(const std::shared_ptr<tensor::Storage>& slab,
                   const std::vector<Tensor*>& tensors) {
  std::size_t offset = 0;
  for (Tensor* t : tensors) {
    const std::size_t n = t->numel();
    std::copy(t->data(), t->data() + n, slab->data() + offset);
    *t = Tensor::view_of(slab, offset, t->shape());
    offset += n;
  }
}

}  // namespace

ParamStore::ParamStore(Layer& root)
    : params_(root.params()), grads_(root.grads()) {
  if (params_.size() != grads_.size()) {
    throw std::invalid_argument("ParamStore: params/grads list size mismatch");
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (params_[i]->numel() != grads_[i]->numel()) {
      throw std::invalid_argument(
          "ParamStore: param/grad element count mismatch at tensor " +
          std::to_string(i));
    }
    ranges_.push_back({total_, params_[i]->numel()});
    total_ += params_[i]->numel();
  }
  param_slab_ = std::make_shared<tensor::Storage>(total_);
  grad_slab_ = std::make_shared<tensor::Storage>(total_);
  relocate_into(param_slab_, params_);
  relocate_into(grad_slab_, grads_);
  grad_index_.reserve(grads_.size());
  for (std::size_t i = 0; i < grads_.size(); ++i) {
    grad_index_.emplace_back(grads_[i], i);
  }
  // std::less on pointers gives a total order even across allocations.
  std::sort(grad_index_.begin(), grad_index_.end(),
            [](const auto& a, const auto& b) {
              return std::less<const Tensor*>{}(a.first, b.first);
            });
}

std::size_t ParamStore::index_of_grad(const Tensor* grad) const {
  auto it = std::lower_bound(
      grad_index_.begin(), grad_index_.end(), grad,
      [](const auto& entry, const Tensor* g) {
        return std::less<const Tensor*>{}(entry.first, g);
      });
  if (it == grad_index_.end() || it->first != grad) return npos;
  return it->second;
}

void ParamStore::attach_optimizer(Optimizer& opt) {
  opt_slab_ = std::make_shared<tensor::Storage>(opt.state_roles() * total_);
  attached_ = &opt;
}

void ParamStore::step(Optimizer& opt) {
  if (attached_ != &opt) {
    throw std::logic_error(
        "ParamStore::step: optimizer is not attached to this store");
  }
  opt.step(param_span(), grad_span(), opt_span());
}

}  // namespace msa::nn
