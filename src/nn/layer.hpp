// Layer abstraction for the from-scratch DL framework (TensorFlow/Keras
// stand-in of the paper's software stack).
//
// Contract: forward() caches whatever backward() needs (a copy: the argument
// is only borrowed for the call); backward() consumes the cached state,
// accumulates parameter gradients, and returns the gradient with respect to
// the layer input.  Parameter gradients are *accumulated*
// (+=) so data-parallel microbatching works; callers zero them via
// zero_grads().  forward_flops() reports the arithmetic of the last forward
// pass so trainers can charge simulated time (backward is charged as 2x
// forward, the standard estimate).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace msa::nn {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

class Layer;

/// Backward-pass hook: notified after each layer finishes backward(), in
/// execution (i.e. reverse-topological) order.  This is how an overlapped
/// gradient reducer learns that a layer's gradients are final and its bucket
/// slices can be launched while earlier layers still compute — the Horovod
/// pattern on the paper's stack.
struct BackwardObserver {
  virtual ~BackwardObserver() = default;
  virtual void on_layer_backward(Layer& layer) = 0;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass. @p training enables dropout/batch-norm batch statistics.
  virtual Tensor forward(const Tensor& x, bool training) = 0;

  /// Backward pass for the most recent forward(); returns dLoss/dInput.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Learnable parameters and their gradient buffers (parallel vectors).
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Arithmetic cost of the most recent forward pass (flops).
  [[nodiscard]] virtual double forward_flops() const { return 0.0; }

  /// Install (or clear, with nullptr) a backward observer.  Default: ignored
  /// — only containers that orchestrate per-layer backward (Sequential)
  /// dispatch notifications; a bare layer used as a whole model has no
  /// "partial progress" to report.
  virtual void set_backward_observer(BackwardObserver* observer) {
    (void)observer;
  }

  void zero_grads() {
    for (Tensor* g : grads()) g->fill(0.0f);
  }
};

/// Ordered container of layers, itself a Layer.
class Sequential : public Layer {
 public:
  Sequential() = default;

  Sequential& add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
    return *this;
  }

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    layers_.push_back(std::make_unique<L>(std::forward<Args>(args)...));
    return *this;
  }

  /// The first layer reads x itself, and the last layer's backward reads
  /// grad_out itself: neither argument is copied (an empty Sequential
  /// returns a copy).
  Tensor forward(const Tensor& x, bool training) override {
    if (layers_.empty()) return x;
    Tensor h = layers_.front()->forward(x, training);
    for (auto it = layers_.begin() + 1; it != layers_.end(); ++it) {
      h = (*it)->forward(h, training);
    }
    return h;
  }

  Tensor backward(const Tensor& grad_out) override {
    if (layers_.empty()) return grad_out;
    const Tensor* in = &grad_out;
    Tensor g;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
      g = (*it)->backward(*in);
      in = &g;
      // Notify after the child completes: its parameter gradients are final
      // for this microbatch and may be reduced while we keep unwinding.
      if (observer_ != nullptr) observer_->on_layer_backward(**it);
    }
    return g;
  }

  void set_backward_observer(BackwardObserver* observer) override {
    observer_ = observer;
  }

  std::vector<Tensor*> params() override {
    std::vector<Tensor*> out;
    for (auto& l : layers_) {
      auto p = l->params();
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }

  std::vector<Tensor*> grads() override {
    std::vector<Tensor*> out;
    for (auto& l : layers_) {
      auto g = l->grads();
      out.insert(out.end(), g.begin(), g.end());
    }
    return out;
  }

  [[nodiscard]] std::string name() const override { return "Sequential"; }

  [[nodiscard]] double forward_flops() const override {
    double f = 0.0;
    for (const auto& l : layers_) f += l->forward_flops();
    return f;
  }

  [[nodiscard]] std::size_t size() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }

  /// Transfers ownership of layer @p i out (pipeline partitioning) and
  /// erases its slot, so later layers shift down by one.  The donor stays
  /// executable over its remaining layers — no null slot is left behind.
  [[nodiscard]] std::unique_ptr<Layer> release_layer(std::size_t i) {
    auto out = std::move(layers_.at(i));
    layers_.erase(layers_.begin() + static_cast<std::ptrdiff_t>(i));
    return out;
  }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  BackwardObserver* observer_ = nullptr;
};

/// Total learnable parameter count of a layer tree.
[[nodiscard]] std::size_t parameter_count(Layer& layer);

}  // namespace msa::nn
