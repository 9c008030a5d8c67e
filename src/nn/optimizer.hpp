// Optimizers: SGD with momentum (the large-batch ResNet recipe) and ADAM
// (the ARDS GRU recipe: lr 1e-4, Sec. IV-B).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace msa::nn {

/// An element-wise update rule over flat parameter/gradient/state memory
/// (the nn::ParamStore slab layout).  The rule owns no per-parameter memory:
/// the caller holds state_roles() role-major state arrays of params.size()
/// elements each (for Adam [all m | all v]) and hands them to every step().
/// Only scalar state, such as Adam's step counter, lives in the optimizer.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Per-parameter state arrays the rule needs (momentum: 1, Adam: 2).
  [[nodiscard]] virtual std::size_t state_roles() const = 0;

  /// Apply one update step in place.  @p state holds state_roles() arrays
  /// of params.size() elements, role-major.  Throws std::invalid_argument
  /// when @p grads or @p state do not match that layout.
  virtual void step(std::span<float> params, std::span<const float> grads,
                    std::span<float> state) = 0;

  void set_lr(double lr) { lr_ = lr; }
  [[nodiscard]] double lr() const { return lr_; }

  /// Scalar state (step counters etc.) for checkpointing.
  [[nodiscard]] virtual std::vector<double> scalar_state() const { return {}; }
  virtual void restore_scalar_state(const std::vector<double>& s) { (void)s; }

 protected:
  explicit Optimizer(double lr) : lr_(lr) {}
  /// Throws std::invalid_argument unless the spans match step()'s layout.
  void check_layout(std::span<float> params, std::span<const float> grads,
                    std::span<float> state) const;
  double lr_;
};

/// SGD with (optionally Nesterov) momentum and decoupled weight decay.
class Sgd : public Optimizer {
 public:
  explicit Sgd(double lr, double momentum = 0.0, double weight_decay = 0.0,
               bool nesterov = false)
      : Optimizer(lr),
        momentum_(momentum),
        weight_decay_(weight_decay),
        nesterov_(nesterov) {}

  /// One role: the velocity.
  [[nodiscard]] std::size_t state_roles() const override { return 1; }
  void step(std::span<float> params, std::span<const float> grads,
            std::span<float> state) override;

 private:
  double momentum_, weight_decay_;
  bool nesterov_;
};

/// ADAM (Kingma & Ba) with bias correction.
class Adam : public Optimizer {
 public:
  explicit Adam(double lr = 1e-3, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8, double weight_decay = 0.0)
      : Optimizer(lr),
        beta1_(beta1),
        beta2_(beta2),
        eps_(eps),
        weight_decay_(weight_decay) {}

  /// Two roles: the first moment m, then the second moment v.
  [[nodiscard]] std::size_t state_roles() const override { return 2; }
  void step(std::span<float> params, std::span<const float> grads,
            std::span<float> state) override;

  [[nodiscard]] std::vector<double> scalar_state() const override {
    return {static_cast<double>(t_)};
  }
  void restore_scalar_state(const std::vector<double>& s) override {
    if (!s.empty()) t_ = static_cast<long>(s[0]);
  }

 private:
  double beta1_, beta2_, eps_, weight_decay_;
  long t_ = 0;
};

}  // namespace msa::nn
