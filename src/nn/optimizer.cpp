#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "par/pool.hpp"

namespace msa::nn {

namespace {
// Parameter updates are elementwise, so chunked execution is deterministic.
constexpr std::size_t kOptGrain = 1 << 14;
}  // namespace

void Optimizer::check_layout(std::span<float> params,
                             std::span<const float> grads,
                             std::span<float> state) const {
  if (grads.size() != params.size() ||
      state.size() != state_roles() * params.size()) {
    const std::string n = std::to_string(params.size());
    throw std::invalid_argument("Optimizer::step: expected " + n +
                                " grads and " + std::to_string(state_roles()) +
                                " x " + n + " state elements");
  }
}

void Sgd::step(std::span<float> params, std::span<const float> grads,
               std::span<float> state) {
  check_layout(params, grads, state);
  const auto lr = static_cast<float>(lr_);
  const auto mu = static_cast<float>(momentum_);
  const auto wd = static_cast<float>(weight_decay_);
  float* p = params.data();
  const float* g = grads.data();
  float* v = state.data();
  par::parallel_for(0, params.size(), kOptGrain,
                    [&](std::size_t b, std::size_t e) {
                      for (std::size_t j = b; j < e; ++j) {
                        const float grad = g[j] + wd * p[j];
                        v[j] = mu * v[j] + grad;
                        const float update =
                            nesterov_ ? grad + mu * v[j] : v[j];
                        p[j] -= lr * update;
                      }
                    });
}

void Adam::step(std::span<float> params, std::span<const float> grads,
                std::span<float> state) {
  check_layout(params, grads, state);
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const auto lr = static_cast<float>(lr_ * std::sqrt(bc2) / bc1);
  const auto b1 = static_cast<float>(beta1_);
  const auto b2 = static_cast<float>(beta2_);
  const auto wd = static_cast<float>(weight_decay_);
  const auto eps = static_cast<float>(eps_);
  float* p = params.data();
  const float* g = grads.data();
  float* m = state.data();
  float* v = state.data() + params.size();
  par::parallel_for(
      0, params.size(), kOptGrain, [&](std::size_t b, std::size_t e) {
        for (std::size_t j = b; j < e; ++j) {
          const float grad = g[j] + wd * p[j];
          m[j] = b1 * m[j] + (1.0f - b1) * grad;
          v[j] = b2 * v[j] + (1.0f - b2) * grad * grad;
          p[j] -= lr * m[j] / (std::sqrt(v[j]) + eps);
        }
      });
}

}  // namespace msa::nn
