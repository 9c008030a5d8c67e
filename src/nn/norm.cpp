#include "nn/norm.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "par/pool.hpp"

namespace msa::nn {

namespace {

// A channel's mean, variance, sum(g) and sum(g * xhat) are each one chain of
// dependent double adds over B * HW values.  Each chunk of the pool takes a
// group of consecutive channels and runs their chains interleaved, so the
// adds of one chain overlap the latency of the others: 4 channels in the
// forward (one sum at a time per channel), 2 in the backward (two sums per
// channel; groups of 4 there ran slower single-threaded).
constexpr std::size_t kForwardGroup = 4;
constexpr std::size_t kBackwardGroup = 2;

// fn(c0, std::integral_constant<std::size_t, n>{}) for 1 <= n <= N.
template <std::size_t N, typename Fn>
void call_with_group(const Fn& fn, std::size_t c0, std::size_t n) {
  if constexpr (N > 1) {
    if (n < N) return call_with_group<N - 1>(fn, c0, n);
  }
  fn(c0, std::integral_constant<std::size_t, N>{});
}

// Calls fn(c0, std::integral_constant<std::size_t, K>{}) for every group
// [c0, c0 + K) of consecutive channels, one group per chunk on the pool:
// K = G, and the C % G channels left over form a last, smaller group.
// Channels are independent, so the chunks write disjoint outputs.
template <std::size_t G, typename Fn>
void for_each_channel_group(std::size_t C, const Fn& fn) {
  par::parallel_for(0, (C + G - 1) / G, 1, [&](std::size_t gb, std::size_t ge) {
    for (std::size_t g = gb; g < ge; ++g) {
      call_with_group<G>(fn, g * G, std::min(G, C - g * G));
    }
  });
}

}  // namespace

BatchNorm2D::BatchNorm2D(std::size_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(Tensor::ones({channels})),
      beta_(Tensor::zeros({channels})),
      ggamma_(Tensor::zeros({channels})),
      gbeta_(Tensor::zeros({channels})),
      running_mean_(Tensor::zeros({channels})),
      running_var_(Tensor::ones({channels})) {}

Tensor BatchNorm2D::forward(const Tensor& x, bool training) {
  if (x.ndim() != 4 || x.dim(1) != channels_) {
    throw std::invalid_argument("BatchNorm2D: bad input " + x.shape_str());
  }
  in_shape_ = x.shape();
  const std::size_t B = x.dim(0), C = channels_, HW = x.dim(2) * x.dim(3);
  const std::size_t n = B * HW;
  Tensor y = Tensor::uninitialized(x.shape());
  if (!xhat_.same_shape(x)) xhat_ = Tensor::uninitialized(x.shape());
  inv_std_.assign(C, 0.0f);
  for_each_channel_group<kForwardGroup>(C, [&](std::size_t c0, auto group) {
    constexpr std::size_t K = decltype(group)::value;
    // Sample s's plane of channel c0 + j starts at j * HW past its c0 plane.
    const auto at = [&](std::size_t s) { return (s * C + c0) * HW; };
    float mean[K], var[K];
    if (training) {
      double m[K] = {};
      for (std::size_t s = 0; s < B; ++s) {
        const float* plane = x.data() + at(s);
        for (std::size_t i = 0; i < HW; ++i) {
          for (std::size_t j = 0; j < K; ++j) m[j] += plane[j * HW + i];
        }
      }
      for (std::size_t j = 0; j < K; ++j) {
        mean[j] = static_cast<float>(m[j] / static_cast<double>(n));
      }
      double v[K] = {};
      for (std::size_t s = 0; s < B; ++s) {
        const float* plane = x.data() + at(s);
        for (std::size_t i = 0; i < HW; ++i) {
          for (std::size_t j = 0; j < K; ++j) {
            const double d = plane[j * HW + i] - mean[j];
            v[j] += d * d;
          }
        }
      }
      for (std::size_t j = 0; j < K; ++j) {
        const std::size_t c = c0 + j;
        var[j] = static_cast<float>(v[j] / static_cast<double>(n));
        running_mean_[c] =
            (1.0f - momentum_) * running_mean_[c] + momentum_ * mean[j];
        running_var_[c] =
            (1.0f - momentum_) * running_var_[c] + momentum_ * var[j];
      }
    } else {
      for (std::size_t j = 0; j < K; ++j) {
        mean[j] = running_mean_[c0 + j];
        var[j] = running_var_[c0 + j];
      }
    }
    for (std::size_t j = 0; j < K; ++j) {
      const std::size_t c = c0 + j;
      const float inv_std = 1.0f / std::sqrt(var[j] + eps_);
      inv_std_[c] = inv_std;
      const float mu = mean[j], gamma = gamma_[c], beta = beta_[c];
      for (std::size_t s = 0; s < B; ++s) {
        const std::size_t off = at(s) + j * HW;
        const float* in_plane = x.data() + off;
        float* xh_plane = xhat_.data() + off;
        float* out_plane = y.data() + off;
        for (std::size_t i = 0; i < HW; ++i) {
          xh_plane[i] = (in_plane[i] - mu) * inv_std;
          out_plane[i] = gamma * xh_plane[i] + beta;
        }
      }
    }
  });
  return y;
}

Tensor BatchNorm2D::backward(const Tensor& grad_out) {
  const std::size_t B = in_shape_[0], C = channels_,
                    HW = in_shape_[2] * in_shape_[3];
  const auto n = static_cast<float>(B * HW);
  Tensor gx = Tensor::uninitialized(in_shape_);
  for_each_channel_group<kBackwardGroup>(C, [&](std::size_t c0, auto group) {
    constexpr std::size_t K = decltype(group)::value;
    const auto at = [&](std::size_t s) { return (s * C + c0) * HW; };
    // Accumulate sum(g) and sum(g * xhat) for each channel of the group.
    double sum_g[K] = {}, sum_gx[K] = {};
    for (std::size_t s = 0; s < B; ++s) {
      const float* g_plane = grad_out.data() + at(s);
      const float* xh_plane = xhat_.data() + at(s);
      for (std::size_t i = 0; i < HW; ++i) {
        for (std::size_t j = 0; j < K; ++j) {
          const float g = g_plane[j * HW + i];
          sum_g[j] += g;
          sum_gx[j] += static_cast<double>(g) * xh_plane[j * HW + i];
        }
      }
    }
    for (std::size_t j = 0; j < K; ++j) {
      const std::size_t c = c0 + j;
      ggamma_[c] += static_cast<float>(sum_gx[j]);
      gbeta_[c] += static_cast<float>(sum_g[j]);
      const float k = gamma_[c] * inv_std_[c] / n;
      const auto sg = static_cast<float>(sum_g[j]);
      const auto sgx = static_cast<float>(sum_gx[j]);
      for (std::size_t s = 0; s < B; ++s) {
        const std::size_t off = at(s) + j * HW;
        const float* g_plane = grad_out.data() + off;
        const float* xh_plane = xhat_.data() + off;
        float* gx_plane = gx.data() + off;
        for (std::size_t i = 0; i < HW; ++i) {
          gx_plane[i] = k * (n * g_plane[i] - sg - xh_plane[i] * sgx);
        }
      }
    }
  });
  return gx;
}

}  // namespace msa::nn
