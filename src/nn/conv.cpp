#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "par/pool.hpp"
#include "tensor/ops.hpp"

namespace msa::nn {

namespace {
// Fixed upper bound on the number of per-chunk gradient partial buffers.
// The chunk decomposition depends only on the batch size (never on
// MSA_THREADS), and partials are reduced in chunk order, so weight/bias
// gradients are bit-identical for every pool size.
constexpr std::size_t kGradChunks = 8;

std::size_t grad_grain(std::size_t batch) {
  return (batch + kGradChunks - 1) / kGradChunks;
}

// Conv2D runs each chunk in groups of consecutive samples whose im2col
// columns, side by side in one matrix, fit in this many floats (512 KB),
// so one GEMM per group does each product the layer can batch.  Measured on
// perfbench (4-core AVX-512 host): without the cap, train_local's 8-sample
// chunks raised peak_rss_mb by 17%; with it by 5%, at the same speed-up.
constexpr std::size_t kGroupColumns = std::size_t{1} << 17;

// Samples per group for a chunk of at most `grain` samples, each
// `sample_columns` floats of im2col columns; at least 1 (also for an empty
// batch, whose grain is 0).
std::size_t group_size(std::size_t grain, std::size_t sample_columns) {
  return std::max<std::size_t>(1,
                               std::min(grain, kGroupColumns / sample_columns));
}

// Returns kernel, or throws when kernel or stride is 0; called first in the
// member initialisers, before any weight is sized from them.
std::size_t checked_kernel(const char* layer, std::size_t kernel,
                           std::size_t stride) {
  if (kernel == 0 || stride == 0) {
    throw std::invalid_argument(std::string(layer) + ": kernel " +
                                std::to_string(kernel) + " and stride " +
                                std::to_string(stride) + " must be >= 1");
  }
  return kernel;
}
}  // namespace

// ---- Conv2D ------------------------------------------------------------------

Conv2D::Conv2D(std::size_t in_ch, std::size_t out_ch, std::size_t kernel,
               std::size_t stride, std::size_t pad, Rng& rng, bool bias)
    : in_ch_(in_ch),
      out_ch_(out_ch),
      kernel_(checked_kernel("Conv2D", kernel, stride)),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      w_(Tensor::randn({out_ch, in_ch * kernel * kernel}, rng,
                       std::sqrt(2.0f / static_cast<float>(in_ch * kernel *
                                                           kernel)))),
      b_(Tensor::zeros({out_ch})),
      gw_(Tensor::zeros(w_.shape())),
      gb_(Tensor::zeros({out_ch})) {}

Tensor Conv2D::forward(const Tensor& x, bool /*training*/) {
  if (x.ndim() != 4 || x.dim(1) != in_ch_) {
    throw std::invalid_argument("Conv2D: bad input shape " + x.shape_str());
  }
  x_cache_ = x;
  const std::size_t B = x.dim(0), H = x.dim(2), W = x.dim(3);
  const std::size_t oh = tensor::conv_out_size(H, kernel_, stride_, pad_);
  const std::size_t ow = tensor::conv_out_size(W, kernel_, stride_, pad_);
  const std::size_t rows = in_ch_ * kernel_ * kernel_;
  const std::size_t ohw = oh * ow;
  Tensor out({B, out_ch_, oh, ow});
  obs::ScopedSpan span(
      obs::Category::Compute, "conv2d_fwd", /*bytes=*/0,
      static_cast<std::uint64_t>(static_cast<double>(B) *
                                 tensor::gemm_flops(out_ch_, ohw, rows)));
  // Parallel over the backward's sample chunks: each owns a disjoint output
  // slice and runs one GEMM per group of its samples on arena scratch.  An
  // output element sums over k = rows whatever the group, so its bits do
  // not depend on the grouping.
  const std::size_t grain = grad_grain(B);
  const std::size_t G = group_size(grain, rows * ohw);
  par::parallel_for(0, B, grain, [&](std::size_t sb, std::size_t se) {
    par::Scratch scratch;
    float* cols = scratch.floats(rows * G * ohw);
    float* out_g = scratch.floats(out_ch_ * G * ohw);
    for (std::size_t s0 = sb; s0 < se; s0 += G) {
      const std::size_t g = std::min(G, se - s0);
      const std::size_t ld = g * ohw;
      for (std::size_t t = 0; t < g; ++t) {
        tensor::im2col(x.data() + (s0 + t) * in_ch_ * H * W, in_ch_, H, W,
                       kernel_, kernel_, stride_, pad_, cols + t * ohw, ld);
      }
      tensor::gemm_raw(false, false, out_ch_, ld, rows, 1.0f, w_.data(), rows,
                       cols, ld, 0.0f, out_g);
      for (std::size_t t = 0; t < g; ++t) {
        float* dst = out.data() + (s0 + t) * out_ch_ * ohw;
        for (std::size_t c = 0; c < out_ch_; ++c) {
          const float bias = has_bias_ ? b_[c] : 0.0f;
          const float* src = out_g + c * ld + t * ohw;
          for (std::size_t i = 0; i < ohw; ++i) {
            dst[c * ohw + i] = src[i] + bias;
          }
        }
      }
    }
  });
  flops_ = static_cast<double>(B) * tensor::gemm_flops(out_ch_, ohw, rows);
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  const Tensor& x = x_cache_;
  const std::size_t B = x.dim(0), H = x.dim(2), W = x.dim(3);
  const std::size_t oh = grad_out.dim(2), ow = grad_out.dim(3);
  const std::size_t rows = in_ch_ * kernel_ * kernel_;
  const std::size_t ohw = oh * ow;
  const std::size_t wsize = w_.numel();
  obs::ScopedSpan span(obs::Category::Compute, "conv2d_bwd");
  Tensor gx(x.shape());
  // Input gradients are disjoint per sample; weight/bias gradients
  // accumulate into per-chunk partials reduced afterwards in chunk order.
  const std::size_t grain = grad_grain(B);
  const std::size_t nchunks = par::chunk_count(0, B, grain);
  const std::size_t G = group_size(grain, rows * ohw);
  std::vector<float> gw_part(nchunks * wsize, 0.0f);
  std::vector<float> gb_part(has_bias_ ? nchunks * out_ch_ : 0, 0.0f);
  par::parallel_for_chunked(
      0, B, grain, [&](std::size_t chunk, std::size_t sb, std::size_t se) {
        par::Scratch scratch;
        // cols holds a group's im2col columns (recomputed: cheaper in
        // memory than caching them from the forward), then their gradient;
        // g_grp its output gradient, laid out like the forward's product.
        float* cols = scratch.floats(rows * G * ohw);
        float* g_grp = scratch.floats(out_ch_ * G * ohw);
        float* gwp = gw_part.data() + chunk * wsize;
        for (std::size_t s0 = sb; s0 < se; s0 += G) {
          const std::size_t g = std::min(G, se - s0);
          const std::size_t ld = g * ohw;
          for (std::size_t t = 0; t < g; ++t) {
            const std::size_t s = s0 + t;
            tensor::im2col(x.data() + s * in_ch_ * H * W, in_ch_, H, W,
                           kernel_, kernel_, stride_, pad_, cols + t * ohw,
                           ld);
            const float* g_s = grad_out.data() + s * out_ch_ * ohw;
            for (std::size_t c = 0; c < out_ch_; ++c) {
              std::copy(g_s + c * ohw, g_s + (c + 1) * ohw,
                        g_grp + c * ld + t * ohw);
            }
            // gW += g_s cols_s^T, one GEMM per sample so the partial takes
            // each sample's sum on its own, in sample order.
            tensor::gemm_raw(false, /*trans_b=*/true, out_ch_, rows, ohw, 1.0f,
                             g_s, ohw, cols + t * ohw, ld, 1.0f, gwp);
            if (has_bias_) {
              float* gbp = gb_part.data() + chunk * out_ch_;
              for (std::size_t c = 0; c < out_ch_; ++c) {
                for (std::size_t i = 0; i < ohw; ++i) {
                  gbp[c] += g_s[c * ohw + i];
                }
              }
            }
          }
          // gcols = W^T g for the whole group (k = out_ch); scatter back
          // with col2im.
          tensor::gemm_raw(/*trans_a=*/true, false, rows, ld, out_ch_, 1.0f,
                           w_.data(), rows, g_grp, ld, 0.0f, cols);
          for (std::size_t t = 0; t < g; ++t) {
            tensor::col2im(cols + t * ohw, in_ch_, H, W, kernel_, kernel_,
                           stride_, pad_,
                           gx.data() + (s0 + t) * in_ch_ * H * W, ld);
          }
        }
      });
  // Fixed-order reduction of the partials (parallel over elements, chunk
  // order fixed per element).
  float* gw = gw_.data();
  par::parallel_for(0, wsize, 1 << 14, [&](std::size_t b, std::size_t e) {
    for (std::size_t c = 0; c < nchunks; ++c) {
      const float* part = gw_part.data() + c * wsize;
      for (std::size_t i = b; i < e; ++i) gw[i] += part[i];
    }
  });
  if (has_bias_) {
    for (std::size_t c = 0; c < nchunks; ++c) {
      const float* part = gb_part.data() + c * out_ch_;
      for (std::size_t i = 0; i < out_ch_; ++i) gb_[i] += part[i];
    }
  }
  return gx;
}

std::vector<Tensor*> Conv2D::params() {
  if (has_bias_) return {&w_, &b_};
  return {&w_};
}

std::vector<Tensor*> Conv2D::grads() {
  if (has_bias_) return {&gw_, &gb_};
  return {&gw_};
}

// ---- Conv1D ------------------------------------------------------------------

Conv1D::Conv1D(std::size_t in_ch, std::size_t out_ch, std::size_t kernel,
               std::size_t stride, std::size_t pad, Rng& rng)
    : in_ch_(in_ch),
      out_ch_(out_ch),
      kernel_(checked_kernel("Conv1D", kernel, stride)),
      stride_(stride),
      pad_(pad),
      w_(Tensor::randn({out_ch, in_ch, kernel}, rng,
                       std::sqrt(2.0f / static_cast<float>(in_ch * kernel)))),
      b_(Tensor::zeros({out_ch})),
      gw_(Tensor::zeros(w_.shape())),
      gb_(Tensor::zeros({out_ch})) {}

Tensor Conv1D::forward(const Tensor& x, bool /*training*/) {
  if (x.ndim() != 3 || x.dim(1) != in_ch_) {
    throw std::invalid_argument("Conv1D: bad input shape " + x.shape_str());
  }
  x_cache_ = x;
  const std::size_t B = x.dim(0), T = x.dim(2);
  const std::size_t ot = tensor::conv_out_size(T, kernel_, stride_, pad_);
  Tensor out({B, out_ch_, ot});
  par::parallel_for(0, B, 1, [&](std::size_t sb, std::size_t se) {
    for (std::size_t s = sb; s < se; ++s) {
      for (std::size_t f = 0; f < out_ch_; ++f) {
        for (std::size_t o = 0; o < ot; ++o) {
          float acc = b_[f];
          for (std::size_t c = 0; c < in_ch_; ++c) {
            for (std::size_t k = 0; k < kernel_; ++k) {
              const std::ptrdiff_t t =
                  static_cast<std::ptrdiff_t>(o * stride_ + k) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (t < 0 || t >= static_cast<std::ptrdiff_t>(T)) continue;
              acc += w_.at3(f, c, k) *
                     x.at3(s, c, static_cast<std::size_t>(t));
            }
          }
          out.at3(s, f, o) = acc;
        }
      }
    }
  });
  flops_ = 2.0 * static_cast<double>(B * out_ch_ * ot * in_ch_ * kernel_);
  return out;
}

Tensor Conv1D::backward(const Tensor& grad_out) {
  const Tensor& x = x_cache_;
  const std::size_t B = x.dim(0), T = x.dim(2);
  const std::size_t ot = grad_out.dim(2);
  const std::size_t wsize = w_.numel();
  Tensor gx(x.shape());
  // Same scheme as Conv2D::backward: disjoint gx per sample, per-chunk
  // weight/bias partials reduced in fixed chunk order.
  const std::size_t grain = grad_grain(B);
  const std::size_t nchunks = par::chunk_count(0, B, grain);
  std::vector<float> gw_part(nchunks * wsize, 0.0f);
  std::vector<float> gb_part(nchunks * out_ch_, 0.0f);
  par::parallel_for_chunked(
      0, B, grain, [&](std::size_t chunk, std::size_t sb, std::size_t se) {
        float* gwp = gw_part.data() + chunk * wsize;
        float* gbp = gb_part.data() + chunk * out_ch_;
        for (std::size_t s = sb; s < se; ++s) {
          for (std::size_t f = 0; f < out_ch_; ++f) {
            for (std::size_t o = 0; o < ot; ++o) {
              const float g = grad_out.at3(s, f, o);
              gbp[f] += g;
              for (std::size_t c = 0; c < in_ch_; ++c) {
                for (std::size_t k = 0; k < kernel_; ++k) {
                  const std::ptrdiff_t t =
                      static_cast<std::ptrdiff_t>(o * stride_ + k) -
                      static_cast<std::ptrdiff_t>(pad_);
                  if (t < 0 || t >= static_cast<std::ptrdiff_t>(T)) continue;
                  gwp[(f * in_ch_ + c) * kernel_ + k] +=
                      g * x.at3(s, c, static_cast<std::size_t>(t));
                  gx.at3(s, c, static_cast<std::size_t>(t)) +=
                      g * w_.at3(f, c, k);
                }
              }
            }
          }
        }
      });
  for (std::size_t c = 0; c < nchunks; ++c) {
    const float* gwp = gw_part.data() + c * wsize;
    const float* gbp = gb_part.data() + c * out_ch_;
    for (std::size_t i = 0; i < wsize; ++i) gw_[i] += gwp[i];
    for (std::size_t i = 0; i < out_ch_; ++i) gb_[i] += gbp[i];
  }
  return gx;
}

// ---- MaxPool2D ---------------------------------------------------------------

MaxPool2D::MaxPool2D(std::size_t kernel, std::size_t stride)
    : kernel_(checked_kernel("MaxPool2D", kernel, stride)), stride_(stride) {}

Tensor MaxPool2D::forward(const Tensor& x, bool /*training*/) {
  in_shape_ = x.shape();
  const std::size_t B = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  const std::size_t oh = tensor::conv_out_size(H, kernel_, stride_, 0);
  const std::size_t ow = tensor::conv_out_size(W, kernel_, stride_, 0);
  Tensor out({B, C, oh, ow});
  argmax_.assign(out.numel(), 0);
  // Parallel over (sample, channel) planes; each plane's outputs are
  // disjoint.
  par::parallel_for(0, B * C, 1, [&](std::size_t pb, std::size_t pe) {
    for (std::size_t p = pb; p < pe; ++p) {
      const float* plane = x.data() + p * H * W;
      std::size_t oi = p * oh * ow;
      for (std::size_t i = 0; i < oh; ++i) {
        for (std::size_t j = 0; j < ow; ++j, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ki = 0; ki < kernel_; ++ki) {
            for (std::size_t kj = 0; kj < kernel_; ++kj) {
              const std::size_t ii = i * stride_ + ki;
              const std::size_t jj = j * stride_ + kj;
              if (ii >= H || jj >= W) continue;
              const float v = plane[ii * W + jj];
              if (v > best) {
                best = v;
                best_idx = p * H * W + ii * W + jj;
              }
            }
          }
          out[oi] = best;
          argmax_[oi] = best_idx;
        }
      }
    }
  });
  return out;
}

Tensor MaxPool2D::backward(const Tensor& grad_out) {
  Tensor gx(in_shape_);
  // Argmax indices of one output plane all fall inside the matching input
  // plane, so scattering parallel over planes is race-free.
  const std::size_t plane_out =
      grad_out.numel() / (in_shape_[0] * in_shape_[1]);
  par::parallel_for(
      0, in_shape_[0] * in_shape_[1], 1, [&](std::size_t pb, std::size_t pe) {
        for (std::size_t i = pb * plane_out; i < pe * plane_out; ++i) {
          gx[argmax_[i]] += grad_out[i];
        }
      });
  return gx;
}

// ---- GlobalAvgPool -------------------------------------------------------------

Tensor GlobalAvgPool::forward(const Tensor& x, bool /*training*/) {
  in_shape_ = x.shape();
  const std::size_t B = x.dim(0), C = x.dim(1), HW = x.dim(2) * x.dim(3);
  Tensor out({B, C});
  const float inv = 1.0f / static_cast<float>(HW);
  par::parallel_for(0, B * C, 4, [&](std::size_t pb, std::size_t pe) {
    for (std::size_t p = pb; p < pe; ++p) {
      const float* plane = x.data() + p * HW;
      float acc = 0.0f;
      for (std::size_t i = 0; i < HW; ++i) acc += plane[i];
      out[p] = acc * inv;
    }
  });
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  const std::size_t HW = in_shape_[2] * in_shape_[3];
  Tensor gx(in_shape_);
  const float inv = 1.0f / static_cast<float>(HW);
  const std::size_t B = in_shape_[0], C = in_shape_[1];
  par::parallel_for(0, B * C, 4, [&](std::size_t pb, std::size_t pe) {
    for (std::size_t p = pb; p < pe; ++p) {
      const float g = grad_out[p] * inv;
      float* plane = gx.data() + p * HW;
      for (std::size_t i = 0; i < HW; ++i) plane[i] = g;
    }
  });
  return gx;
}

}  // namespace msa::nn
