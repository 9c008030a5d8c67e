#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "par/pool.hpp"
#include "tensor/gemm_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define MSA_GEMM_X86 1
#endif

namespace msa::tensor {

namespace {
constexpr std::size_t kBlock = 64;  // scalar-fallback cache block
constexpr std::size_t kMR = 4;      // micro-kernel rows
constexpr std::size_t kKC = 256;    // packed-panel depth

// Scale C by beta (beta == 1 is the caller's no-op case).
void scale_c(float* C, std::size_t count, float beta) {
  if (beta == 1.0f) return;
  if (beta == 0.0f) {
    std::memset(C, 0, count * sizeof(float));
    return;
  }
  par::parallel_for(0, count, 1 << 15, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) C[i] *= beta;
  });
}

// Serial cache-blocked scalar kernel, branch-free inner loop.  Handles all
// four transpose combinations via accessor lambdas; used for problems too
// small to amortise packing.
void gemm_scalar(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, const float* A, std::size_t lda,
                 const float* B, std::size_t ldb, float* C) {
  auto a_at = [&](std::size_t i, std::size_t p) {
    return trans_a ? A[p * lda + i] : A[i * lda + p];
  };
  auto b_at = [&](std::size_t p, std::size_t j) {
    return trans_b ? B[j * ldb + p] : B[p * ldb + j];
  };

  // Fast path: no transposes — blocked i-k-j with contiguous inner loop.
  if (!trans_a && !trans_b) {
    for (std::size_t i0 = 0; i0 < m; i0 += kBlock) {
      const std::size_t i1 = std::min(i0 + kBlock, m);
      for (std::size_t p0 = 0; p0 < k; p0 += kBlock) {
        const std::size_t p1 = std::min(p0 + kBlock, k);
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t p = p0; p < p1; ++p) {
            const float av = alpha * A[i * lda + p];
            const float* brow = B + p * ldb;
            float* crow = C + i * n;
            for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
          }
        }
      }
    }
    return;
  }

  for (std::size_t i0 = 0; i0 < m; i0 += kBlock) {
    const std::size_t i1 = std::min(i0 + kBlock, m);
    for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
      const std::size_t j1 = std::min(j0 + kBlock, n);
      for (std::size_t p0 = 0; p0 < k; p0 += kBlock) {
        const std::size_t p1 = std::min(p0 + kBlock, k);
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t j = j0; j < j1; ++j) {
            float acc = 0.0f;
            for (std::size_t p = p0; p < p1; ++p) acc += a_at(i, p) * b_at(p, j);
            C[i * n + j] += alpha * acc;
          }
        }
      }
    }
  }
}

// Pack one kMR-row micro-panel of alpha * op(A) for depth [p0, p1), rows
// [i0, i0 + kMR) clamped to m and zero-padded, laid out so the micro-kernel
// reads kMR consecutive floats per depth step.
void pack_a_panel(const float* A, std::size_t lda, bool trans, float alpha,
                  std::size_t i0, std::size_t m, std::size_t p0,
                  std::size_t p1, float* Ap) {
  const std::size_t kc = p1 - p0;
  const std::size_t mr = std::min(kMR, m - i0);
  for (std::size_t p = 0; p < kc; ++p) {
    const std::size_t pp = p0 + p;
    float* dst = Ap + p * kMR;
    for (std::size_t r = 0; r < mr; ++r) {
      const std::size_t i = i0 + r;
      dst[r] = alpha * (trans ? A[pp * lda + i] : A[i * lda + pp]);
    }
    for (std::size_t r = mr; r < kMR; ++r) dst[r] = 0.0f;
  }
}

// Pack columns [j0, j0 + jn) of op(B) rows [p0, p1) into one nr-wide panel,
// zero-padded in the column direction.  Under trans each column of op(B) is
// a row of B, read contiguously along the depth: 4 x 4 tiles go through
// registers, and only tails narrower than 4 move one element at a time.
void pack_b_panel(const float* B, std::size_t ldb, bool trans, std::size_t p0,
                  std::size_t p1, std::size_t j0, std::size_t jn,
                  std::size_t nr, float* panel) {
  const std::size_t kc = p1 - p0;
  if (!trans) {
    for (std::size_t p = 0; p < kc; ++p) {
      const float* src = B + (p0 + p) * ldb + j0;
      std::copy(src, src + jn, panel + p * nr);
    }
  } else {
    using V4 [[gnu::vector_size(4 * sizeof(float))]] = float;
    std::size_t jr = 0;
    for (; jr + 4 <= jn; jr += 4) {
      const float* src = B + (j0 + jr) * ldb + p0;
      std::size_t p = 0;
      for (; p + 4 <= kc; p += 4) {
        V4 r[4];
        for (std::size_t c = 0; c < 4; ++c) {
          std::memcpy(&r[c], src + c * ldb + p, sizeof(V4));
        }
        const V4 lo01 = __builtin_shufflevector(r[0], r[1], 0, 4, 1, 5);
        const V4 hi01 = __builtin_shufflevector(r[0], r[1], 2, 6, 3, 7);
        const V4 lo23 = __builtin_shufflevector(r[2], r[3], 0, 4, 1, 5);
        const V4 hi23 = __builtin_shufflevector(r[2], r[3], 2, 6, 3, 7);
        const V4 rows[4] = {__builtin_shufflevector(lo01, lo23, 0, 1, 4, 5),
                            __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7),
                            __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5),
                            __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7)};
        for (std::size_t q = 0; q < 4; ++q) {
          std::memcpy(panel + (p + q) * nr + jr, &rows[q], sizeof(V4));
        }
      }
      for (; p < kc; ++p) {
        for (std::size_t c = 0; c < 4; ++c) {
          panel[p * nr + jr + c] = src[c * ldb + p];
        }
      }
    }
    for (; jr < jn; ++jr) {
      const float* src = B + (j0 + jr) * ldb + p0;
      for (std::size_t p = 0; p < kc; ++p) panel[p * nr + jr] = src[p];
    }
  }
  for (std::size_t p = 0; p < kc; ++p) {
    std::fill(panel + p * nr + jn, panel + (p + 1) * nr, 0.0f);
  }
}

// Pack op(B) rows [p0, p1) across the full width n into nr-wide panels.
void pack_b(const float* B, std::size_t ldb, bool trans, std::size_t p0,
            std::size_t p1, std::size_t n, std::size_t nr, float* Bp) {
  const std::size_t kc = p1 - p0;
  const std::size_t npanels = (n + nr - 1) / nr;
  par::parallel_for(0, npanels, 4, [&](std::size_t jb, std::size_t je) {
    for (std::size_t jp = jb; jp < je; ++jp) {
      const std::size_t j0 = jp * nr;
      pack_b_panel(B, ldb, trans, p0, p1, j0, std::min(nr, n - j0), nr,
                   Bp + jp * kc * nr);
    }
  });
}

// Where the micro-kernel reads one depth block of op(B), in panels 2L
// columns wide: full panel jp starts at full + jp * step with its rows ld
// floats apart (packed: step = kc * 2L, ld = 2L; in place: step = 2L,
// ld = ldb).  A partial last panel is always packed, rows 2L apart, at tail.
struct BPanels {
  const float* full;
  std::size_t step, ld;
  const float* tail;
};

// One depth block [p0, p1) of the packed product: what every row-panel
// chunk reads.
struct DepthBlock {
  bool trans_a;
  std::size_t m, n;
  float alpha;
  const float* A;
  std::size_t lda;
  std::size_t p0, p1;
  BPanels b;
  float* C;
};

// Row panels [rb, re) of one depth block: pack kMR rows of alpha * op(A),
// then run the kMR x (2 L) register-blocked micro-kernel over every B
// panel, on a GCC vector type of L floats.  Each output element gets the
// same arithmetic at every L: acc = 0, acc += (alpha a) b in depth order,
// then C += acc once; the build's -ffp-contract=off keeps the multiply and
// the add separate, so all instantiations produce the same bits.  Inlined
// into one function per ISA below, which compiles it at that ISA's width.
template <std::size_t L>
[[gnu::always_inline]] inline void row_panels(const DepthBlock& blk,
                                              std::size_t rb,
                                              std::size_t re) {
  using V [[gnu::vector_size(L * sizeof(float))]] = float;
  constexpr std::size_t kNR = 2 * L;
  const std::size_t kc = blk.p1 - blk.p0;
  const std::size_t nfull = blk.n / kNR;
  const std::size_t npanels = (blk.n + kNR - 1) / kNR;
  par::Scratch scratch;
  float* Ap = scratch.floats(kc * kMR);
  for (std::size_t rp = rb; rp < re; ++rp) {
    const std::size_t i0 = rp * kMR;
    const std::size_t mr = std::min(kMR, blk.m - i0);
    pack_a_panel(blk.A, blk.lda, blk.trans_a, blk.alpha, i0, blk.m, blk.p0,
                 blk.p1, Ap);
    for (std::size_t jp = 0; jp < npanels; ++jp) {
      const bool full = jp < nfull;
      const float* b = full ? blk.b.full + jp * blk.b.step : blk.b.tail;
      const std::size_t ld = full ? blk.b.ld : kNR;
      V acc[kMR][2] = {};
      for (std::size_t p = 0; p < kc; ++p) {
        V b0{}, b1{};
        std::memcpy(&b0, b + p * ld, sizeof(V));
        std::memcpy(&b1, b + p * ld + L, sizeof(V));
        const float* a = Ap + p * kMR;
        // Unrolled so the 8 accumulator vectors stay in registers.
#pragma GCC unroll 4
        for (std::size_t r = 0; r < kMR; ++r) {
          acc[r][0] += a[r] * b0;
          acc[r][1] += a[r] * b1;
        }
      }
      const std::size_t j0 = jp * kNR;
      for (std::size_t r = 0; r < mr; ++r) {
        float* crow = blk.C + (i0 + r) * blk.n + j0;
        if (full) {
          for (std::size_t v = 0; v < 2; ++v) {
            V c{};
            std::memcpy(&c, crow + v * L, sizeof(V));
            c += acc[r][v];
            std::memcpy(crow + v * L, &c, sizeof(V));
          }
        } else {
          float tile[kNR] = {};
          std::memcpy(tile, acc[r], sizeof(tile));
          for (std::size_t jr = 0; jr < blk.n - j0; ++jr) crow[jr] += tile[jr];
        }
      }
    }
  }
}

void row_panels_4(const DepthBlock& blk, std::size_t rb, std::size_t re) {
  row_panels<4>(blk, rb, re);
}
#ifdef MSA_GEMM_X86
[[gnu::target("avx2")]] void row_panels_8(const DepthBlock& blk,
                                          std::size_t rb, std::size_t re) {
  row_panels<8>(blk, rb, re);
}
[[gnu::target("avx512f")]] void row_panels_16(const DepthBlock& blk,
                                              std::size_t rb,
                                              std::size_t re) {
  row_panels<16>(blk, rb, re);
}
#endif

struct Kernel {
  std::size_t lanes;
  void (*row_panels)(const DepthBlock&, std::size_t, std::size_t);
};

// The instantiations this CPU runs, narrowest first; probed once per
// process.  Non-x86 builds have the portable one only.
const std::vector<Kernel>& kernels() {
  static const std::vector<Kernel> supported = [] {
    std::vector<Kernel> ks{{4, row_panels_4}};
#ifdef MSA_GEMM_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) ks.push_back({8, row_panels_8});
    if (__builtin_cpu_supports("avx512f")) ks.push_back({16, row_panels_16});
#endif
    return ks;
  }();
  return supported;
}

// Packed path: per depth block, pack op(B) (or, for at most kInPlaceMaxRows
// rows and an untransposed B, only its partial last panel) into a buffer
// from the calling thread's arena, then parallelise row panels of C across
// the pool.  Each chunk owns disjoint C rows and the depth-block order is
// fixed, so the result is bit-identical for any pool size.
void gemm_packed(const Kernel& kernel, bool trans_a, bool trans_b,
                 std::size_t m, std::size_t n, std::size_t k, float alpha,
                 const float* A, std::size_t lda, const float* B,
                 std::size_t ldb, float* C) {
  const std::size_t nr = 2 * kernel.lanes;
  const std::size_t nfull = n / nr;
  const std::size_t npanels = (n + nr - 1) / nr;
  const std::size_t nrow_panels = (m + kMR - 1) / kMR;
  const bool in_place = !trans_b && m <= detail::kInPlaceMaxRows;
  par::Scratch scratch;
  float* Bp = scratch.floats(std::min(kKC, k) * nr *
                             (in_place ? npanels - nfull : npanels));
  for (std::size_t p0 = 0; p0 < k; p0 += kKC) {
    const std::size_t p1 = std::min(k, p0 + kKC);
    const std::size_t kc = p1 - p0;
    if (!in_place) {
      pack_b(B, ldb, trans_b, p0, p1, n, nr, Bp);
    } else if (nfull < npanels) {
      pack_b_panel(B, ldb, false, p0, p1, nfull * nr, n - nfull * nr, nr, Bp);
    }
    const BPanels b = in_place
                          ? BPanels{B + p0 * ldb, nr, ldb, Bp}
                          : BPanels{Bp, kc * nr, nr, Bp + nfull * kc * nr};
    const DepthBlock blk{trans_a, m, n, alpha, A, lda, p0, p1, b, C};
    par::parallel_for(0, nrow_panels, 4, [&](std::size_t rb, std::size_t re) {
      kernel.row_panels(blk, rb, re);
    });
  }
}

}  // namespace

void gemm_raw(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
              std::size_t k, float alpha, const float* A, std::size_t lda,
              const float* B, std::size_t ldb, float beta, float* C) {
  obs::ScopedSpan span(obs::Category::Compute, "gemm", /*bytes=*/0,
                       static_cast<std::uint64_t>(gemm_flops(m, n, k)));
  scale_c(C, m * n, beta);
  if (m * n * k <= detail::kPackedThreshold) {
    gemm_scalar(trans_a, trans_b, m, n, k, alpha, A, lda, B, ldb, C);
  } else {
    gemm_packed(kernels().back(), trans_a, trans_b, m, n, k, alpha, A, lda,
                B, ldb, C);
  }
}

namespace detail {

std::vector<std::size_t> gemm_lanes_supported() {
  std::vector<std::size_t> lanes;
  for (const Kernel& k : kernels()) lanes.push_back(k.lanes);
  return lanes;
}

void gemm_packed_with_lanes(std::size_t lanes, bool trans_a, bool trans_b,
                            std::size_t m, std::size_t n, std::size_t k,
                            float alpha, const float* A, std::size_t lda,
                            const float* B, std::size_t ldb, float beta,
                            float* C) {
  for (const Kernel& kernel : kernels()) {
    if (kernel.lanes != lanes) continue;
    scale_c(C, m * n, beta);
    gemm_packed(kernel, trans_a, trans_b, m, n, k, alpha, A, lda, B, ldb, C);
    return;
  }
  throw std::invalid_argument("gemm_packed_with_lanes: no " +
                              std::to_string(lanes) +
                              "-lane kernel on this CPU");
}

}  // namespace detail

void gemm(bool trans_a, bool trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor& c) {
  if (a.ndim() != 2 || b.ndim() != 2 || c.ndim() != 2) {
    throw std::invalid_argument("gemm: all operands must be 2-D");
  }
  const std::size_t m = trans_a ? a.dim(1) : a.dim(0);
  const std::size_t k = trans_a ? a.dim(0) : a.dim(1);
  const std::size_t kb = trans_b ? b.dim(1) : b.dim(0);
  const std::size_t n = trans_b ? b.dim(0) : b.dim(1);
  if (k != kb || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("gemm: dimension mismatch");
  }
  gemm_raw(trans_a, trans_b, m, n, k, alpha, a.data(), a.dim(1), b.data(),
           b.dim(1), beta, c.data());
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c({a.dim(0), b.dim(1)});
  gemm(false, false, 1.0f, a, b, 0.0f, c);
  return c;
}

Tensor transpose(const Tensor& a) {
  if (a.ndim() != 2) throw std::invalid_argument("transpose: need 2-D");
  const std::size_t rows = a.dim(0), cols = a.dim(1);
  Tensor t({cols, rows});
  const float* src = a.data();
  float* dst = t.data();
  // Cache-blocked tile copy, parallel over source-row blocks (each block
  // writes a disjoint set of destination columns).
  constexpr std::size_t kTile = 32;
  const std::size_t row_blocks = (rows + kTile - 1) / kTile;
  par::parallel_for(0, row_blocks, 2, [&](std::size_t bb, std::size_t be) {
    for (std::size_t rb = bb; rb < be; ++rb) {
      const std::size_t i0 = rb * kTile;
      const std::size_t i1 = std::min(i0 + kTile, rows);
      for (std::size_t j0 = 0; j0 < cols; j0 += kTile) {
        const std::size_t j1 = std::min(j0 + kTile, cols);
        for (std::size_t i = i0; i < i1; ++i) {
          const float* srow = src + i * cols;
          for (std::size_t j = j0; j < j1; ++j) dst[j * rows + i] = srow[j];
        }
      }
    }
  });
  return t;
}

double gemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

std::size_t conv_out_size(std::size_t in, std::size_t kernel,
                          std::size_t stride, std::size_t pad) {
  if (stride == 0 || kernel == 0 || kernel > in + 2 * pad) {
    throw std::invalid_argument(
        "conv_out_size: kernel " + std::to_string(kernel) + " with stride " +
        std::to_string(stride) + " does not fit input " + std::to_string(in) +
        " padded by " + std::to_string(pad));
  }
  return (in + 2 * pad - kernel) / stride + 1;
}

void im2col(const float* input, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel_h, std::size_t kernel_w,
            std::size_t stride, std::size_t pad, float* columns) {
  const std::size_t out_h = conv_out_size(height, kernel_h, stride, pad);
  const std::size_t out_w = conv_out_size(width, kernel_w, stride, pad);
  const std::size_t out_hw = out_h * out_w;
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t kh = 0; kh < kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < kernel_w; ++kw, ++row) {
        float* col_row = columns + row * out_hw;
        for (std::size_t oh = 0; oh < out_h; ++oh) {
          const std::ptrdiff_t ih =
              static_cast<std::ptrdiff_t>(oh * stride + kh) -
              static_cast<std::ptrdiff_t>(pad);
          for (std::size_t ow = 0; ow < out_w; ++ow) {
            const std::ptrdiff_t iw =
                static_cast<std::ptrdiff_t>(ow * stride + kw) -
                static_cast<std::ptrdiff_t>(pad);
            const bool inside = ih >= 0 &&
                                ih < static_cast<std::ptrdiff_t>(height) &&
                                iw >= 0 &&
                                iw < static_cast<std::ptrdiff_t>(width);
            col_row[oh * out_w + ow] =
                inside ? input[(c * height + static_cast<std::size_t>(ih)) *
                                   width +
                               static_cast<std::size_t>(iw)]
                       : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const float* columns, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel_h, std::size_t kernel_w,
            std::size_t stride, std::size_t pad, float* input_grad) {
  const std::size_t out_h = conv_out_size(height, kernel_h, stride, pad);
  const std::size_t out_w = conv_out_size(width, kernel_w, stride, pad);
  const std::size_t out_hw = out_h * out_w;
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t kh = 0; kh < kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < kernel_w; ++kw, ++row) {
        const float* col_row = columns + row * out_hw;
        for (std::size_t oh = 0; oh < out_h; ++oh) {
          const std::ptrdiff_t ih =
              static_cast<std::ptrdiff_t>(oh * stride + kh) -
              static_cast<std::ptrdiff_t>(pad);
          if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(height)) continue;
          for (std::size_t ow = 0; ow < out_w; ++ow) {
            const std::ptrdiff_t iw =
                static_cast<std::ptrdiff_t>(ow * stride + kw) -
                static_cast<std::ptrdiff_t>(pad);
            if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(width)) continue;
            input_grad[(c * height + static_cast<std::size_t>(ih)) * width +
                       static_cast<std::size_t>(iw)] +=
                col_row[oh * out_w + ow];
          }
        }
      }
    }
  }
}

void softmax_rows(Tensor& logits) {
  if (logits.ndim() != 2) throw std::invalid_argument("softmax_rows: need 2-D");
  const std::size_t rows = logits.dim(0);
  const std::size_t cols = logits.dim(1);
  float* d = logits.data();
  par::parallel_for(0, rows, 16, [&](std::size_t rb, std::size_t re) {
    for (std::size_t r = rb; r < re; ++r) {
      float* row = d + r * cols;
      const float mx = *std::max_element(row, row + cols);
      float denom = 0.0f;
      for (std::size_t c = 0; c < cols; ++c) {
        row[c] = std::exp(row[c] - mx);
        denom += row[c];
      }
      const float inv = 1.0f / denom;
      for (std::size_t c = 0; c < cols; ++c) row[c] *= inv;
    }
  });
}

}  // namespace msa::tensor
