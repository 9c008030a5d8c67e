// Tests for the msa::par substrate and the packed multi-threaded GEMM /
// conv kernels built on it: correctness of all four GEMM transpose
// combinations against a naive reference on awkward (non-square, odd)
// sizes, and the determinism guarantee — bit-identical Conv2D results for
// MSA_THREADS=1 vs MSA_THREADS=8, bit-identical GEMM results from every
// SIMD micro-kernel instantiation the CPU runs, and bit-exact oracles for
// the transposing B pack and the in-place read of B.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nn/conv.hpp"
#include "nn/layers_basic.hpp"
#include "par/aligned.hpp"
#include "par/pool.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/ops.hpp"

namespace {

using msa::tensor::Rng;
using msa::tensor::Tensor;

// Naive triple-loop reference for C = alpha * op(A) * op(B) + beta * C.
Tensor reference_gemm(bool trans_a, bool trans_b, float alpha,
                      const Tensor& a, const Tensor& b, float beta,
                      const Tensor& c_in) {
  const std::size_t m = trans_a ? a.dim(1) : a.dim(0);
  const std::size_t k = trans_a ? a.dim(0) : a.dim(1);
  const std::size_t n = trans_b ? b.dim(0) : b.dim(1);
  Tensor c = c_in;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = trans_a ? a.at2(p, i) : a.at2(i, p);
        const float bv = trans_b ? b.at2(j, p) : b.at2(p, j);
        acc += static_cast<double>(av) * bv;
      }
      c.at2(i, j) = alpha * static_cast<float>(acc) + beta * c_in.at2(i, j);
    }
  }
  return c;
}

void check_gemm_case(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                     std::size_t k, float alpha, float beta) {
  Rng rng(1234);
  Tensor a = trans_a ? Tensor::randn({k, m}, rng) : Tensor::randn({m, k}, rng);
  Tensor b = trans_b ? Tensor::randn({n, k}, rng) : Tensor::randn({k, n}, rng);
  Tensor c = Tensor::randn({m, n}, rng);
  const Tensor expected = reference_gemm(trans_a, trans_b, alpha, a, b, beta, c);
  msa::tensor::gemm(trans_a, trans_b, alpha, a, b, beta, c);
  // Accumulation order differs from the reference; tolerance scales with k.
  const float tol = 1e-4f * std::sqrt(static_cast<float>(k)) + 1e-5f;
  for (std::size_t i = 0; i < c.numel(); ++i) {
    ASSERT_NEAR(c[i], expected[i], tol)
        << "trans_a=" << trans_a << " trans_b=" << trans_b << " m=" << m
        << " n=" << n << " k=" << k << " i=" << i;
  }
}

class ParGuard {
 public:
  ParGuard() : saved_(msa::par::num_threads()) {}
  ~ParGuard() { msa::par::set_num_threads(saved_); }

 private:
  std::size_t saved_;
};

TEST(TensorPar, GemmAllTransposeCombinationsOddSizes) {
  ParGuard guard;
  msa::par::set_num_threads(4);
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      // Small/odd (scalar path) and non-square larger (packed path) sizes.
      check_gemm_case(ta, tb, 33, 29, 17, 1.0f, 0.0f);
      check_gemm_case(ta, tb, 7, 5, 3, 1.3f, 0.7f);
      check_gemm_case(ta, tb, 129, 65, 127, 1.0f, 0.0f);
      check_gemm_case(ta, tb, 96, 160, 64, -0.5f, 1.0f);
    }
  }
}

TEST(TensorPar, GemmBitIdenticalAcrossThreadCounts) {
  ParGuard guard;
  Rng rng(7);
  const Tensor a = Tensor::randn({130, 70}, rng);
  const Tensor b = Tensor::randn({70, 90}, rng);
  Tensor c1({130, 90}), c8({130, 90});
  msa::par::set_num_threads(1);
  msa::tensor::gemm(false, false, 1.0f, a, b, 0.0f, c1);
  msa::par::set_num_threads(8);
  msa::tensor::gemm(false, false, 1.0f, a, b, 0.0f, c8);
  ASSERT_EQ(0, std::memcmp(c1.data(), c8.data(), c1.numel() * sizeof(float)));
}

// Every micro-kernel instantiation this CPU runs (4, 8 and 16 lanes on an
// AVX-512 host) must produce the 4-lane kernel's bits exactly: same
// per-element sequence, no fused multiply-add.  gemm_raw, which dispatches
// to the widest one, must too, also on the last three shapes, which it runs
// on its scalar kernel (m * n * k <= kPackedThreshold).
TEST(TensorPar, PackedGemmBitIdenticalAcrossIsas) {
  namespace detail = msa::tensor::detail;
  ParGuard guard;
  msa::par::set_num_threads(4);
  const std::vector<std::size_t> lanes = detail::gemm_lanes_supported();
  ASSERT_FALSE(lanes.empty());
  ASSERT_EQ(lanes.front(), 4u);
  struct Shape {
    std::size_t m, n, k;
  };
  const Shape shapes[] = {
      {8, 512, 512}, {512, 512, 8}, {37, 65, 257}, {129, 33, 600},
      {1, 10, 512},  {3, 7, 300},    {16, 8, 64}};
  const std::pair<float, float> alpha_beta[] = {
      {1.0f, 0.0f}, {-0.7f, 1.0f}, {1.3f, 0.3f}};
  Rng rng(99);
  for (const Shape& s : shapes) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        const Tensor a = Tensor::randn({s.m * s.k}, rng);
        const Tensor b = Tensor::randn({s.k * s.n}, rng);
        const Tensor c0 = Tensor::randn({s.m * s.n}, rng);
        const std::size_t lda = ta ? s.m : s.k;
        const std::size_t ldb = tb ? s.k : s.n;
        for (const auto& [alpha, beta] : alpha_beta) {
          // lanes == 0 runs the dispatching gemm_raw.
          auto run = [&](std::size_t l) {
            Tensor c = c0;
            if (l == 0) {
              msa::tensor::gemm_raw(ta, tb, s.m, s.n, s.k, alpha, a.data(),
                                    lda, b.data(), ldb, beta, c.data());
            } else {
              detail::gemm_packed_with_lanes(l, ta, tb, s.m, s.n, s.k, alpha,
                                             a.data(), lda, b.data(), ldb,
                                             beta, c.data());
            }
            return c;
          };
          const Tensor base = run(4);
          std::vector<std::size_t> variants(lanes.begin() + 1, lanes.end());
          variants.push_back(0);
          for (const std::size_t l : variants) {
            const Tensor c = run(l);
            EXPECT_EQ(0, std::memcmp(base.data(), c.data(),
                                     base.numel() * sizeof(float)))
                << "lanes=" << l << " m=" << s.m << " n=" << s.n
                << " k=" << s.k << " ta=" << ta << " tb=" << tb
                << " alpha=" << alpha << " beta=" << beta;
          }
        }
      }
    }
  }
  EXPECT_THROW(detail::gemm_packed_with_lanes(3, false, false, 1, 1, 1, 1.0f,
                                              nullptr, 1, nullptr, 1, 0.0f,
                                              nullptr),
               std::invalid_argument);
}

// One packed-GEMM call: the `lanes`-wide kernel, or gemm_raw when lanes == 0.
struct GemmCall {
  std::size_t lanes;
  float alpha, beta;
};

// One GEMM problem with op(A) (rows x k) and op(B) (k x n) each stored both
// ways: as given, and as tensor::transpose of it.  Stored rows carry NaN
// padding (3 floats for A, 7 for B, so an untransposed B has ldb = n + 7): a
// kernel that steps rows by the logical width instead of the leading
// dimension, or reads past a row's end, produces wrong bits.
class StoredGemm {
 public:
  StoredGemm(const Tensor& op_a, const Tensor& op_b, const Tensor& c)
      : rows_(op_a.dim(0)), n_(op_b.dim(1)), k_(op_a.dim(1)), c_(c) {
    store(op_a, 3, a_, lda_);
    store(op_b, 7, b_, ldb_);
  }

  // C = alpha op(A) op(B) + beta C.  Every (ta, tb) computes the same
  // product from differently stored operands.
  [[nodiscard]] std::vector<float> run(const GemmCall& call, bool ta,
                                       bool tb) const {
    std::vector<float> c(c_.data(), c_.data() + c_.numel());
    const float* a = a_[ta].data();
    const float* b = b_[tb].data();
    if (call.lanes == 0) {
      msa::tensor::gemm_raw(ta, tb, rows_, n_, k_, call.alpha, a, lda_[ta], b,
                            ldb_[tb], call.beta, c.data());
    } else {
      msa::tensor::detail::gemm_packed_with_lanes(
          call.lanes, ta, tb, rows_, n_, k_, call.alpha, a, lda_[ta], b,
          ldb_[tb], call.beta, c.data());
    }
    return c;
  }

 private:
  static void store(const Tensor& logical, std::size_t pad,
                    std::vector<float> (&out)[2], std::size_t (&ld)[2]) {
    const Tensor forms[2] = {logical, msa::tensor::transpose(logical)};
    for (std::size_t t = 0; t < 2; ++t) {
      const std::size_t r = forms[t].dim(0), w = forms[t].dim(1);
      ld[t] = w + pad;
      out[t].assign(r * ld[t], std::numeric_limits<float>::quiet_NaN());
      for (std::size_t i = 0; i < r; ++i) {
        std::copy(forms[t].data() + i * w, forms[t].data() + (i + 1) * w,
                  out[t].data() + i * ld[t]);
      }
    }
  }

  std::size_t rows_, n_, k_;
  Tensor c_;
  std::vector<float> a_[2], b_[2];
  std::size_t lda_[2], ldb_[2];
};

// The skinny shapes the oracle tests sweep: m on both sides of the in-place
// cutoff; n with and without a partial last panel at every width (and, at
// 8 and 16 lanes, a partial panel alone); k over one to three 256-deep
// blocks, with and without a depth tail narrower than the 4 x 4 transpose.
// fn(m, n, k, calls, rng) gets the calls to check for the shape: every
// kernel width and gemm_raw (on its scalar kernel for the smallest shapes),
// each with three (alpha, beta) pairs.
template <typename Fn>
void for_each_skinny_shape(Fn fn) {
  namespace detail = msa::tensor::detail;
  std::vector<std::size_t> lanes = detail::gemm_lanes_supported();
  lanes.push_back(0);
  const std::pair<float, float> alpha_beta[] = {
      {1.0f, 0.0f}, {-0.7f, 1.0f}, {1.3f, 0.3f}};
  Rng rng(2024);
  for (const std::size_t m :
       {std::size_t{1}, std::size_t{3}, std::size_t{8},
        detail::kInPlaceMaxRows, detail::kInPlaceMaxRows + 1}) {
    for (const std::size_t n : {8, 31, 64, 65, 513}) {
      for (const std::size_t k : {3, 255, 257, 600}) {
        std::vector<GemmCall> calls;
        for (const std::size_t l : lanes) {
          for (const auto& [alpha, beta] : alpha_beta) {
            calls.push_back({l, alpha, beta});
          }
        }
        fn(m, n, k, calls, rng);
      }
    }
  }
}

// Oracle for the transposing B pack (and the A pack): a transposed operand
// must give the bits of the untransposed call on its tensor::transpose copy.
TEST(TensorPar, PackedGemmTransposeMatchesTransposedCopy) {
  ParGuard guard;
  msa::par::set_num_threads(4);
  for_each_skinny_shape([](std::size_t m, std::size_t n, std::size_t k,
                           const std::vector<GemmCall>& calls, Rng& rng) {
    const StoredGemm g(Tensor::randn({m, k}, rng), Tensor::randn({k, n}, rng),
                       Tensor::randn({m, n}, rng));
    for (const GemmCall& call : calls) {
      const std::vector<float> base = g.run(call, false, false);
      for (const auto& [ta, tb] : {std::pair{false, true},
                                   std::pair{true, false},
                                   std::pair{true, true}}) {
        const std::vector<float> c = g.run(call, ta, tb);
        EXPECT_EQ(0, std::memcmp(base.data(), c.data(),
                                 base.size() * sizeof(float)))
            << "lanes=" << call.lanes << " m=" << m << " n=" << n
            << " k=" << k << " ta=" << ta << " tb=" << tb
            << " beta=" << call.beta;
      }
    }
  });
}

// Oracle for reading B in place: a call with at most kInPlaceMaxRows rows
// must give the bits of the first m rows of the same call with op(A) padded
// to kInPlaceMaxRows + 4 rows, which packs B.
TEST(TensorPar, PackedGemmSkinnyMatchesPaddedRows) {
  namespace detail = msa::tensor::detail;
  ParGuard guard;
  msa::par::set_num_threads(4);
  const std::size_t padded_rows = detail::kInPlaceMaxRows + 4;
  for_each_skinny_shape([&](std::size_t m, std::size_t n, std::size_t k,
                            const std::vector<GemmCall>& calls, Rng& rng) {
    const Tensor a = Tensor::randn({padded_rows, k}, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    const Tensor c = Tensor::randn({padded_rows, n}, rng);
    auto top_rows = [m](const Tensor& t) {
      return Tensor({m, t.dim(1)},
                    std::vector<float>(t.data(), t.data() + m * t.dim(1)));
    };
    const StoredGemm tall(a, b, c);
    const StoredGemm skinny(top_rows(a), b, top_rows(c));
    for (const GemmCall& call : calls) {
      for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
          const std::vector<float> want = tall.run(call, ta, tb);
          const std::vector<float> got = skinny.run(call, ta, tb);
          EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                   got.size() * sizeof(float)))
              << "lanes=" << call.lanes << " m=" << m << " n=" << n
              << " k=" << k << " ta=" << ta << " tb=" << tb
              << " beta=" << call.beta;
        }
      }
    }
  });
}

// A row's output must not depend on how many rows share the call: alone it
// runs gemm_raw's scalar kernel, inside a 64-row batch the packed one, and
// both fan-ins are deeper than one 256-deep block.
TEST(TensorPar, DenseRowAloneMatchesRowInBatch) {
  ParGuard guard;
  msa::par::set_num_threads(4);
  for (const auto& [in, out] : {std::pair<std::size_t, std::size_t>{300, 64},
                                std::pair<std::size_t, std::size_t>{512, 10}}) {
    Rng rng(in);
    msa::nn::Dense dense(in, out, rng);
    const Tensor batch = Tensor::randn({64, in}, rng);
    const Tensor y = dense.forward(batch, false);
    for (std::size_t r = 0; r < batch.dim(0); ++r) {
      const float* xr = batch.data() + r * in;
      const Tensor row({1, in}, std::vector<float>(xr, xr + in));
      const Tensor yr = dense.forward(row, false);
      EXPECT_EQ(0, std::memcmp(yr.data(), y.data() + r * out,
                               out * sizeof(float)))
          << "fan-in " << in << " row " << r;
    }
  }
}

TEST(TensorPar, TransposeMatchesNaive) {
  ParGuard guard;
  msa::par::set_num_threads(4);
  Rng rng(5);
  const Tensor a = Tensor::randn({67, 45}, rng);
  const Tensor t = msa::tensor::transpose(a);
  ASSERT_EQ(t.dim(0), 45u);
  ASSERT_EQ(t.dim(1), 67u);
  for (std::size_t i = 0; i < a.dim(0); ++i) {
    for (std::size_t j = 0; j < a.dim(1); ++j) {
      ASSERT_EQ(a.at2(i, j), t.at2(j, i));
    }
  }
}

// Runs one Conv2D forward + backward with a fixed seed and returns all
// observable outputs (y, gx, gw, gb) concatenated.
std::vector<float> conv_run(std::size_t threads) {
  msa::par::set_num_threads(threads);
  Rng wrng(42);
  msa::nn::Conv2D conv(3, 8, 3, 1, 1, wrng);
  Rng xrng(77);
  const Tensor x = Tensor::randn({5, 3, 13, 11}, xrng);
  const Tensor y = conv.forward(x, true);
  Rng grng(99);
  const Tensor g = Tensor::randn(y.shape(), grng);
  const Tensor gx = conv.backward(g);
  std::vector<float> out;
  auto append = [&out](const Tensor& t) {
    out.insert(out.end(), t.data(), t.data() + t.numel());
  };
  append(y);
  append(gx);
  for (const Tensor* grad : conv.grads()) append(*grad);
  return out;
}

TEST(TensorPar, Conv2DBitIdenticalAcrossThreadCounts) {
  ParGuard guard;
  const std::vector<float> r1 = conv_run(1);
  const std::vector<float> r8 = conv_run(8);
  ASSERT_EQ(r1.size(), r8.size());
  ASSERT_EQ(0,
            std::memcmp(r1.data(), r8.data(), r1.size() * sizeof(float)));
}

// One Conv2D layer shape and its input plane.
struct ConvGeom {
  std::size_t in_ch, out_ch, k, stride, pad, h, w;
  bool bias;
};

struct ConvResult {
  std::vector<float> y, gx, gw, gb;
};

// fn(column index, input index) for every column entry that reads the
// input, in im2col's row-major (c, kh, kw, oh, ow) order.
template <typename Fn>
void for_each_tap(const ConvGeom& g, std::size_t oh, std::size_t ow, Fn fn) {
  std::size_t ci = 0;
  for (std::size_t c = 0; c < g.in_ch; ++c) {
    for (std::size_t kh = 0; kh < g.k; ++kh) {
      for (std::size_t kw = 0; kw < g.k; ++kw) {
        for (std::size_t y = 0; y < oh; ++y) {
          for (std::size_t x = 0; x < ow; ++x, ++ci) {
            const std::size_t ih = y * g.stride + kh, iw = x * g.stride + kw;
            if (ih < g.pad || ih - g.pad >= g.h || iw < g.pad ||
                iw - g.pad >= g.w) {
              continue;
            }
            fn(ci, (c * g.h + ih - g.pad) * g.w + iw - g.pad);
          }
        }
      }
    }
  }
}

// Per-sample reference for Conv2D: one element-by-element im2col and three
// gemm_raw calls per sample (forward, weight gradient, input gradient), the
// weight/bias gradients summed into ceil(B / 8)-sample chunk partials that
// are then reduced in chunk order.  The layer batches samples into shared
// column matrices and shifts whole planes; it must give these bits.
ConvResult reference_conv(const ConvGeom& g, const Tensor& w, const Tensor& b,
                          const Tensor& x, const Tensor& gy) {
  using msa::tensor::gemm_raw;
  const std::size_t B = x.dim(0), chw = g.in_ch * g.h * g.w;
  const std::size_t oh = gy.dim(2), ow = gy.dim(3), ohw = oh * ow;
  const std::size_t rows = g.in_ch * g.k * g.k, wsize = w.numel();
  const std::size_t grain = (B + 7) / 8, nchunks = (B + grain - 1) / grain;
  ConvResult r{std::vector<float>(B * g.out_ch * ohw),
               std::vector<float>(x.numel(), 0.0f),
               std::vector<float>(wsize, 0.0f),
               std::vector<float>(g.out_ch, 0.0f)};
  std::vector<float> gw_part(nchunks * wsize, 0.0f);
  std::vector<float> gb_part(nchunks * g.out_ch, 0.0f);
  std::vector<float> cols(rows * ohw), gcols(rows * ohw);
  for (std::size_t s = 0; s < B; ++s) {
    const std::size_t chunk = s / grain;
    std::fill(cols.begin(), cols.end(), 0.0f);
    for_each_tap(g, oh, ow, [&](std::size_t ci, std::size_t ii) {
      cols[ci] = x[s * chw + ii];
    });
    float* y_s = r.y.data() + s * g.out_ch * ohw;
    gemm_raw(false, false, g.out_ch, ohw, rows, 1.0f, w.data(), rows,
             cols.data(), ohw, 0.0f, y_s);
    for (std::size_t i = 0; i < g.out_ch * ohw; ++i) {
      y_s[i] += g.bias ? b[i / ohw] : 0.0f;
    }
    const float* g_s = gy.data() + s * g.out_ch * ohw;
    gemm_raw(false, true, g.out_ch, rows, ohw, 1.0f, g_s, ohw, cols.data(),
             ohw, 1.0f, gw_part.data() + chunk * wsize);
    for (std::size_t i = 0; i < g.out_ch * ohw; ++i) {
      gb_part[chunk * g.out_ch + i / ohw] += g_s[i];
    }
    gemm_raw(true, false, rows, ohw, g.out_ch, 1.0f, w.data(), rows, g_s,
             ohw, 0.0f, gcols.data());
    for_each_tap(g, oh, ow, [&](std::size_t ci, std::size_t ii) {
      r.gx[s * chw + ii] += gcols[ci];
    });
  }
  for (std::size_t c = 0; c < nchunks; ++c) {
    for (std::size_t i = 0; i < wsize; ++i) r.gw[i] += gw_part[c * wsize + i];
    for (std::size_t i = 0; i < g.out_ch; ++i) {
      r.gb[i] += gb_part[c * g.out_ch + i];
    }
  }
  return r;
}

TEST(TensorPar, Conv2DMatchesPerSampleReference) {
  ParGuard guard;
  const ConvGeom geoms[] = {
      {3, 8, 3, 1, 1, 9, 9, true},      // 3x3 s1 p1: shifted planes
      {3, 8, 3, 2, 1, 9, 9, false},     // 3x3 s2 p1
      {4, 6, 1, 2, 0, 8, 8, true},      // 1x1 s2
      {4, 6, 1, 1, 0, 5, 5, false},     // 1x1 s1: a shift by (0, 0)
      {2, 5, 5, 2, 2, 9, 9, true},      // 5x5 s2 p2
      {3, 4, 3, 1, 2, 6, 6, false},     // 3x3 p2: output wider than input
      {3, 8, 3, 1, 1, 7, 12, true},     // H != W, shifted
      {2, 4, 3, 2, 1, 7, 10, false},    // H != W, strided
      {32, 16, 3, 1, 1, 4, 4, false},   // 4x4, k = 288 > 256
      {64, 8, 3, 1, 1, 2, 2, true},     // 2x2, k = 576
      {16, 16, 3, 1, 1, 16, 16, false}, // 3 samples per group at B = 64
      {8, 4, 5, 1, 2, 32, 32, true},    // one sample per group
  };
  for (const std::size_t threads : {1, 4}) {
    msa::par::set_num_threads(threads);
    for (const ConvGeom& g : geoms) {
      for (const std::size_t B : {1, 3, 16, 17, 64}) {
        Rng rng(g.in_ch * 131 + g.k * 17 + B);
        msa::nn::Conv2D conv(g.in_ch, g.out_ch, g.k, g.stride, g.pad, rng,
                             g.bias);
        // A nonzero bias, so a bias added twice or not at all shows.
        if (g.bias) *conv.params()[1] = Tensor::randn({g.out_ch}, rng);
        const Tensor x = Tensor::randn({B, g.in_ch, g.h, g.w}, rng);
        const Tensor y = conv.forward(x, true);
        const Tensor gy = Tensor::randn(y.shape(), rng);
        const Tensor gx = conv.backward(gy);
        const ConvResult want = reference_conv(
            g, *conv.params()[0], g.bias ? *conv.params()[1] : Tensor(), x, gy);
        const auto same = [](const std::vector<float>& a, const Tensor& t) {
          return a.size() == t.numel() &&
                 std::memcmp(a.data(), t.data(), a.size() * sizeof(float)) == 0;
        };
        const std::vector<Tensor*> grads = conv.grads();
        const std::string where =
            "in_ch " + std::to_string(g.in_ch) + " k " + std::to_string(g.k) +
            " stride " + std::to_string(g.stride) + " pad " +
            std::to_string(g.pad) + " " + std::to_string(g.h) + "x" +
            std::to_string(g.w) + " B " + std::to_string(B) + " threads " +
            std::to_string(threads);
        EXPECT_TRUE(same(want.y, y)) << "y, " << where;
        EXPECT_TRUE(same(want.gx, gx)) << "gx, " << where;
        EXPECT_TRUE(same(want.gw, *grads[0])) << "gw, " << where;
        if (g.bias) {
          EXPECT_TRUE(same(want.gb, *grads[1])) << "gb, " << where;
        }
      }
    }
  }
}

TEST(TensorPar, TensorAndScratchBuffersStartOnCacheLines) {
  auto line_offset = [](const float* p) {
    return reinterpret_cast<std::uintptr_t>(p) % msa::par::kCacheLineBytes;
  };
  // Interleaved odd sizes: a 16-byte-aligned allocator would start some of
  // these mid-line.
  std::vector<Tensor> tensors;
  for (std::size_t n = 1; n <= 67; n += 3) {
    tensors.emplace_back(msa::tensor::Shape{n, 5});
    tensors.emplace_back(msa::tensor::Shape{n}, std::vector<float>(n, 1.0f));
    tensors.push_back(tensors.back());
  }
  for (const Tensor& t : tensors) EXPECT_EQ(0u, line_offset(t.data()));
  msa::par::Scratch scratch;
  for (std::size_t n = 1; n <= 67; n += 3) {
    EXPECT_EQ(0u, line_offset(scratch.floats(n))) << n;
  }
}

TEST(TensorPar, ParallelForCoversRangeOnce) {
  ParGuard guard;
  msa::par::set_num_threads(8);
  std::vector<int> hits(10001, 0);
  msa::par::parallel_for(0, hits.size(), 37,
                         [&](std::size_t b, std::size_t e) {
                           for (std::size_t i = b; i < e; ++i) ++hits[i];
                         });
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(1, hits[i]) << i;
}

TEST(TensorPar, ChunkDecompositionIndependentOfThreads) {
  ParGuard guard;
  auto chunks_of = [](std::size_t threads) {
    msa::par::set_num_threads(threads);
    std::vector<std::vector<std::size_t>> chunks(
        msa::par::chunk_count(0, 23, 5));
    msa::par::parallel_for_chunked(
        0, 23, 5, [&](std::size_t c, std::size_t b, std::size_t e) {
          chunks[c] = {b, e};
        });
    return chunks;
  };
  ASSERT_EQ(chunks_of(1), chunks_of(8));
}

TEST(TensorPar, NestedParallelForRunsInline) {
  ParGuard guard;
  msa::par::set_num_threads(4);
  std::vector<int> hits(256, 0);
  msa::par::parallel_for(0, 16, 1, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      msa::par::parallel_for(0, 16, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ++hits[o * 16 + i];
      });
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(1, hits[i]) << i;
}

}  // namespace
