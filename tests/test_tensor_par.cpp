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
#include <utility>
#include <vector>

#include "nn/conv.hpp"
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
// to the widest one, must too.
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
      {8, 512, 512}, {512, 512, 8}, {37, 65, 257}, {129, 33, 600}};
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
// kernel width and, where the shape takes the packed path there, gemm_raw,
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
          if (l == 0 && m * n * k <= detail::kPackedThreshold) continue;
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
