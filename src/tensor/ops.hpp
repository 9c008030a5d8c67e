// Dense kernels: packed multi-threaded GEMM, blocked transpose,
// im2col/col2im, row softmax.
//
// These are the computational core under every DL layer in msa_nn.  GEMM
// packs op(A) into 4-row micro-panels (transpose and alpha folded into the
// packing) and runs a branch-free 4 x 2-vector register-blocked
// micro-kernel over panels of op(B) two SIMD vectors wide, parallelised
// over row panels on the msa::par pool.  For at most 16 rows of C and an
// untransposed B the kernel reads B in place (only a partial last panel is
// packed); otherwise op(B) is packed into a per-thread arena buffer, a
// transposed B in 4 x 4 tiles moved through registers.  The vector width is
// the widest the CPU runs (4, 8 or 16 floats: SSE2, AVX2, AVX-512F), picked
// once per process; every width computes the same bits.  Rows of C are
// disjoint across chunks and the k-blocking order is fixed, so results are
// bit-identical for every MSA_THREADS setting.  Small problems fall back to
// a serial cache-blocked scalar kernel (also branch-free).
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace msa::tensor {

/// C = alpha * op(A) * op(B) + beta * C
/// A is (M x K) after optional transpose, B is (K x N), C is (M x N).
void gemm(bool trans_a, bool trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor& c);

/// Raw-pointer gemm on row-major buffers: C (m x n, leading dim n) =
/// alpha * op(A) * op(B) + beta * C, where lda/ldb are the leading
/// dimensions of A and B *as stored* (before the logical transpose).
/// Lets layers run GEMM on scratch-arena buffers without wrapping them in
/// Tensors.
void gemm_raw(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
              std::size_t k, float alpha, const float* A, std::size_t lda,
              const float* B, std::size_t ldb, float beta, float* C);

/// Convenience: returns A * B for 2-D tensors.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// Cache-blocked 2-D transpose.
[[nodiscard]] Tensor transpose(const Tensor& a);

/// Flop count of a gemm with these dimensions (for simulated-time charging).
[[nodiscard]] double gemm_flops(std::size_t m, std::size_t n, std::size_t k);

/// im2col for NCHW input: input (C, H, W) -> columns
/// (C*kh*kw, out_h*out_w) with given stride and symmetric zero padding.
void im2col(const float* input, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel_h, std::size_t kernel_w,
            std::size_t stride, std::size_t pad, float* columns);

/// Adjoint of im2col (accumulates into input gradient).
void col2im(const float* columns, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel_h, std::size_t kernel_w,
            std::size_t stride, std::size_t pad, float* input_grad);

/// Output spatial size for a conv/pool dimension.  Throws
/// std::invalid_argument when stride or kernel is 0, or when the kernel is
/// wider than the padded input.
[[nodiscard]] std::size_t conv_out_size(std::size_t in, std::size_t kernel,
                                        std::size_t stride, std::size_t pad);

/// Numerically-stable softmax over the last dimension of a 2-D tensor,
/// in place.
void softmax_rows(Tensor& logits);

}  // namespace msa::tensor
