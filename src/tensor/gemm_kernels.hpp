// Test seam for the packed GEMM's per-ISA micro-kernels.  Not part of the
// tensor API: ops.hpp does not include this header, and gemm_raw always runs
// the widest instantiation the CPU supports.  Every instantiation computes
// the same bits; tests use this seam to check that on each one.
#pragma once

#include <cstddef>
#include <vector>

namespace msa::tensor::detail {

/// Vector widths, in floats, of the packed-GEMM micro-kernel instantiations
/// this CPU runs, narrowest first: 4 always, 8 with AVX2, 16 with AVX-512F
/// (x86 only).
[[nodiscard]] std::vector<std::size_t> gemm_lanes_supported();

/// gemm_raw through the packed path at any size, run by the `lanes`-wide
/// instantiation.  Throws std::invalid_argument if this CPU has none.
void gemm_packed_with_lanes(std::size_t lanes, bool trans_a, bool trans_b,
                            std::size_t m, std::size_t n, std::size_t k,
                            float alpha, const float* A, std::size_t lda,
                            const float* B, std::size_t ldb, float beta,
                            float* C);

}  // namespace msa::tensor::detail
