// Test seam for the packed GEMM's per-ISA micro-kernels.  Not part of the
// tensor API: ops.hpp does not include this header, and gemm_raw always runs
// the widest instantiation the CPU supports.  Every instantiation computes
// the same bits; tests use this seam to check that on each one.
#pragma once

#include <cstddef>
#include <vector>

namespace msa::tensor::detail {

/// gemm_raw runs the packed path above this many multiply-adds (m * n * k);
/// below it packing costs more than it saves and a serial scalar kernel
/// runs instead.
inline constexpr std::size_t kPackedThreshold = 48 * 48 * 48;

/// Up to this many rows of C, the packed path reads an untransposed B in
/// place, row stride ldb, and packs only a partial last panel.  That is four
/// 4-row panels, one chunk of the row-panel loop: each B panel feeds at most
/// four micro-kernel passes on one thread, too few to repay copying it.
/// Measured single-thread on a 4-core AVX-512 host at k = 256 and 512:
/// for m <= 16, in place was 1.1-2.7x faster at n <= 1024, and from 13%
/// slower (m = 12-16) to 2.2x faster (m = 4) at n = 2048-4096, where B rows
/// 8 KB or more apart alias in cache.  At m = 32 it took 1.4x as long at
/// n = 2048, and at m = 48 it lost at every n.
inline constexpr std::size_t kInPlaceMaxRows = 16;

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
