// Cache-line-aligned float buffers.
//
// The packed GEMM loads op(B) two SIMD vectors at a time: straight from the
// caller's tensor when it reads B in place, from a Scratch buffer when it
// packs.  Where that buffer starts within a 64-byte line decides whether
// those loads split lines.  Single-thread on a 4-core AVX-512 host, the
// in-place products of the serving and pipeline Dense layers took 6-19%
// longer with B starting 16, 32 or 48 bytes into a line.  The default
// allocator's offset changes from one allocation to the next (every run in
// serving, whose replicas rebuild their model per run; every process for a
// training slab), and the GEMM's speed changed with it.  Tensor storage and
// Scratch buffers therefore come from this allocator and start on a line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

namespace msa::par {

inline constexpr std::size_t kCacheLineBytes = 64;

/// std::allocator with every allocation starting on a cache line.
template <class T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() noexcept = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) noexcept {}

  // One line more than asked for, with the block's own address stored just
  // below the rounded-up start (the gap is 16 to 64 bytes, since operator
  // new returns 16-byte-aligned blocks).  Aligned operator new goes through
  // glibc's memalign instead, which frees the unused head of each block as
  // a small chunk; those chunks kept freed tensors from merging, and peak
  // RSS rose 47-72% on the training workloads.
  [[nodiscard]] T* allocate(std::size_t n) {
    void* block = ::operator new(n * sizeof(T) + kCacheLineBytes);
    const std::uintptr_t start =
        (reinterpret_cast<std::uintptr_t>(block) + kCacheLineBytes) &
        ~std::uintptr_t{kCacheLineBytes - 1};
    std::memcpy(reinterpret_cast<void*>(start - sizeof(void*)), &block,
                sizeof(void*));
    return reinterpret_cast<T*>(start);
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept {
    void* block = nullptr;
    std::memcpy(&block, reinterpret_cast<char*>(p) - sizeof(void*),
                sizeof(void*));
    ::operator delete(block);
  }

  friend bool operator==(const CacheLineAllocator& /*a*/,
                         const CacheLineAllocator& /*b*/) noexcept {
    return true;
  }
};

template <class T>
using CacheLineVector = std::vector<T, CacheLineAllocator<T>>;

}  // namespace msa::par
