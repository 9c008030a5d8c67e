// Shared parallel-execution layer: a fixed-size thread pool with chunked
// parallel_for scheduling and per-thread scratch arenas.
//
// Every numeric hot path in the repository (GEMM, conv, elementwise layer
// and optimizer loops) runs on this substrate.  Design constraints, in
// order of priority:
//
//  1. *Determinism*: results must be bit-identical regardless of the pool
//     size.  parallel_for therefore decomposes a range into chunks whose
//     boundaries depend only on (begin, end, grain) — never on the thread
//     count — and callers either write disjoint outputs per chunk or
//     accumulate into per-chunk partials that are reduced in chunk order.
//  2. *Safety under foreign threads*: the comm runtime runs ranks on their
//     own threads, each of which may enter a numeric kernel concurrently.
//     The pool admits one parallel job at a time; any contending or nested
//     parallel_for simply runs inline on the calling thread, which is
//     always correct because of (1).
//  3. *No per-call allocation*: worker-side temporaries come from a
//     per-thread arena (Scratch) whose buffers persist across jobs.
//
// Pool size comes from the MSA_THREADS environment variable when set,
// otherwise std::thread::hardware_concurrency().  The calling thread
// always participates as worker 0, so MSA_THREADS=1 means "no extra
// threads, run everything inline".
#pragma once

#include <cstddef>
#include <functional>
#include <span>

namespace msa::par {

/// Number of threads the pool executes with (>= 1, caller included).
[[nodiscard]] std::size_t num_threads();

/// Resize the pool (joins existing workers, spawns n-1 new ones).  Intended
/// for tests and benchmarks; must not be called from inside a parallel
/// region.  n is clamped to >= 1.
void set_num_threads(std::size_t n);

/// Number of chunks parallel_for decomposes [begin, end) into with the
/// given grain.  Depends only on the arguments, never on the pool size.
[[nodiscard]] std::size_t chunk_count(std::size_t begin, std::size_t end,
                                      std::size_t grain);

/// Chunked parallel loop: fn(chunk_begin, chunk_end) is invoked once per
/// chunk of at most `grain` consecutive indices of [begin, end).  Chunks
/// may run on any thread in any order, so fn must write disjoint outputs.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn);

/// As parallel_for, but fn also receives the chunk index c in
/// [0, chunk_count(begin, end, grain)).  Use the index to accumulate into
/// per-chunk partial buffers; reducing those partials in index order gives
/// results that are bit-identical for every pool size.
void parallel_for_chunked(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Per-thread scratch arena scope.  floats(n) hands out a buffer of at
/// least n floats from the calling thread's arena; the buffers stay valid
/// until this Scratch is destroyed, at which point they are recycled for
/// the next scope on the same thread.  Scopes nest (a kernel called from a
/// parallel chunk may open its own).  Every buffer starts on a 64-byte
/// cache line; contents are uninitialised.  A buffer is never handed to
/// another thread's arena; the owner may lend it to the chunks of a
/// parallel_for it runs within the scope, which all finish before
/// parallel_for returns.
class Scratch {
 public:
  Scratch();
  ~Scratch();
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  [[nodiscard]] float* floats(std::size_t n);
  [[nodiscard]] std::span<float> span(std::size_t n) { return {floats(n), n}; }

 private:
  std::size_t mark_;
};

}  // namespace msa::par
