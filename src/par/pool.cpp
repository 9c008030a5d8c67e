#include "par/pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "par/aligned.hpp"

namespace msa::par {

namespace {

std::size_t default_pool_size() {
  if (const char* env = std::getenv("MSA_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// Depth of parallel regions the current thread is inside (worker chunk
// execution or caller participation).  Nested parallel_for runs inline.
thread_local int t_parallel_depth = 0;

class Pool {
 public:
  static Pool& instance() {
    static Pool pool(default_pool_size());
    return pool;
  }

  ~Pool() { shutdown(); }

  [[nodiscard]] std::size_t size() const { return n_threads_; }

  void resize(std::size_t n) {
    n = std::max<std::size_t>(1, n);
    if (n == n_threads_) return;
    shutdown();
    start(n);
  }

  // One job at a time; returns false if another thread holds the pool (the
  // caller then runs the job inline).
  bool try_acquire() {
    bool expected = false;
    return busy_.compare_exchange_strong(expected, true);
  }
  void release() { busy_.store(false); }

  // Run fn(c) for every c in [0, nchunks) across the workers plus the
  // calling thread.  Pool must have been acquired via try_acquire().
  void run(std::size_t nchunks,
           const std::function<void(std::size_t)>& fn) {
    {
      std::lock_guard<std::mutex> lk(m_);
      job_ = &fn;
      njob_ = nchunks;
      next_.store(0, std::memory_order_relaxed);
      completed_ = 0;
      ++epoch_;
    }
    cv_.notify_all();
    work(fn, nchunks);
    // Wait until every chunk ran AND no worker still holds the job pointer
    // — only then is it safe to destroy fn (and for the next job to reuse
    // next_/completed_).  Workers that wake after this see job_ == nullptr.
    std::unique_lock<std::mutex> lk(m_);
    done_cv_.wait(lk, [&] { return completed_ == njob_ && n_working_ == 0; });
    job_ = nullptr;
  }

 private:
  explicit Pool(std::size_t n) { start(n); }

  void start(std::size_t n) {
    n_threads_ = n;
    stop_ = false;
    workers_.reserve(n - 1);
    for (std::size_t t = 0; t + 1 < n; ++t) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
  }

  void work(const std::function<void(std::size_t)>& fn, std::size_t nchunks) {
    ++t_parallel_depth;
    for (;;) {
      const std::size_t c = next_.fetch_add(1, std::memory_order_relaxed);
      if (c >= nchunks) break;
      fn(c);
      std::lock_guard<std::mutex> lk(m_);
      if (++completed_ == njob_) done_cv_.notify_all();
    }
    --t_parallel_depth;
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* job;
      std::size_t njob;
      {
        std::unique_lock<std::mutex> lk(m_);
        cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
        if (stop_) return;
        seen = epoch_;
        job = job_;
        njob = njob_;
        if (job == nullptr) continue;  // woke after the job already finished
        ++n_working_;  // under m_: the caller now waits for us to leave
      }
      work(*job, njob);
      {
        std::lock_guard<std::mutex> lk(m_);
        --n_working_;
      }
      done_cv_.notify_all();
    }
  }

  std::size_t n_threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex m_;
  std::condition_variable cv_, done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t njob_ = 0;
  std::size_t completed_ = 0;
  std::size_t n_working_ = 0;  // workers currently inside job_
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> busy_{false};
};

// ---- scratch arena -----------------------------------------------------------

struct ThreadArena {
  std::vector<CacheLineVector<float>> slots;
  std::size_t next = 0;
};
thread_local ThreadArena t_arena;

}  // namespace

std::size_t num_threads() { return Pool::instance().size(); }

void set_num_threads(std::size_t n) { Pool::instance().resize(n); }

std::size_t chunk_count(std::size_t begin, std::size_t end,
                        std::size_t grain) {
  if (end <= begin) return 0;
  const std::size_t n = end - begin;
  const std::size_t g = std::max<std::size_t>(1, grain);
  return (n + g - 1) / g;
}

void parallel_for_chunked(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  const std::size_t nchunks = chunk_count(begin, end, grain);
  if (nchunks == 0) return;
  const std::size_t g = std::max<std::size_t>(1, grain);
  auto run_chunk = [&](std::size_t c) {
    const std::size_t cb = begin + c * g;
    fn(c, cb, std::min(end, cb + g));
  };
  Pool& pool = Pool::instance();
  if (nchunks == 1 || pool.size() == 1 || t_parallel_depth > 0 ||
      !pool.try_acquire()) {
    // Serial fallback keeps the exact same chunk decomposition, so callers
    // using per-chunk partials get bit-identical results.
    ++t_parallel_depth;
    for (std::size_t c = 0; c < nchunks; ++c) run_chunk(c);
    --t_parallel_depth;
    return;
  }
  pool.run(nchunks, run_chunk);
  pool.release();
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for_chunked(begin, end, grain,
                       [&](std::size_t, std::size_t b, std::size_t e) {
                         fn(b, e);
                       });
}

Scratch::Scratch() : mark_(t_arena.next) {}

Scratch::~Scratch() { t_arena.next = mark_; }

float* Scratch::floats(std::size_t n) {
  ThreadArena& a = t_arena;
  if (a.next == a.slots.size()) a.slots.emplace_back();
  CacheLineVector<float>& buf = a.slots[a.next++];
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

}  // namespace msa::par
