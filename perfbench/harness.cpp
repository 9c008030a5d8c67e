#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return v[std::min(rank, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

FastBlocks fastest_blocks(const std::vector<double>& marks,
                          const std::vector<double>& items,
                          const std::vector<double>& step_ms, std::size_t block,
                          double share) {
  std::vector<std::pair<double, std::size_t>> blocks;  // (wall s, first step)
  for (std::size_t b = 0; b + block <= items.size() && b + block < marks.size();
       b += block) {
    blocks.emplace_back(marks[b + block] - marks[b], b);
  }
  std::sort(blocks.begin(), blocks.end());
  const auto kept = static_cast<std::size_t>(
      std::ceil(share * static_cast<double>(blocks.size())));
  blocks.resize(std::min(blocks.size(), std::max<std::size_t>(kept, 1)));
  FastBlocks out;
  std::vector<double> rates;
  for (const auto& [dt, b] : blocks) {
    double n = 0.0;
    for (std::size_t i = b; i < b + block; ++i) {
      n += items[i];
      out.step_ms.push_back(step_ms[i]);
    }
    if (dt > 0.0) rates.push_back(n / dt);
  }
  out.items_per_s = median(rates);
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

RunTiming timed_run(msa::comm::Runtime& rt,
                    const std::function<void(msa::comm::Comm&)>& body) {
  const auto P = static_cast<std::size_t>(rt.ranks());
  std::vector<double> begin(P, 0.0), end(P, 0.0);
  // Bind rank r to the r-th usable core, as an MPI launcher binds ranks:
  // every run then places its ranks the same way.
  cpu_set_t usable;
  CPU_ZERO(&usable);
  std::vector<int> cores;
  if (sched_getaffinity(0, sizeof usable, &usable) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &usable)) cores.push_back(c);
    }
  }
  const double t0 = now_s();
  rt.run([&](msa::comm::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    if (!cores.empty()) {
      cpu_set_t mine;
      CPU_ZERO(&mine);
      CPU_SET(cores[r % cores.size()], &mine);
      pthread_setaffinity_np(pthread_self(), sizeof mine, &mine);
    }
    begin[r] = now_s();
    body(comm);
    end[r] = now_s();
  });
  const double t1 = now_s();
  const double first = *std::min_element(begin.begin(), begin.end());
  const double last = *std::max_element(end.begin(), end.end());
  return {t1 - t0, (first - t0) + (t1 - last)};
}

void set_tracing(bool armed) {
  auto& tracer = msa::obs::Tracer::instance();
  if (armed) {
    tracer.clear();
    msa::obs::Registry::instance().reset();
  }
  tracer.set_enabled(armed);
}

// ---- roll-up -------------------------------------------------------------

namespace {

const SpanStat kNoStat{};

bool is_collective(const std::string& key) {
  static const std::set<std::string> names = {
      "comm/allreduce", "comm/bcast",          "comm/reduce",
      "comm/allgather", "comm/gather",         "comm/scatter",
      "comm/reduce_scatter", "comm/alltoall",  "comm/barrier",
      "comm/charge_allreduce"};
  return names.count(key) != 0;
}

std::string key_of(const msa::obs::Span& s) {
  return std::string(msa::obs::to_string(s.cat)) + "/" + s.name;
}

}  // namespace

void Rollup::add(const std::vector<msa::obs::Span>& spans) {
  // Group by recording thread (shard); spans of one thread nest properly.
  std::map<std::uint16_t, std::vector<const msa::obs::Span*>> by_shard;
  for (const auto& s : spans) {
    if (!s.instant) by_shard[s.shard].push_back(&s);
  }
  const std::string envelope_key = "other/" + envelope_;
  for (auto& [shard, list] : by_shard) {
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      if (a->real_begin_ns != b->real_begin_ns) {
        return a->real_begin_ns < b->real_begin_ns;
      }
      return a->real_end_ns > b->real_end_ns;  // parent before child
    });
    struct Open {
      const msa::obs::Span* span;
      std::string key;
      double child_ns;
      bool in_envelope;    // an enclosing span is the step envelope
      bool in_collective;  // an enclosing span is a collective call
    };
    std::vector<Open> stack;
    auto close = [&](const Open& o) {
      const double dur =
          static_cast<double>(o.span->real_end_ns - o.span->real_begin_ns);
      const double self = std::max(0.0, dur - o.child_ns);
      SpanStat& a = all_[o.key];
      a.self_ns += self;
      a.incl_ns += dur;
      a.count += 1;
      a.flops += o.span->flops;
      if (o.span->rank != 0) return;
      SpanStat& r = rank0_[o.key];
      r.self_ns += self;
      r.incl_ns += dur;
      r.count += 1;
      r.flops += o.span->flops;
      if (o.key == envelope_key) {
        envelope_ns_ += dur;
      } else if (o.in_envelope && o.key.rfind("other/bench_", 0) != 0) {
        covered_ns_ += self;
      }
      if (is_collective(o.key) && !o.in_collective) collective_ns_ += dur;
    };
    for (const msa::obs::Span* s : list) {
      while (!stack.empty() &&
             stack.back().span->real_end_ns <= s->real_begin_ns) {
        close(stack.back());
        stack.pop_back();
      }
      Open o{s, key_of(*s), 0.0, false, false};
      if (!stack.empty()) {
        Open& parent = stack.back();
        parent.child_ns += static_cast<double>(s->real_end_ns - s->real_begin_ns);
        o.in_envelope = parent.in_envelope || parent.key == envelope_key;
        o.in_collective = parent.in_collective || is_collective(parent.key);
        if (s->rank == 0) ++nested_[parent.key + ">" + o.key];
      }
      stack.push_back(std::move(o));
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
}

const SpanStat& Rollup::rank0(const std::string& key) const {
  const auto it = rank0_.find(key);
  return it == rank0_.end() ? kNoStat : it->second;
}

const SpanStat& Rollup::all(const std::string& key) const {
  const auto it = all_.find(key);
  return it == all_.end() ? kNoStat : it->second;
}

std::uint64_t Rollup::nested(const std::string& parent,
                             const std::string& child) const {
  const auto it = nested_.find(parent + ">" + child);
  return it == nested_.end() ? 0 : it->second;
}

// ---- result --------------------------------------------------------------

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit, true});
}

void Result::info(const std::string& name, double value,
                  const std::string& unit) {
  metrics_.push_back({name, value, unit, false});
}

void Result::check(bool ok, const std::string& what) {
  attempt();
  if (!ok) {
    ++failed_;
    correct_ = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  lines_.push_back(std::string("check ") + (ok ? "ok     " : "FAILED ") + what);
}

void Result::note(const std::string& line) { lines_.push_back(line); }

void Result::print() const {
  for (const auto& line : lines_) std::printf("%s\n", line.c_str());
  for (const auto& m : metrics_) {
    std::printf("%-6s %-38s %.6g %s\n", m.in_json ? "metric" : "info",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  const double error_rate =
      attempted_ > 0 ? static_cast<double>(failed_) /
                           static_cast<double>(attempted_)
                     : 0.0;
  std::printf("info   %-38s %.6g %s\n", "error_rate", error_rate,
              "failed/attempted");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  bool first = true;
  for (const auto& m : metrics_) {
    if (!m.in_json) continue;
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- per-layer metrics ---------------------------------------------------

void SimShares::add(std::vector<msa::obs::Span> spans,
                    const std::vector<double>& t0) {
  for (auto& s : spans) {
    if (s.rank < 0 || static_cast<std::size_t>(s.rank) >= t0.size()) continue;
    s.sim_begin_s -= t0[static_cast<std::size_t>(s.rank)];
    s.sim_end_s -= t0[static_cast<std::size_t>(s.rank)];
  }
  const msa::obs::Report report = msa::obs::Report::from_spans(spans);
  const msa::obs::Attribution& a = report.aggregate();
  compute_s += a.compute_s;
  exposed_comm_s += a.comm_s;
  hidden_comm_s += a.comm_hidden_s;
  bubble_s += a.bubble_s;
  total_s += a.total_s;
}

void emit_layers(Result& out, const Rollup& r, const Layers& l) {
  auto per = [](double v, double n) { return n > 0.0 ? v / n : 0.0; };
  const double st = l.steps;
  const double rq = l.requests;
  auto ms_step = [&](const char* key) {
    return per(r.rank0(key).self_ns * 1e-6, st);
  };
  const SpanStat& gemm = r.all("compute/gemm");
  const double recv_ms = r.rank0("comm/recv").self_ns * 1e-6;
  out.metric("nn.conv_fwd_ms_per_step", ms_step("compute/conv2d_fwd"), "ms");
  out.metric("nn.conv_bwd_ms_per_step", ms_step("compute/conv2d_bwd"), "ms");
  out.metric("tensor.gemm_ms_per_step", ms_step("compute/gemm"), "ms");
  out.metric("tensor.gemm_gflops",
             per(static_cast<double>(gemm.flops), gemm.incl_ns), "GFLOP/s");
  out.metric("nn.forward_ms_per_step", ms_step("compute/forward"), "ms");
  out.metric("nn.backward_ms_per_step", ms_step("compute/backward"), "ms");
  out.metric("nn.recompute_ms_per_step", ms_step("compute/recompute"), "ms");
  out.metric("comm.recv_wait_ms_per_step", per(recv_ms, st), "ms");
  out.metric("comm.recv_wait_ms_per_request", per(recv_ms, rq), "ms");
  out.metric("comm.msgs_per_step", per(l.msgs, st), "count");
  out.metric("comm.msgs_per_request", per(l.msgs, rq), "count");
  out.metric("comm.bytes_per_step", per(l.bytes, st), "B");
  out.metric("comm.bytes_per_request", per(l.bytes, rq), "B");
  out.metric("comm.collective_ms_per_step", per(r.collective_ns() * 1e-6, st),
             "ms");
  out.metric("comm.run_overhead_ms", l.run_overhead_ms, "ms");
  out.metric("dist.allreduce_grads_ms_per_step",
             per(r.rank0("comm/allreduce_grads").incl_ns * 1e-6, st), "ms");
  out.metric("dist.optimizer_ms_per_step", ms_step("compute/optimizer"), "ms");
  out.metric("dist.buckets_per_step", l.buckets_per_step, "count");
  out.metric("dist.buckets_launched_in_backward",
             l.buckets_launched_in_backward, "count");
  const double total = l.sim.total_s;
  out.metric("dist.sim_compute_frac", per(l.sim.compute_s, total), "frac");
  out.metric("dist.sim_exposed_comm_frac", per(l.sim.exposed_comm_s, total),
             "frac");
  out.metric("dist.sim_hidden_comm_frac",
             per(l.sim.hidden_comm_s,
                 l.sim.hidden_comm_s + l.sim.exposed_comm_s),
             "frac");
  out.metric("dist.sim_bubble_frac", per(l.sim.bubble_s, total), "frac");
  out.metric("serve.rows_per_batch", l.rows_per_batch, "rows");
  out.metric("serve.sim_queue_ms_p99", l.sim_queue_ms_p99, "ms");
  out.metric("serve.sim_compute_ms_p50", l.sim_compute_ms_p50, "ms");
  out.metric("serve.sim_reply_ms_p50", l.sim_reply_ms_p50, "ms");
  out.metric("serve.admit_lag_ms_p99", l.admit_lag_ms_p99, "ms");
  out.metric("data.gen_s", l.data_gen_s, "s");
  out.metric("data.batch_ms_per_step", l.data_batch_ms_per_step, "ms");
  out.metric("core.build_machine_ms", l.build_machine_ms, "ms");
  out.metric("obs.trace_overhead_frac", l.trace_overhead_frac, "frac");
  out.metric("obs.dropped_spans", l.dropped_spans, "count");
  out.metric("obs.step_coverage_frac", r.coverage(), "frac");
}

void note_rollup(Result& out, const Rollup& rollup, double steps) {
  char buf[256];
  out.note("rank-0 host time per traced step (self = minus child spans):");
  std::snprintf(buf, sizeof buf, "  %-28s %10s %10s %10s", "category/name",
                "self_ms", "incl_ms", "calls");
  out.note(buf);
  const double n = steps > 0.0 ? steps : 1.0;
  for (const auto& [key, s] : rollup.rank0_table()) {
    std::snprintf(buf, sizeof buf, "  %-28s %10.4f %10.4f %10.1f", key.c_str(),
                  s.self_ns * 1e-6 / n, s.incl_ns * 1e-6 / n,
                  static_cast<double>(s.count) / n);
    out.note(buf);
  }
}

void provenance(Result& out, const Options& opts, int world_size,
                int msa_threads) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"git_sha\": \"%s\", \"src_sha256\": \"%s\", "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"compiler\": \"%s\", "
      "\"nproc\": %ld, \"world_size\": %d, \"msa_threads\": %d}",
      opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
      opts.seconds, opts.trace ? 1 : 0, opts.git_sha.c_str(),
      opts.src_digest.c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
      PERFBENCH_COMPILER, sysconf(_SC_NPROCESSORS_ONLN), world_size,
      msa_threads);
  out.note(buf);
}

}  // namespace perfbench
