// Shared pieces of the msalib benchmark: command-line options, seeds, host
// timing, the trace roll-up and the result printer.
//
// Everything here measures the library from outside: the workloads call its
// public functions, time those calls on the host clock, read its public
// accessors and its observability APIs (obs::Tracer, obs::Registry,
// obs::Report).  Nothing inside src/ is changed or instrumented for the
// benchmark.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "obs/trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

/// Independent seed stream @p stream of the run seed (splitmix64), so the
/// data, model-init and arrival seeds all follow from --seed alone.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// Host steady-clock seconds.
[[nodiscard]] double now_s();

/// Exact order statistics on a copy of @p v: nearest-rank quantile
/// (sorted[ceil(q n) - 1]) and the median of the sorted values.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// The fastest stretches of a run.  @p marks[i] is the host time step i
/// began (one more entry than @p items, the last marking the end),
/// @p items[i] the samples step i processed and @p step_ms[i] its time.
/// The steps are cut into consecutive blocks of @p block, and the @p share
/// of blocks that took the least wall time are kept (all of them at 1).
/// Other tenants of a shared host only ever add time, in phases of seconds
/// that come and go; a workload they stretch by much keeps a small share, so
/// its numbers show the program's own speed, and a change that slows the
/// program slows the kept blocks as well.
struct FastBlocks {
  double items_per_s = 0.0;     ///< median block rate over the kept blocks
  std::vector<double> step_ms;  ///< step times of the kept blocks
};
[[nodiscard]] FastBlocks fastest_blocks(const std::vector<double>& marks,
                                        const std::vector<double>& items,
                                        const std::vector<double>& step_ms,
                                        std::size_t block, double share);

/// Peak resident set size of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Runtime::run with rank r bound to the r-th usable core, timed on the
/// host: wall time of the call, and the part of it spent outside the rank
/// bodies (thread spawn before the first body starts, join after the last
/// one ends).
struct RunTiming {
  double wall_s = 0.0;
  double overhead_s = 0.0;
};
RunTiming timed_run(msa::comm::Runtime& rt,
                    const std::function<void(msa::comm::Comm&)>& body);

/// Arm or disarm the library's tracer.  Arming also drops spans and metric
/// counts left from earlier phases, so a traced phase reports only itself.
/// Call only while no instrumented code runs.
void set_tracing(bool armed);

/// Host time per (category/name) span key, e.g. "compute/gemm".
struct SpanStat {
  double self_ns = 0.0;   ///< duration minus the time its child spans cover
  double incl_ns = 0.0;   ///< full duration
  std::uint64_t count = 0;
  std::uint64_t flops = 0;
};

/// Rolls recorded spans up into host self time.  Spans of one thread nest
/// (they are scoped), so each thread's spans are walked in begin order with
/// a stack of the open ones.
class Rollup {
 public:
  /// Name of the benchmark span that encloses one measured step on rank 0;
  /// coverage is the share of its time the library's own spans account for.
  explicit Rollup(std::string envelope) : envelope_(std::move(envelope)) {}

  void add(const std::vector<msa::obs::Span>& spans);

  /// Rank-0 spans (the driving rank), keyed "category/name".
  [[nodiscard]] const SpanStat& rank0(const std::string& key) const;
  /// Spans of every thread, pool workers included.
  [[nodiscard]] const SpanStat& all(const std::string& key) const;
  /// Rank-0 spans of @p child whose direct parent is @p parent.
  [[nodiscard]] std::uint64_t nested(const std::string& parent,
                                     const std::string& child) const;
  /// Rank-0 host time inside collective calls, outermost collective only.
  [[nodiscard]] double collective_ns() const { return collective_ns_; }
  /// Share of the envelope spans' time covered by the library's own spans
  /// (their self times, summed).
  [[nodiscard]] double coverage() const {
    return envelope_ns_ > 0.0 ? covered_ns_ / envelope_ns_ : 0.0;
  }
  [[nodiscard]] const std::map<std::string, SpanStat>& rank0_table() const {
    return rank0_;
  }

 private:
  std::string envelope_;
  std::map<std::string, SpanStat> rank0_;
  std::map<std::string, SpanStat> all_;
  std::map<std::string, std::uint64_t> nested_;
  double collective_ns_ = 0.0;
  double envelope_ns_ = 0.0;
  double covered_ns_ = 0.0;
};

/// One workload's outcome: metrics, output checks and the attempt tally.
class Result {
 public:
  /// A metric the result JSON carries (end-to-end for an untraced run,
  /// per-layer for a traced one).
  void metric(const std::string& name, double value, const std::string& unit);
  /// A metric printed in the report lines only.
  void info(const std::string& name, double value, const std::string& unit);
  /// Count @p n operations as attempted.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Count @p n attempted operations as failed (no check fails).
  void fail(std::uint64_t n) { failed_ += n; }
  /// An output check: one attempted operation that fails when !ok.
  void check(bool ok, const std::string& what);
  /// Free-form report line.
  void note(const std::string& line);

  /// Report lines, then the result JSON as the last line of stdout.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    bool in_json;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> lines_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Simulated-time shares from obs::Report, summed over one or more runs.
struct SimShares {
  double compute_s = 0.0;
  double exposed_comm_s = 0.0;
  double hidden_comm_s = 0.0;
  double bubble_s = 0.0;
  double total_s = 0.0;

  /// Add the attribution of @p spans, rebased so each rank's time starts at
  /// @p t0[rank] (the clock when the traced phase began).
  void add(std::vector<msa::obs::Span> spans, const std::vector<double>& t0);
};

/// The per-layer metrics of a traced run.  Every workload reports all of
/// them; a layer a workload does not exercise reads 0.
struct Layers {
  double steps = 0.0;     ///< traced steps (training) or traced runs (serve)
  double requests = 0.0;  ///< requests served in the traced runs (serve)
  double msgs = 0.0;      ///< comm.msgs_sent over the traced phase
  double bytes = 0.0;     ///< comm.bytes_sent over the traced phase
  double run_overhead_ms = 0.0;
  double buckets_per_step = 0.0;
  double buckets_launched_in_backward = 0.0;
  SimShares sim;
  double rows_per_batch = 0.0;
  double sim_queue_ms_p99 = 0.0;
  double sim_compute_ms_p50 = 0.0;
  double sim_reply_ms_p50 = 0.0;
  double admit_lag_ms_p99 = 0.0;
  double data_gen_s = 0.0;
  double data_batch_ms_per_step = 0.0;
  double build_machine_ms = 0.0;
  double trace_overhead_frac = 0.0;
  double dropped_spans = 0.0;
};

/// Emit every per-layer metric: the host-time ones from @p rollup (rank-0
/// self times per traced step), the rest from @p layers.
void emit_layers(Result& out, const Rollup& rollup, const Layers& layers);

/// Report lines with the rank-0 self-time table of @p rollup.
void note_rollup(Result& out, const Rollup& rollup, double steps);

/// Provenance line: git sha, source digest, build type and flags, nproc,
/// world size and MSA_THREADS.
void provenance(Result& out, const Options& opts, int world_size,
                int msa_threads);

Result run_train(const Options& opts);
Result run_serve(const Options& opts);

}  // namespace perfbench
