#include "dist/resilient.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "nn/serialize.hpp"
#include "obs/trace.hpp"

namespace msa::dist {

namespace {

/// Real-wall-clock recv backstop of the trainer's communicators: a recv
/// that waits 0.25 s, then 0.5 s and 1 s more with no liveness verdict
/// raises CommTimeoutError, which the loop answers with a rollback.
constexpr double kRecvBackstopS = 0.25;
constexpr int kRecvBackstopRetries = 2;

/// Batch assembly: copy @p count dataset rows picked by @p idx[begin...]
/// into a fresh [count, ...] tensor.
nn::Tensor gather_rows(const nn::Tensor& x,
                       const std::vector<std::size_t>& idx, std::size_t begin,
                       std::size_t count) {
  nn::Shape shape;
  shape.push_back(count);
  for (std::size_t d = 1; d < x.ndim(); ++d) shape.push_back(x.dim(d));
  const std::size_t row = x.numel() / x.dim(0);
  nn::Tensor out(shape);
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(out.data() + i * row, x.data() + idx[begin + i] * row,
                row * sizeof(float));
  }
  return out;
}

std::vector<std::int32_t> gather_labels(const std::vector<std::int32_t>& labels,
                                        const std::vector<std::size_t>& idx,
                                        std::size_t begin, std::size_t count) {
  std::vector<std::int32_t> out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = labels[idx[begin + i]];
  return out;
}

/// Apply an injected disk fault to a just-committed archive: truncate to
/// half (torn write — the rename landed but the media lost the tail) or flip
/// one deterministic payload bit (silent corruption).  Either way the
/// version-02 checksum trailer no longer matches.
void corrupt_archive(const std::string& path, comm::DiskFaultKind kind) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec || size < 24) return;  // nothing worth corrupting
  if (kind == comm::DiskFaultKind::TornWrite) {
    fs::resize_file(path, size / 2, ec);
    return;
  }
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) return;
  const auto offset = static_cast<std::streamoff>(size / 2);
  f.seekg(offset);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  f.seekp(offset);
  f.write(&byte, 1);
}

/// On-disk checkpoint generations under @p prefix: the live pair and one
/// ".prev" generation kept for corrupt-restore fallback.
nn::Checkpoint live_generation(const std::string& prefix) {
  return {prefix + ".params.bin", prefix + ".optstate.bin"};
}

nn::Checkpoint prev_generation(const std::string& prefix) {
  return {prefix + ".prev.params.bin", prefix + ".prev.optstate.bin"};
}

}  // namespace

ResilientTrainer::ResilientTrainer(comm::Comm& comm,
                                   HybridStrategy::ModelFactory model,
                                   HybridStrategy::OptimizerFactory optimizer,
                                   HybridOptions hybrid,
                                   ResilientOptions options)
    : comm_(comm),
      world_(comm),
      options_(std::move(options)),
      weighted_shards_(hybrid.pipeline_stages == 1) {
  // Set on world_ too, so the shrink children recovery builds inherit it.
  comm_.set_wall_backstop(kRecvBackstopS, kRecvBackstopRetries);
  world_.set_wall_backstop(kRecvBackstopS, kRecvBackstopRetries);
  health_ = HealthMonitor(options_.health);
  strategy_.emplace(comm_, std::move(model), std::move(optimizer), hybrid);
  report_.final_world = comm_.size();
}

void ResilientTrainer::rearm_health(std::size_t batch_size) {
  if (!options_.health.enabled) return;
  health_.reset(comm_, static_cast<int>(batch_size));
  strategy_->set_loss_scale(1.0);
}

void ResilientTrainer::apply_health_decision(const HealthDecision& decision,
                                             int global_step) {
  if (!decision.batch_counts.empty()) ++report_.rebalances;
  if (decision.demote_world_rank >= 0) {
    ++report_.demotions;
    if (decision.demote_world_rank == comm_.world_rank()) {
      // Evicted by the collective vote: unwind exactly like an injected
      // crash; survivors shrink around this rank.
      throw comm::RankDemotedError(comm_.world_rank(), global_step);
    }
  }
}

void ResilientTrainer::take_snapshot(int epoch, int batch, int global_step) {
  // Capture first: a mesh strategy gathers remote stage slabs here, and that
  // traffic should be attributed as comm, not inside the Io span.
  StateBlob blob = strategy_->capture_state();
  obs::ScopedSpan span(obs::Category::Io, "snapshot",
                       /*bytes=*/std::uint64_t{0}, /*flops=*/std::uint64_t{0},
                       static_cast<std::uint64_t>(global_step));
  // Keep one generation of history: recovery may need to roll back to the
  // previous boundary when survivors disagree on whether the latest one was
  // reached (see recover()).  An interval boundary and an epoch boundary can
  // coincide at one step (no communication happens between them); the second
  // snapshot then replaces the first instead of evicting the real history.
  if (!(snap_.valid && snap_.global_step == global_step)) {
    prev_ = std::move(snap_);
  }
  snap_ = Snapshot{};
  snap_.state = std::move(blob);
  snap_.epoch = epoch;
  snap_.batch = batch;
  snap_.global_step = global_step;
  snap_.loss_sum = loss_sum_;
  snap_.acc_sum = acc_sum_;
  snap_.metric_count = metric_count_;
  snap_.valid = true;
  // Honest cost: one contiguous write per slab to the storage module.
  const double bytes = static_cast<double>(snap_.state.byte_size());
  const double t = comm_.machine().config().storage.write_time(bytes);
  span.add_bytes(static_cast<std::uint64_t>(bytes));
  comm_.charge_seconds(t);
  report_.checkpoint_time_s += t;
  if (!options_.checkpoint_dir.empty() && comm_.rank() == 0) {
    const std::string prefix = options_.checkpoint_dir + "/resilient";
    // Keep one on-disk generation of history to mirror prev_: if this write
    // lands corrupt (torn write, bit flip — see corrupt_archive), recovery
    // verifies the checksum trailer and promotes the previous generation.
    const nn::Checkpoint live = live_generation(prefix);
    const nn::Checkpoint prev = prev_generation(prefix);
    (void)std::rename(live.params_path.c_str(), prev.params_path.c_str());
    (void)std::rename(live.optimizer_path.c_str(), prev.optimizer_path.c_str());
    // Atomic tmp+rename write (nn/serialize): a kill mid-write never tears
    // the previous on-disk checkpoint.  A mesh strategy writes its own
    // stage's slabs (one shard of the partition-independent blob).
    const nn::Checkpoint written = nn::save_checkpoint(
        prefix, strategy_->param_store(), strategy_->optimizer());
    const comm::DiskFaultKind kind = comm_.checkpoint_write_fault();
    if (kind != comm::DiskFaultKind::None) {
      corrupt_archive(written.params_path, kind);
    }
  }
}

void ResilientTrainer::restore_snapshot() {
  if (!snap_.valid) {
    throw std::logic_error("ResilientTrainer: no snapshot to restore");
  }
  obs::ScopedSpan span(obs::Category::Io, "restore",
                       /*bytes=*/std::uint64_t{0}, /*flops=*/std::uint64_t{0},
                       static_cast<std::uint64_t>(snap_.global_step));
  strategy_->load_state(snap_.state);
  loss_sum_ = snap_.loss_sum;
  acc_sum_ = snap_.acc_sum;
  metric_count_ = snap_.metric_count;
  // Honest cost: read the slabs back from the storage module...
  const double bytes = static_cast<double>(snap_.state.byte_size());
  const double t = comm_.machine().config().storage.read_time(bytes);
  span.add_bytes(static_cast<std::uint64_t>(bytes));
  comm_.charge_seconds(t);
  report_.restore_time_s += t;
  // ...then realign across the fabric (parameters + optimizer state).
  strategy_->align_restored();
}

void ResilientTrainer::recover() {
  obs::ScopedSpan span(obs::Category::Fault, "recover");
  for (int attempt = 0;; ++attempt) {
    // Refresh the failed set and stop aborting for it.  The set only grows,
    // and shrink's communicator id is a pure function of it, so survivors
    // that retry this loop at different times still converge on the same
    // communicator.
    const std::vector<int> dead = comm_.acknowledge_failures();
    // Any nonblocking requests this rank still holds were issued against the
    // pre-failure world: abandon them so stray waits fail fast (typed
    // RequestError) instead of draining a collective that can never finish.
    comm_.abandon_requests();
    comm::Comm next = world_.shrink(dead);
    if (next.id() != comm_.id()) {
      comm_ = std::move(next);
    }
    // else: no new deaths (transient timeout) — keep the current handle so
    // its collective-tag sequence keeps advancing; rejoin re-aligns it.
    (void)comm_.acknowledge_failures();
    try {
      // Out-of-band rendezvous: waits for every survivor, re-aligns the
      // collective tag space (divergent after an aborted collective), and
      // max-syncs the simulated clocks.
      comm_.rejoin();
      // Survivors may have aborted up to one snapshot boundary apart: a rank
      // whose remaining messages were already queued finished the boundary
      // step (match-wins delivery) and snapshotted it; a rank blocked on a
      // chunk its aborting neighbour never forwarded did not.  Agree on the
      // oldest snapshot step and fall back to prev_ where needed, then
      // rebuild the layout over the survivors and re-load state so every
      // survivor is bit-identical.
      int agreed = snap_.global_step;
      comm_.allreduce(std::span<int>(&agreed, 1), comm::ReduceOp::Min);
      if (agreed != snap_.global_step) {
        if (!prev_.valid || prev_.global_step != agreed) {
          throw std::logic_error(
              "ResilientTrainer: survivor snapshots diverged by more than "
              "one boundary");
        }
        snap_ = prev_;
      }
      // Re-wire the strategy first (a mesh strategy re-partitions its
      // pipeline over the shrunken world), then restore into the new layout
      // — the blob is partition-independent by contract.
      strategy_->rebuild();
      restore_snapshot();
      // The in-memory snapshot restored above is authoritative; the disk
      // mirror exists for job-level restarts.  Audit it while we are here:
      // if the newest generation fails its checksum trailer (torn write or
      // bit flip injected at commit time), promote the previous generation
      // so what is on disk always verifies.
      if (!options_.checkpoint_dir.empty() && comm_.rank() == 0) {
        const std::string prefix = options_.checkpoint_dir + "/resilient";
        const nn::Checkpoint live = live_generation(prefix);
        try {
          nn::verify_checkpoint(live);
        } catch (const nn::CheckpointError&) {
          ++report_.checkpoint_fallbacks;
          const nn::Checkpoint prev = prev_generation(prefix);
          (void)std::rename(prev.params_path.c_str(),
                            live.params_path.c_str());
          (void)std::rename(prev.optimizer_path.c_str(),
                            live.optimizer_path.c_str());
        }
      }
      break;
    } catch (const comm::RankFailedError&) {
      // A further rank died during recovery; go around with the larger set.
      if (attempt >= options_.max_recoveries) throw;
    } catch (const comm::CommTimeoutError&) {
      if (attempt >= options_.max_recoveries) throw;
    }
  }
  report_.dead_ranks = comm_.failed_ranks();
  report_.final_world = comm_.size();
}

TrainResult ResilientTrainer::train_classification(
    const nn::Tensor& x, const std::vector<std::int32_t>& labels,
    std::size_t batch_size, int epochs) {
  if (x.dim(0) != labels.size()) {
    throw std::invalid_argument("train_classification: N mismatch");
  }
  strategy_->align_initial();
  loss_sum_ = 0.0;
  acc_sum_ = 0.0;
  metric_count_ = 0;
  take_snapshot(/*epoch=*/0, /*batch=*/0, /*global_step=*/0);
  rearm_health(batch_size);
  // Throughput-aware re-sharding slices the epoch permutation into weighted
  // contiguous blocks instead of the uniform strided shard; it needs
  // gradient re-weighting (plain DP honours it, a pipeline keeps uniform
  // shards and still gets detection + demotion).
  const bool weighted = options_.health.enabled && options_.health.rebalance &&
                        weighted_shards_;

  int epoch = 0;
  int batch = 0;
  int global_step = 0;
  // Called from a handler: rethrows the failure once recoveries run out.
  auto roll_back = [&] {
    if (report_.recoveries >= options_.max_recoveries) throw;
    ++report_.recoveries;
    recover();
    report_.steps_replayed += global_step - snap_.global_step;
    epoch = snap_.epoch;
    batch = snap_.batch;
    global_step = snap_.global_step;
    rearm_health(batch_size);
  };
  while (epoch < epochs) {
    try {
      const auto [shard_rank, shard_count] = strategy_->data_shard();
      const std::vector<std::size_t> indices =
          weighted ? full_epoch_permutation(x.dim(0), options_.sampler_seed,
                                            static_cast<std::size_t>(epoch))
                   : ShardedSampler(x.dim(0), shard_rank, shard_count,
                                    options_.sampler_seed)
                         .epoch_indices(static_cast<std::size_t>(epoch));
      const int n_batches = static_cast<int>(
          x.dim(0) / static_cast<std::size_t>(shard_count) / batch_size);
      if (batch > n_batches) batch = n_batches;
      if (batch == 0) {
        // Fresh epoch: metrics report the epoch being trained.
        loss_sum_ = 0.0;
        acc_sum_ = 0.0;
        metric_count_ = 0;
      }
      for (; batch < n_batches; ++batch) {
        comm_.progress(global_step);  // fault-injection kill site
        std::size_t begin = 0;
        std::size_t rows = batch_size;
        if (weighted) {
          // Step `batch` consumes the permutation block
          // [batch*B_total, (batch+1)*B_total); each rank takes the
          // contiguous sub-slice its current micro-batch share dictates.
          const std::vector<int>& counts = health_.batch_counts();
          const auto b_total = static_cast<std::size_t>(health_.batch_total());
          std::size_t offset = 0;
          for (int q = 0; q < shard_rank; ++q) {
            offset += static_cast<std::size_t>(counts[static_cast<std::size_t>(q)]);
          }
          begin = static_cast<std::size_t>(batch) * b_total + offset;
          rows = static_cast<std::size_t>(
              counts[static_cast<std::size_t>(shard_rank)]);
          // Unequal row counts need re-weighted gradients: scaling rank r's
          // loss grad by P*b_r/B_total makes the 1/P allreduce average equal
          // the true global-batch mean.
          strategy_->set_loss_scale(static_cast<double>(rows) *
                                    static_cast<double>(shard_count) /
                                    static_cast<double>(b_total));
        } else {
          begin = static_cast<std::size_t>(batch) * batch_size;
        }
        const nn::Tensor bx = gather_rows(x, indices, begin, rows);
        const std::vector<std::int32_t> by =
            gather_labels(labels, indices, begin, rows);
        const StepResult res = strategy_->step_classification(bx, by);
        loss_sum_ += static_cast<double>(res.loss);
        acc_sum_ += res.accuracy;
        ++metric_count_;
        ++global_step;
        if (options_.health.enabled) {
          if (const auto decision = health_.on_step(
                  comm_, global_step, static_cast<int>(rows))) {
            apply_health_decision(*decision, global_step);
          }
        }
        if (options_.checkpoint_interval > 0 &&
            global_step % options_.checkpoint_interval == 0) {
          take_snapshot(epoch, batch + 1, global_step);
        }
      }
      batch = 0;
      ++epoch;
      if (epoch < epochs) {
        take_snapshot(epoch, 0, global_step);
      }
    } catch (const comm::RankFailedError&) {
      roll_back();
    } catch (const comm::CommTimeoutError&) {
      // No rank is known dead — an extreme transient.  Roll back to the
      // snapshot on the (unchanged) communicator and retry.
      roll_back();
    }
  }

  // Aggregate the straggler count across the surviving world: the sum says
  // how much late-wait churn the run saw, the max exposes the gray-failure
  // signature (one rank's peers dominating the count).
  {
    std::uint64_t agg = comm_.straggler_events();
    std::uint64_t mx = agg;
    comm_.allreduce(std::span<std::uint64_t>(&agg, 1), comm::ReduceOp::Sum);
    comm_.allreduce(std::span<std::uint64_t>(&mx, 1), comm::ReduceOp::Max);
    report_.straggler_events = agg;
    report_.straggler_events_max = mx;
  }
  report_.health_digest = health_.digest();
  report_.final_world = comm_.size();
  TrainResult out;
  if (metric_count_ > 0) {
    out.mean_loss = strategy_->average_metric(
        loss_sum_ / static_cast<double>(metric_count_));
    out.accuracy = strategy_->average_metric(
        acc_sum_ / static_cast<double>(metric_count_));
  }
  return out;
}

}  // namespace msa::dist
