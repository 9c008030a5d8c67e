// Fail-slow (gray-failure) detection and mitigation tests.
//
// Layers under test: the robust window statistics and mitigation ladder of
// dist/health.hpp (balanced shares, flagging, re-sharding, demotion),
// the compute-degradation / link-flap / disk faults added to FaultPlan, the
// checkpoint checksum trailer (MSALIB02), and the end-to-end story: a 4x
// slow rank is detected deterministically, load shifts away from it (or it
// is demoted through the shrink path), and replays stay bit-identical —
// including across MSA_THREADS settings.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/runtime.hpp"
#include "dist/health.hpp"
#include "dist/resilient.hpp"
#include "fault/injector.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "par/pool.hpp"

namespace {

using msa::comm::Comm;
using msa::comm::Runtime;
using msa::dist::balanced_batch_counts;
using msa::dist::HealthDecision;
using msa::dist::HealthOptions;
using msa::dist::HybridOptions;
using msa::dist::ResilienceReport;
using msa::dist::ResilientOptions;
using msa::dist::ResilientTrainer;
using msa::fault::FaultInjector;
using msa::fault::FaultPlan;
using msa::simnet::ComputeProfile;
using msa::simnet::Machine;
using msa::simnet::MachineConfig;
using msa::tensor::Rng;
using msa::tensor::Tensor;

MachineConfig test_config() {
  MachineConfig cfg;
  cfg.intra_node = {0.3e-6, 100e9, 0.1e-6};
  cfg.intra_module = {1.0e-6, 10e9, 0.3e-6};
  cfg.federation = {2.0e-6, 5e9, 0.5e-6};
  return cfg;
}

Runtime make_runtime(int ranks, int per_node = 4) {
  return Runtime(
      Machine::homogeneous(ranks, per_node, test_config(), ComputeProfile{}));
}

// ---- mitigation building blocks ---------------------------------------------

TEST(Health, BalancedBatchCountsProportionalExactAndMinOne) {
  // 3 fast ranks + one at quarter speed, 16 rows: shares follow throughput,
  // sum exactly, and nobody starves to zero.
  const auto counts = balanced_batch_counts({1.0, 1.0, 0.25, 1.0}, 16);
  ASSERT_EQ(counts.size(), 4u);
  int sum = 0;
  for (int c : counts) {
    EXPECT_GE(c, 1);
    sum += c;
  }
  EXPECT_EQ(sum, 16);
  EXPECT_LT(counts[2], counts[0]);
  EXPECT_LT(counts[2], 4);  // strictly below the uniform share

  // Uniform throughput reproduces uniform shares whatever the total.
  EXPECT_EQ(balanced_batch_counts({2.0, 2.0, 2.0}, 12),
            (std::vector<int>{4, 4, 4}));
  // A pathological weight still gets its minimum row.
  const auto floor1 = balanced_batch_counts({1.0, 0.0}, 8);
  EXPECT_EQ(floor1[0] + floor1[1], 8);
  EXPECT_GE(floor1[1], 1);
}

// ---- checkpoint integrity (MSALIB02 checksum trailer) -----------------------

TEST(Health, ChecksumDetectsBitFlipAndTornWrite) {
  const std::string path = ::testing::TempDir() + "failslow_checksum.bin";
  Rng rng(3);
  Tensor t = Tensor::randn({16, 4}, rng);
  msa::nn::save_tensors(path, {&t});

  // Round trip is intact.
  {
    const auto back = msa::nn::load_tensors(path);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].numel(), t.numel());
  }

  // One flipped payload bit must be caught by the checksum trailer.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);  // inside the tensor payload
    char b = 0;
    f.seekg(40);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x4);
    f.seekp(40);
    f.write(&b, 1);
  }
  try {
    (void)msa::nn::load_tensors(path);
    FAIL() << "expected checksum rejection";
  } catch (const msa::nn::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }

  // Torn write (truncated tail) is caught too — as truncation or checksum.
  msa::nn::save_tensors(path, {&t});
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto size = static_cast<std::size_t>(in.tellg());
    std::vector<char> buf(size / 2);
    in.seekg(0);
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
  EXPECT_THROW((void)msa::nn::load_tensors(path), msa::nn::CheckpointError);
  std::remove(path.c_str());
}

TEST(Health, ReadsVersion01ArchivesWithoutTrailer) {
  // Hand-craft a pre-checksum ("MSALIB01") archive: the reader must accept
  // it and skip trailer validation.
  const std::string path = ::testing::TempDir() + "failslow_v01.bin";
  {
    std::ofstream os(path, std::ios::binary);
    const std::uint64_t magic = 0x4D53414C49423031ull;  // "MSALIB01"
    const std::uint64_t count = 1, ndim = 1, dim = 4;
    os.write(reinterpret_cast<const char*>(&magic), sizeof magic);
    os.write(reinterpret_cast<const char*>(&count), sizeof count);
    os.write(reinterpret_cast<const char*>(&ndim), sizeof ndim);
    os.write(reinterpret_cast<const char*>(&dim), sizeof dim);
    const float data[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    os.write(reinterpret_cast<const char*>(data), sizeof data);
  }
  const auto back = msa::nn::load_tensors(path);
  ASSERT_EQ(back.size(), 1u);
  ASSERT_EQ(back[0].numel(), 4u);
  EXPECT_EQ(back[0].data()[2], 3.0f);
  std::remove(path.c_str());
}

// ---- end-to-end: injected 4x slow rank --------------------------------------

struct FailSlowOutcome {
  std::vector<float> params;  // final param slab, collected at rank 0
  double mean_loss = 0.0;
  ResilienceReport report;
  std::vector<HealthDecision> decisions;
};

/// Drive ResilientTrainer (plain DP) under @p plan with @p options.
FailSlowOutcome run_failslow(int P, const FaultPlan& plan,
                             ResilientOptions options, int epochs = 3) {
  const std::size_t N = 64, features = 6, classes = 3;
  Rng data_rng(21);
  Tensor x = Tensor::randn({N, features}, data_rng);
  std::vector<std::int32_t> y(N);
  for (auto& v : y) {
    v = static_cast<std::int32_t>(data_rng.uniform_index(classes));
  }

  Runtime rt = make_runtime(P);
  FaultInjector::arm(rt, plan);
  FailSlowOutcome out;
  std::mutex m;
  rt.run([&](Comm& comm) {
    ResilientTrainer trainer(
        comm,
        [&] {
          Rng rng(7);
          return msa::nn::make_mlp(features, {10}, classes, rng);
        },
        [] { return std::make_unique<msa::nn::Sgd>(0.1, 0.9); },
        HybridOptions{}, options);
    auto result = trainer.train_classification(x, y, /*batch_size=*/4, epochs);
    if (trainer.comm().rank() == 0) {
      std::lock_guard lock(m);
      auto slab = trainer.param_store().param_span();
      out.params.assign(slab.begin(), slab.end());
      out.mean_loss = result.mean_loss;
      out.report = trainer.report();
      out.decisions = trainer.health().decisions();
    }
  });
  return out;
}

/// Health options most end-to-end tests share: tight 2-step windows over the
/// 4-steps-per-epoch run, detection on, ladder rungs chosen per test.
HealthOptions detection_on() {
  HealthOptions h;
  h.enabled = true;
  h.window = 2;
  h.slow_factor_min = 1.5;
  return h;
}

FaultPlan slow_rank_plan(int world_rank, double factor) {
  FaultPlan plan;
  plan.slow_ranks.push_back(
      {.world_rank = world_rank, .from_step = 0, .factor = factor});
  return plan;
}

TEST(FailSlow, MonitorFlagsInjectedSlowRankEveryWindow) {
  ResilientOptions options;
  options.health = detection_on();
  const FailSlowOutcome out =
      run_failslow(4, slow_rank_plan(2, 4.0), options);
  ASSERT_FALSE(out.decisions.empty());
  for (const auto& d : out.decisions) {
    ASSERT_EQ(d.flagged_world.size(), 1u) << "window " << d.window_index;
    EXPECT_EQ(d.flagged_world[0], 2);
    EXPECT_EQ(d.demote_world_rank, -1);  // no ladder rung armed
    EXPECT_TRUE(d.batch_counts.empty());
  }
  EXPECT_NE(out.report.health_digest, 0u);
  EXPECT_EQ(out.report.final_world, 4);
  // Detection alone never perturbs the trajectory: bit-identical to a run
  // with the monitor off.
  ResilientOptions plain;
  const FailSlowOutcome base = run_failslow(4, slow_rank_plan(2, 4.0), plain);
  ASSERT_EQ(out.params.size(), base.params.size());
  for (std::size_t i = 0; i < out.params.size(); ++i) {
    ASSERT_EQ(out.params[i], base.params[i]) << "param " << i;
  }
}

TEST(FailSlow, RebalanceShiftsLoadAwayFromSlowRank) {
  ResilientOptions options;
  options.health = detection_on();
  options.health.rebalance = true;
  const FailSlowOutcome out =
      run_failslow(4, slow_rank_plan(2, 4.0), options);
  EXPECT_GE(out.report.rebalances, 1);
  EXPECT_EQ(out.report.demotions, 0);
  EXPECT_EQ(out.report.final_world, 4);
  EXPECT_TRUE(std::isfinite(out.mean_loss));
  // The adopted shares starve the slow rank below uniform and sum exactly.
  const HealthDecision* adopted = nullptr;
  for (const auto& d : out.decisions) {
    if (!d.batch_counts.empty()) adopted = &d;
  }
  ASSERT_NE(adopted, nullptr);
  int sum = 0;
  for (int c : adopted->batch_counts) sum += c;
  EXPECT_EQ(sum, 16);
  EXPECT_LT(adopted->batch_counts[2], 4);
  // Aggregated straggler counters are consistent (sum dominates max).
  EXPECT_GE(out.report.straggler_events, out.report.straggler_events_max);
}

TEST(FailSlow, DemotionEvictsPersistentlySlowRank) {
  ResilientOptions options;
  options.checkpoint_interval = 2;
  options.health = detection_on();
  options.health.demote_after = 2;  // two consecutive flagged windows
  const FailSlowOutcome clean = run_failslow(4, FaultPlan{}, options);
  const FailSlowOutcome out =
      run_failslow(4, slow_rank_plan(2, 4.0), options);
  EXPECT_EQ(out.report.demotions, 1);
  EXPECT_EQ(out.report.final_world, 3);
  ASSERT_EQ(out.report.dead_ranks.size(), 1u);
  EXPECT_EQ(out.report.dead_ranks[0], 2);
  EXPECT_GE(out.report.recoveries, 1);
  EXPECT_TRUE(std::isfinite(out.mean_loss));
  EXPECT_NEAR(out.mean_loss, clean.mean_loss, 0.35)
      << "demoted " << out.mean_loss << " clean " << clean.mean_loss;
}

TEST(FailSlow, MitigatedRunReplaysBitIdentically) {
  ResilientOptions options;
  options.checkpoint_interval = 2;
  options.health = detection_on();
  options.health.rebalance = true;
  const FailSlowOutcome a = run_failslow(4, slow_rank_plan(1, 3.0), options);
  const FailSlowOutcome b = run_failslow(4, slow_rank_plan(1, 3.0), options);
  ASSERT_EQ(a.params.size(), b.params.size());
  ASSERT_FALSE(a.params.empty());
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    ASSERT_EQ(a.params[i], b.params[i]) << "param " << i;
  }
  EXPECT_EQ(a.report.health_digest, b.report.health_digest);
  EXPECT_EQ(a.report.rebalances, b.report.rebalances);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
}

TEST(FailSlow, HealthDecisionsIdenticalAcrossKernelThreadCounts) {
  // MSA_THREADS=1 vs 8: every health decision (flags, shares, demotions) is
  // a pure function of simulated time, so the digest chain must agree.
  ResilientOptions options;
  options.checkpoint_interval = 2;
  options.health = detection_on();
  options.health.rebalance = true;
  options.health.demote_after = 4;
  const std::size_t before = msa::par::num_threads();
  msa::par::set_num_threads(1);
  const FailSlowOutcome serial =
      run_failslow(4, slow_rank_plan(2, 4.0), options);
  msa::par::set_num_threads(8);
  const FailSlowOutcome threaded =
      run_failslow(4, slow_rank_plan(2, 4.0), options);
  msa::par::set_num_threads(before);
  EXPECT_EQ(serial.report.health_digest, threaded.report.health_digest);
  ASSERT_EQ(serial.decisions.size(), threaded.decisions.size());
  for (std::size_t i = 0; i < serial.decisions.size(); ++i) {
    EXPECT_EQ(serial.decisions[i].flagged_world,
              threaded.decisions[i].flagged_world);
    EXPECT_EQ(serial.decisions[i].batch_counts,
              threaded.decisions[i].batch_counts);
    EXPECT_EQ(serial.decisions[i].demote_world_rank,
              threaded.decisions[i].demote_world_rank);
  }
  ASSERT_EQ(serial.params.size(), threaded.params.size());
  for (std::size_t i = 0; i < serial.params.size(); ++i) {
    ASSERT_EQ(serial.params[i], threaded.params[i]) << "param " << i;
  }
}

// ---- two sequential kills in one data-parallel run --------------------------

TEST(FailSlow, SurvivesTwoSequentialKillsAndMatchesFaultFreeLoss) {
  ResilientOptions options;
  options.checkpoint_interval = 2;
  const FailSlowOutcome clean = run_failslow(4, FaultPlan{}, options);

  FaultPlan plan;
  plan.kills.push_back({.world_rank = 1, .step = 3});
  plan.kills.push_back({.world_rank = 3, .step = 9});
  const FailSlowOutcome faulted = run_failslow(4, plan, options);

  EXPECT_GE(faulted.report.recoveries, 2);
  EXPECT_EQ(faulted.report.final_world, 2);
  ASSERT_EQ(faulted.report.dead_ranks.size(), 2u);
  EXPECT_EQ(faulted.report.dead_ranks[0], 1);
  EXPECT_EQ(faulted.report.dead_ranks[1], 3);
  EXPECT_TRUE(std::isfinite(faulted.mean_loss));
  EXPECT_NEAR(faulted.mean_loss, clean.mean_loss, 0.5)
      << "faulted " << faulted.mean_loss << " clean " << clean.mean_loss;
}

// ---- disk-fault injection and generation fallback ---------------------------

TEST(FailSlow, CorruptDiskCheckpointFallsBackToPreviousGeneration) {
  ResilientOptions options;
  options.checkpoint_dir = ::testing::TempDir();
  options.checkpoint_interval = 2;

  // Bit-flip the SECOND disk write (ordinal 1, the step-2 snapshot), then
  // kill a rank on the very next step — before a later good write can rotate
  // the corrupt generation away.  Recovery must find the live generation
  // corrupt and promote the previous one, so the on-disk pair always
  // verifies.
  FaultPlan plan;
  plan.disk_faults.push_back({.world_rank = 0, .write_ordinal = 1, .kind = 2});
  plan.kills.push_back({.world_rank = 2, .step = 3});
  const FailSlowOutcome out = run_failslow(4, plan, options);

  EXPECT_GE(out.report.recoveries, 1);
  EXPECT_GE(out.report.checkpoint_fallbacks, 1);
  EXPECT_TRUE(std::isfinite(out.mean_loss));
  const msa::nn::Checkpoint live{
      options.checkpoint_dir + "/resilient.params.bin",
      options.checkpoint_dir + "/resilient.optstate.bin"};
  EXPECT_NO_THROW(msa::nn::verify_checkpoint(live));
  for (const char* name :
       {"/resilient.params.bin", "/resilient.optstate.bin",
        "/resilient.prev.params.bin", "/resilient.prev.optstate.bin"}) {
    std::remove((options.checkpoint_dir + name).c_str());
  }
}

// ---- link flaps -------------------------------------------------------------

TEST(FailSlow, LinkFlapStretchesTransfersOnlyInsideItsWindow) {
  // A [0, 0.5s) sim-time flap multiplies the 0<->1 link cost by 50; after the
  // window closes the same transfer is cheap again.
  FaultPlan plan;
  plan.link_flaps.push_back(
      {.src_world = 0, .dst_world = 1, .from_s = 0.0, .to_s = 0.5,
       .factor = 50.0});

  std::array<double, 2> elapsed{};  // transfer sim-cost inside/after the flap
  Runtime rt = make_runtime(2);
  FaultInjector::arm(rt, plan);
  rt.run([&](Comm& comm) {
    std::vector<float> buf(1u << 16, 1.0f);
    for (int phase = 0; phase < 2; ++phase) {
      const double t0 = comm.sim_now();
      if (comm.rank() == 0) {
        comm.send(std::span<const float>(buf), 1, /*tag=*/phase);
      } else {
        comm.recv(std::span<float>(buf), 0, /*tag=*/phase);
        elapsed[static_cast<std::size_t>(phase)] = comm.sim_now() - t0;
      }
      // Jump both ranks past the flap window before the second phase.
      comm.barrier();
      if (comm.sim_now() < 1.0) comm.charge_seconds(1.0 - comm.sim_now());
    }
  });
  EXPECT_GT(elapsed[0], 10.0 * elapsed[1])
      << "flapped " << elapsed[0] << " clean " << elapsed[1];
}

}  // namespace
