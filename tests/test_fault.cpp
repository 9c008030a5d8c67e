// Fault injection + elastic recovery tests.
//
// Three layers under test: the comm failure semantics (orphan detection,
// abandonment propagation, typed errors, shrink), the deterministic fault plans
// (bit-identical replays), and the end-to-end elastic story (kill a rank
// mid-epoch, finish on the shrunken world, match the fault-free loss).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "comm/runtime.hpp"
#include "dist/distributed.hpp"
#include "dist/resilient.hpp"
#include "fault/injector.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"

namespace {

using msa::comm::AggregateRankError;
using msa::comm::Comm;
using msa::comm::CommTimeoutError;
using msa::comm::RankFailedError;
using msa::comm::Runtime;
using msa::dist::broadcast_parameters;
using msa::dist::DistributedTrainer;
using msa::dist::HybridOptions;
using msa::dist::ResilientOptions;
using msa::dist::ResilientTrainer;
using msa::dist::ShardedSampler;
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

// ---- comm failure semantics -------------------------------------------------

TEST(FaultComm, OrphanedRecvThrowsInsteadOfHanging) {
  // Rank 0 waits for a message rank 1 never sends; rank 1 exits cleanly.
  // Before the liveness board this deadlocked the suite forever.
  Runtime rt = make_runtime(2);
  EXPECT_THROW(rt.run([](Comm& comm) {
    if (comm.rank() == 0) {
      float buf = 0.0f;
      comm.recv(std::span<float>(&buf, 1), 1, 3);
    }
    // rank 1 returns immediately
  }),
               RankFailedError);
}

TEST(FaultComm, OrphanedAnySourceRecvThrows) {
  Runtime rt = make_runtime(3);
  EXPECT_THROW(rt.run([](Comm& comm) {
    if (comm.rank() == 0) {
      float buf = 0.0f;
      comm.recv(std::span<float>(&buf, 1), msa::comm::kAnySource, 3);
    }
  }),
               RankFailedError);
}

TEST(FaultComm, MessageSentBeforeExitIsStillDelivered) {
  // Exit must not out-race delivery: a message put before the sender returns
  // is matched even if the receiver only looks after the sender has exited.
  Runtime rt = make_runtime(2);
  rt.run([](Comm& comm) {
    if (comm.rank() == 1) {
      const int v = 42;
      comm.send(std::span<const int>(&v, 1), 0, 9);
    } else {
      int got = 0;
      comm.recv(std::span<int>(&got, 1), 1, 9);
      EXPECT_EQ(got, 42);
    }
  });
}

TEST(FaultComm, AggregatesAllRankErrors) {
  // Two independent failures must both be reported, not just the first.
  Runtime rt = make_runtime(4);
  try {
    rt.run([](Comm& comm) {
      if (comm.rank() == 1) throw std::runtime_error("bug in rank 1");
      if (comm.rank() == 3) throw std::invalid_argument("bug in rank 3");
    });
    FAIL() << "expected AggregateRankError";
  } catch (const AggregateRankError& e) {
    ASSERT_EQ(e.rank_errors().size(), 2u);
    EXPECT_EQ(e.rank_errors()[0].first, 1);
    EXPECT_EQ(e.rank_errors()[1].first, 3);
    EXPECT_NE(std::string(e.what()).find("bug in rank 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bug in rank 3"), std::string::npos);
  }
}

TEST(FaultComm, SingleErrorKeepsItsType) {
  // One throwing rank: the original exception type must survive (the
  // pre-existing contract ExceptionInRankPropagates also relies on).
  Runtime rt = make_runtime(2);
  EXPECT_THROW(rt.run([](Comm& comm) {
    if (comm.rank() == 0) throw std::invalid_argument("only rank 0");
    // Rank 1 blocks on rank 0 and must get RankFailedError... which it
    // swallows here so exactly one error escapes the run.
    try {
      float buf = 0.0f;
      comm.recv(std::span<float>(&buf, 1), 0, 5);
    } catch (const RankFailedError&) {
    }
  }),
               std::invalid_argument);
}

/// How the handle a recv runs on is made from the root handle that carries
/// the backstop.
enum class Handle { Root, Split, SplitKnown, Dup, Shrink };

class BackstopHandle : public ::testing::TestWithParam<Handle> {};

TEST_P(BackstopHandle, RecvBackstopTimesOut) {
  // The backstop is set on the root handle alone, so a child handle has it
  // only by inheritance.  Rank 1 stays alive and never sends: nothing on the
  // liveness board can end rank 0's recv, only the backstop, which must
  // raise CommTimeoutError rather than hang.  Rank 2 sends nothing either;
  // it is the rank shrink removes.
  std::atomic<bool> done{false};
  std::atomic<int> outcome{0};  // 1 timeout, 2 rank failed, 3 delivered
  Runtime rt = make_runtime(3);
  rt.run([&](Comm& root) {
    root.set_wall_backstop(0.02, /*retries=*/1);
    const bool pair = root.rank() < 2;
    std::optional<Comm> comm;
    switch (GetParam()) {
      case Handle::Root:
        comm = root;
        break;
      case Handle::Split:
        comm = root.split(pair ? 0 : 1, root.rank());
        break;
      case Handle::SplitKnown:
        if (pair) comm = root.split_known(0, std::vector<int>{0, 1});
        break;
      case Handle::Dup:
        comm = root.dup();
        break;
      case Handle::Shrink:
        if (pair) comm = root.shrink({2});
        break;
    }
    if (root.rank() == 0) {
      try {
        float buf = 0.0f;
        comm->recv(std::span<float>(&buf, 1), 1, 77);
        outcome = 3;
      } catch (const CommTimeoutError&) {
        outcome = 1;
      } catch (const RankFailedError&) {
        outcome = 2;
      }
      done = true;
    } else if (root.rank() == 1) {
      // Alive until rank 0 is done.  If the backstop never fires, leaving
      // after 10 s ends rank 0's recv with RankFailedError instead of a hang.
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!done && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  EXPECT_EQ(outcome.load(), 1) << "1 timeout, 2 rank failed, 3 delivered";
}

std::string handle_name(const ::testing::TestParamInfo<Handle>& info) {
  static const char* const kNames[] = {"Root", "Split", "SplitKnown", "Dup",
                                       "Shrink"};
  return kNames[static_cast<int>(info.param)];
}

// Named FaultComm/... so the chaos label's and run_tsan.sh's Fault* filters
// select it.
INSTANTIATE_TEST_SUITE_P(FaultComm, BackstopHandle,
                         ::testing::Values(Handle::Root, Handle::Split,
                                           Handle::SplitKnown, Handle::Dup,
                                           Handle::Shrink),
                         handle_name);

TEST(FaultComm, LateWaitIsCountedButRecordsNoSpan) {
  // Rank 1 sends about 100 ms after rank 0 starts its recv, which outlasts
  // the first few expiries of a 0.01 s backstop with 8 retries (5.11 s in
  // all), gets the message and counts the expiries.  How many there are
  // depends on host load, so none of them may reach the span timeline.
  msa::obs::Tracer::instance().set_enabled(true);
  msa::obs::Tracer::instance().clear();
  std::atomic<bool> receiving{false};
  std::atomic<std::uint64_t> stragglers{0};
  Runtime rt = make_runtime(2);
  rt.run([&](Comm& comm) {
    int v = 7;
    if (comm.rank() == 1) {
      while (!receiving) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      comm.send(std::span<const int>(&v, 1), 0, 5);
      return;
    }
    comm.set_wall_backstop(0.01, /*retries=*/8);
    receiving = true;
    comm.recv(std::span<int>(&v, 1), 1, 5);
    stragglers = comm.straggler_events();
  });
  EXPECT_GE(stragglers.load(), 1u);
  int recvs = 0;
  for (const msa::obs::Span& span : msa::obs::Tracer::instance().snapshot()) {
    EXPECT_STRNE(span.name, "late_wait");
    if (std::strcmp(span.name, "recv") == 0) ++recvs;
  }
  EXPECT_EQ(recvs, 1);  // the tracer was recording
  msa::obs::Tracer::instance().clear();
}

TEST(FaultComm, ShrinkIsDeterministicAndIdempotent) {
  Runtime rt = make_runtime(6);
  rt.run([](Comm& comm) {
    if (comm.rank() == 2 || comm.rank() == 4) return;  // "dead" ranks idle out
    Comm a = comm.shrink({2, 4});
    Comm b = comm.shrink({4, 2, 2});  // order/duplicates must not matter
    EXPECT_EQ(a.size(), 4);
    EXPECT_EQ(a.size(), b.size());
    EXPECT_EQ(a.rank(), b.rank());
    EXPECT_EQ(a.world_rank(), comm.world_rank());
    // The shrunken communicator must actually work.
    int v = a.rank();
    auto all = a.allgather(std::span<const int>(&v, 1));
    for (int r = 0; r < a.size(); ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r);
  });
}

// ---- fault plan determinism -------------------------------------------------

TEST(FaultPlanTest, KillAtStepFiresExactlyThere) {
  FaultPlan plan;
  plan.kills.push_back({.world_rank = 1, .step = 3});
  FaultInjector inj(plan, /*world_size=*/4);
  EXPECT_NO_THROW(inj.on_step(1, 2, 0.0));
  EXPECT_NO_THROW(inj.on_step(0, 3, 0.0));
  EXPECT_THROW(inj.on_step(1, 3, 0.0), msa::comm::RankKilledError);
}

TEST(FaultPlanTest, RandomDecisionsAreReplayable) {
  FaultPlan plan;
  plan.seed = 99;
  plan.delay_probability = 0.5;
  plan.delay_s = 1e-3;
  FaultInjector a(plan, 4), b(plan, 4);
  for (int i = 0; i < 200; ++i) {
    EXPECT_DOUBLE_EQ(a.on_send(2, 0, 1024, 0.0), b.on_send(2, 0, 1024, 0.0));
  }
}

TEST(FaultPlanTest, KilledRankSurfacesInRuntime) {
  Runtime rt = make_runtime(4);
  FaultPlan plan;
  plan.kills.push_back({.world_rank = 2, .step = 0});
  FaultInjector::arm(rt, plan);
  std::mutex m;
  std::vector<int> observed_failed;
  rt.run([&](Comm& comm) {
    comm.progress(0);  // rank 2 dies here
    try {
      std::vector<float> grad(16, 1.0f);
      comm.allreduce(std::span<float>(grad), msa::comm::ReduceOp::Sum);
      // With rank 2 dead the collective cannot complete on any survivor.
      ADD_FAILURE() << "allreduce completed despite a dead rank";
    } catch (const RankFailedError& e) {
      std::lock_guard lock(m);
      observed_failed = e.failed_world_ranks();
    }
  });
  ASSERT_EQ(rt.killed_ranks().size(), 1u);
  EXPECT_EQ(rt.killed_ranks()[0].first, 2);
  EXPECT_EQ(rt.killed_ranks()[0].second, 0);
  ASSERT_FALSE(observed_failed.empty());
  EXPECT_EQ(observed_failed[0], 2);
}

TEST(FaultPlanTest, DelaysCostSimTimeButNotNumerics) {
  // A delay-only plan must change simulated time, never results.
  std::array<std::vector<float>, 2> results;
  std::array<double, 2> times{};
  for (int pass = 0; pass < 2; ++pass) {
    Runtime rt = make_runtime(4);
    if (pass == 1) {
      FaultPlan plan;
      plan.seed = 7;
      plan.delay_probability = 0.3;
      plan.delay_s = 5e-4;
      FaultInjector::arm(rt, plan);
    }
    std::mutex m;
    rt.run([&](Comm& comm) {
      std::vector<float> data(64);
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<float>(comm.rank() + 1) * 0.25f +
                  static_cast<float>(i);
      }
      comm.allreduce(std::span<float>(data), msa::comm::ReduceOp::Sum);
      if (comm.rank() == 0) {
        std::lock_guard lock(m);
        results[static_cast<std::size_t>(pass)] = data;
      }
    });
    times[static_cast<std::size_t>(pass)] = rt.max_sim_time();
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_GT(times[1], times[0]);
}

TEST(FaultPlanTest, DegradedLinkSlowsSimTime) {
  std::array<double, 2> times{};
  for (int pass = 0; pass < 2; ++pass) {
    Runtime rt = make_runtime(2, /*per_node=*/1);
    if (pass == 1) {
      FaultPlan plan;
      plan.degraded_links.push_back(
          {.src_world = 1, .dst_world = 0, .factor = 50.0});
      FaultInjector::arm(rt, plan);
    }
    rt.run([](Comm& comm) {
      std::vector<float> data(1 << 16, 1.0f);
      comm.allreduce(std::span<float>(data), msa::comm::ReduceOp::Sum,
                     msa::simnet::CollectiveAlgorithm::Ring);
    });
    times[static_cast<std::size_t>(pass)] = rt.max_sim_time();
  }
  EXPECT_GT(times[1], 2.0 * times[0]);
}

// ---- serialization hardening ------------------------------------------------

TEST(FaultSerialize, AtomicWriteLeavesNoTempFile) {
  const std::string path = ::testing::TempDir() + "fault_atomic.bin";
  Tensor t({4});
  for (std::size_t i = 0; i < 4; ++i) t[i] = static_cast<float>(i);
  msa::nn::save_tensors(path, {&t});
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temp file must be renamed away";
  const auto loaded = msa::nn::load_tensors(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0][3], 3.0f);
  std::remove(path.c_str());
}

TEST(FaultSerialize, RejectsForeignFileWithClearError) {
  const std::string path = ::testing::TempDir() + "fault_foreign.bin";
  {
    std::ofstream os(path, std::ios::binary);
    const char junk[32] = "definitely not a tensor file";
    os.write(junk, sizeof junk);
  }
  try {
    (void)msa::nn::load_tensors(path);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not an msalib tensor archive"),
              std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(FaultSerialize, RejectsFutureVersionWithVersionError) {
  const std::string path = ::testing::TempDir() + "fault_version.bin";
  {
    std::ofstream os(path, std::ios::binary);
    const std::uint64_t future = 0x4D53414C49423939ull;  // "MSALIB99"
    os.write(reinterpret_cast<const char*>(&future), sizeof future);
    const std::uint64_t count = 0;
    os.write(reinterpret_cast<const char*>(&count), sizeof count);
  }
  try {
    (void)msa::nn::load_tensors(path);
    FAIL() << "expected version rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
  std::remove(path.c_str());
}

// ---- elastic end-to-end -----------------------------------------------------

struct RunOutcome {
  std::vector<float> params;     // final param slab, collected at rank 0
  double mean_loss = 0.0;
  msa::dist::ResilienceReport report;
};

/// Drive ResilientTrainer over a fixed dataset; optionally arm @p plan.
RunOutcome run_resilient(int P, const FaultPlan& plan, int epochs = 3,
                         ResilientOptions options = {}) {
  const std::size_t N = 64, features = 6, classes = 3;
  Rng data_rng(21);
  Tensor x = Tensor::randn({N, features}, data_rng);
  std::vector<std::int32_t> y(N);
  for (auto& v : y) v = static_cast<std::int32_t>(data_rng.uniform_index(classes));

  Runtime rt = make_runtime(P);
  FaultInjector::arm(rt, plan);
  RunOutcome out;
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
    }
  });
  return out;
}

TEST(Resilient, FaultFreeRunIsBitIdenticalToPlainTrainer) {
  const int P = 4;
  const std::size_t N = 64, features = 6, classes = 3;
  const std::size_t batch_size = 4;
  const int epochs = 2;
  Rng data_rng(21);
  Tensor x = Tensor::randn({N, features}, data_rng);
  std::vector<std::int32_t> y(N);
  for (auto& v : y) v = static_cast<std::int32_t>(data_rng.uniform_index(classes));

  // Reference: the same loop driven directly through DistributedTrainer.
  std::vector<float> reference;
  {
    Runtime rt = make_runtime(P);
    std::mutex m;
    rt.run([&](Comm& comm) {
      Rng rng(7);
      auto model = msa::nn::make_mlp(features, {10}, classes, rng);
      msa::nn::Sgd opt(0.1, 0.9);
      DistributedTrainer trainer(comm, *model, opt);
      broadcast_parameters(comm, trainer.param_store());
      for (int epoch = 0; epoch < epochs; ++epoch) {
        ShardedSampler sampler(N, comm.rank(), comm.size(), 42);
        const auto idx = sampler.epoch_indices(static_cast<std::size_t>(epoch));
        for (std::size_t b = 0; b + batch_size <= sampler.size();
             b += batch_size) {
          Tensor bx({batch_size, features});
          std::vector<std::int32_t> by(batch_size);
          for (std::size_t i = 0; i < batch_size; ++i) {
            for (std::size_t c = 0; c < features; ++c) {
              bx.at2(i, c) = x.at2(idx[b + i], c);
            }
            by[i] = y[idx[b + i]];
          }
          trainer.step_classification(bx, by);
        }
      }
      if (comm.rank() == 0) {
        std::lock_guard lock(m);
        auto slab = trainer.param_store().param_span();
        reference.assign(slab.begin(), slab.end());
      }
    });
  }

  const RunOutcome resilient = run_resilient(P, FaultPlan{}, epochs);
  ASSERT_EQ(resilient.params.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(resilient.params[i], reference[i]) << "param " << i;
  }
  EXPECT_EQ(resilient.report.recoveries, 0);
  EXPECT_EQ(resilient.report.final_world, P);
}

TEST(Resilient, SurvivesMidEpochKillAndMatchesFaultFreeLoss) {
  const int P = 4;
  const RunOutcome clean = run_resilient(P, FaultPlan{});

  FaultPlan plan;
  plan.kills.push_back({.world_rank = 2, .step = 5});  // mid epoch 1 of 3
  const RunOutcome faulted = run_resilient(P, plan);

  EXPECT_GE(faulted.report.recoveries, 1);
  EXPECT_EQ(faulted.report.final_world, P - 1);
  ASSERT_EQ(faulted.report.dead_ranks.size(), 1u);
  EXPECT_EQ(faulted.report.dead_ranks[0], 2);
  EXPECT_GT(faulted.report.restore_time_s, 0.0);
  // The shrunken run must still have trained: final loss within tolerance of
  // the fault-free baseline (different sharding => not bit-identical).
  EXPECT_TRUE(std::isfinite(faulted.mean_loss));
  EXPECT_NEAR(faulted.mean_loss, clean.mean_loss, 0.35)
      << "faulted " << faulted.mean_loss << " clean " << clean.mean_loss;
}

TEST(Resilient, SameFaultSeedReplaysBitIdentically) {
  const int P = 4;
  FaultPlan plan;
  plan.seed = 1234;
  plan.kills.push_back({.world_rank = 1, .step = 7});
  plan.delay_probability = 0.2;
  plan.delay_s = 1e-4;
  const RunOutcome a = run_resilient(P, plan);
  const RunOutcome b = run_resilient(P, plan);
  ASSERT_EQ(a.params.size(), b.params.size());
  ASSERT_FALSE(a.params.empty());
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    ASSERT_EQ(a.params[i], b.params[i]) << "param " << i;
  }
  EXPECT_EQ(a.report.recoveries, b.report.recoveries);
  EXPECT_EQ(a.report.dead_ranks, b.report.dead_ranks);
}

TEST(Resilient, ReplayAgreesAcrossKernelThreadCounts) {
  // MSA_THREADS=1 vs 8: the kernel pool size must not leak into the faulted
  // training trajectory (pool decomposition is thread-count-invariant, and
  // fault decisions are hashes of per-rank coordinates).
  const int P = 4;
  FaultPlan plan;
  plan.seed = 42;
  plan.kills.push_back({.world_rank = 3, .step = 4});
  const std::size_t before = msa::par::num_threads();
  msa::par::set_num_threads(1);
  const RunOutcome serial = run_resilient(P, plan);
  msa::par::set_num_threads(8);
  const RunOutcome threaded = run_resilient(P, plan);
  msa::par::set_num_threads(before);
  ASSERT_EQ(serial.params.size(), threaded.params.size());
  for (std::size_t i = 0; i < serial.params.size(); ++i) {
    ASSERT_EQ(serial.params[i], threaded.params[i]) << "param " << i;
  }
}

TEST(Resilient, DiskCheckpointsAreWrittenAtomically) {
  const int P = 2;
  ResilientOptions options;
  options.checkpoint_dir = ::testing::TempDir();
  options.checkpoint_interval = 2;
  const RunOutcome out = run_resilient(P, FaultPlan{}, /*epochs=*/1, options);
  EXPECT_FALSE(out.params.empty());
  // The checkpoint pair exists and no .tmp residue is left behind.
  std::ifstream params(options.checkpoint_dir + "/resilient.params.bin");
  EXPECT_TRUE(params.good());
  std::ifstream tmp(options.checkpoint_dir + "/resilient.params.bin.tmp");
  EXPECT_FALSE(tmp.good());
  std::remove((options.checkpoint_dir + "/resilient.params.bin").c_str());
  std::remove((options.checkpoint_dir + "/resilient.optstate.bin").c_str());
}

}  // namespace
