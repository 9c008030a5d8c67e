// Tests for the nonblocking communication engine (comm/request.hpp) and the
// backward-overlapped gradient reducer built on top of it (dist/overlap.hpp).
//
// The contracts under test:
//   * isend/irecv/iallreduce complete with the same values as their blocking
//     counterparts, under wait(), test() polling, and wait_all();
//   * request misuse is a typed RequestError (double-wait, abandoned);
//   * deferred collectives overlap with compute in *simulated* time —
//     elapsed = max(compute, comm), not the sum — while two in-flight
//     collectives on one NIC serialize against each other;
//   * a rank killed with collectives in flight surfaces RankFailedError on
//     the survivors deterministically, and the abandoned requests stay
//     poisoned;
//   * the hierarchical intra/inter-module allreduce computes the exact
//     flat-allreduce result;
//   * overlapped training is bit-identical to the synchronous path, across
//     kernel thread counts.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <mutex>
#include <numeric>
#include <optional>
#include <vector>

#include "comm/request.hpp"
#include "comm/runtime.hpp"
#include "dist/distributed.hpp"
#include "fault/injector.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"

namespace {

using msa::comm::Comm;
using msa::comm::RankFailedError;
using msa::comm::RankKilledError;
using msa::comm::ReduceOp;
using msa::comm::Request;
using msa::comm::RequestError;
using msa::comm::Runtime;
using msa::dist::AllreduceOptions;
using msa::dist::broadcast_parameters;
using msa::dist::DistributedTrainer;
using msa::dist::HierarchicalComms;
using msa::dist::HierarchyLevel;
using msa::fault::FaultInjector;
using msa::fault::FaultPlan;
using msa::simnet::CollectiveAlgorithm;
using msa::simnet::ComputeProfile;
using msa::simnet::Machine;
using msa::simnet::MachineConfig;
using msa::simnet::RankLocation;
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

/// Restores the kernel-pool size on scope exit (pattern from test_tensor_par).
class ParGuard {
 public:
  ParGuard() : saved_(msa::par::num_threads()) {}
  ~ParGuard() { msa::par::set_num_threads(saved_); }

 private:
  std::size_t saved_;
};

// ---- point-to-point ---------------------------------------------------------

TEST(CommAsync, IsendIrecvRoundTrip) {
  Runtime rt = make_runtime(2);
  rt.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const float payload[3] = {1.5f, -2.0f, 3.25f};
      Request s = comm.isend(std::span<const float>(payload), 1, 7);
      s.wait();
      float back[3] = {};
      Request r = comm.irecv(std::span<float>(back), 1, 8);
      r.wait();
      EXPECT_EQ(back[0], 2.5f);
      EXPECT_EQ(back[1], -1.0f);
      EXPECT_EQ(back[2], 4.25f);
    } else {
      float buf[3] = {};
      Request r = comm.irecv(std::span<float>(buf), 0, 7);
      // Poll until the message lands; test() must not consume more than the
      // one matching message and must keep returning true once complete.
      while (!r.test()) {
      }
      EXPECT_TRUE(r.test());
      for (auto& v : buf) v += 1.0f;
      comm.isend(std::span<const float>(buf), 0, 8).wait();
    }
  });
}

TEST(CommAsync, WaitAllWithInterleavedCollectives) {
  // Two deferred allreduces on disjoint buffers plus a p2p exchange issued
  // between them: wait_all must complete everything with the exact values the
  // blocking reference produces, regardless of issue order.
  const int P = 4;
  Runtime rt = make_runtime(P);
  rt.run([&](Comm& comm) {
    std::vector<float> a(11), b(7);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<float>(comm.rank() + 1 + static_cast<int>(i));
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<float>((comm.rank() + 1) * 10 + static_cast<int>(i));
    }
    std::vector<Request> reqs;
    reqs.push_back(comm.iallreduce(std::span<float>(a), ReduceOp::Sum));
    const int right = (comm.rank() + 1) % P;
    const int left = (comm.rank() + P - 1) % P;
    const int token = comm.rank();
    int got = -1;
    reqs.push_back(comm.isend(std::span<const int>(&token, 1), right, 3));
    reqs.push_back(comm.irecv(std::span<int>(&got, 1), left, 3));
    reqs.push_back(comm.iallreduce(std::span<float>(b), ReduceOp::Max));
    msa::comm::wait_all(reqs);
    EXPECT_EQ(got, left);
    // sum over ranks of (r+1+i) = P*(i+1) + P(P-1)/2; max of (r+1)*10+i.
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], static_cast<float>(P * (1 + static_cast<int>(i)) +
                                         P * (P - 1) / 2));
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(b[i], static_cast<float>(P * 10 + static_cast<int>(i)));
    }
  });
}

TEST(CommAsync, TestDrivesDeferredCollectiveToCompletion) {
  Runtime rt = make_runtime(2);
  rt.run([](Comm& comm) {
    std::array<float, 4> v = {};
    v.fill(static_cast<float>(comm.rank() + 1));
    Request r = comm.iallreduce(std::span<float>(v), ReduceOp::Sum);
    // test() is allowed to make progress on deferred work (like MPI_Test);
    // the documented contract is that it completes the op.
    EXPECT_TRUE(r.test());
    for (float x : v) EXPECT_EQ(x, 3.0f);
    r.wait();  // wait after successful test is a no-op, not an error
  });
}

// ---- typed misuse errors ----------------------------------------------------

TEST(CommAsync, DoubleWaitThrowsTypedError) {
  Runtime rt = make_runtime(2);
  rt.run([](Comm& comm) {
    std::array<float, 2> v = {1.0f, 2.0f};
    Request r = comm.iallreduce(std::span<float>(v), ReduceOp::Sum);
    r.wait();  // retires the op from the engine
    try {
      r.wait();  // waiting again is typed misuse, like MPI's inactive handle
      FAIL() << "expected RequestError";
    } catch (const RequestError& e) {
      EXPECT_EQ(e.kind(), RequestError::Kind::DoubleWait);
    }
  });
}

TEST(CommAsync, DefaultRequestIsInvalid) {
  Request r;
  EXPECT_FALSE(r.valid());
  try {
    r.wait();
    FAIL() << "expected RequestError";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.kind(), RequestError::Kind::Invalid);
  }
}

// ---- simulated-time overlap semantics ---------------------------------------

TEST(CommAsync, DeferredCollectiveOverlapsCompute) {
  // Issue the collective, compute, then wait: simulated elapsed time must be
  // max(compute, comm)-shaped, strictly less than the blocking sum.
  const std::uint64_t bytes = 8u << 20;
  const double flops = 1e9;  // long enough to dominate the allreduce

  Runtime overlapped = make_runtime(4);
  overlapped.run([&](Comm& comm) {
    Request r = comm.icharge_allreduce(bytes, CollectiveAlgorithm::Ring);
    comm.charge_compute(flops, 0.0);
    r.wait();
  });

  Runtime blocking = make_runtime(4);
  blocking.run([&](Comm& comm) {
    comm.charge_allreduce(bytes, CollectiveAlgorithm::Ring);
    comm.charge_compute(flops, 0.0);
  });

  Runtime compute_only = make_runtime(4);
  compute_only.run([&](Comm& comm) { comm.charge_compute(flops, 0.0); });

  EXPECT_LT(overlapped.max_sim_time(), blocking.max_sim_time());
  // Fully hidden here: compute dominates, so the overlapped run costs no
  // more than compute plus a sliver of exposed tail.
  EXPECT_GE(overlapped.max_sim_time(), compute_only.max_sim_time());
  EXPECT_LT(overlapped.max_sim_time() - compute_only.max_sim_time(),
            0.2 * (blocking.max_sim_time() - compute_only.max_sim_time()));
}

TEST(CommAsync, InFlightCollectivesSerializeOnTheLink) {
  // Two deferred collectives issued back-to-back cannot both hide behind the
  // same wall-clock window: the NIC is busy.  Total time ~ 2x one collective.
  const std::uint64_t bytes = 8u << 20;

  Runtime one = make_runtime(4);
  one.run([&](Comm& comm) {
    comm.icharge_allreduce(bytes, CollectiveAlgorithm::Ring).wait();
  });

  Runtime two = make_runtime(4);
  two.run([&](Comm& comm) {
    std::vector<Request> reqs;
    reqs.push_back(comm.icharge_allreduce(bytes, CollectiveAlgorithm::Ring));
    reqs.push_back(comm.icharge_allreduce(bytes, CollectiveAlgorithm::Ring));
    msa::comm::wait_all(reqs);
  });

  EXPECT_GE(two.max_sim_time(), 1.9 * one.max_sim_time());
  EXPECT_LE(two.max_sim_time(), 2.1 * one.max_sim_time());
}

TEST(CommAsync, HiddenCommIsAttributedSeparately) {
  // The progress engine splits every drained collective into hidden time
  // (behind compute that already advanced the clock) and exposed time (past
  // the blocking wait).  A fully-hidden collective must show up under
  // comm_hidden_s, not comm_s, and not inflate the exposed comm fraction.
  msa::obs::Tracer::instance().set_enabled(true);
  msa::obs::Tracer::instance().clear();
  Runtime rt = make_runtime(4);
  rt.run([](Comm& comm) {
    Request r = comm.icharge_allreduce(4u << 20, CollectiveAlgorithm::Ring);
    comm.charge_compute(1e9, 0.0);  // dominates the collective
    r.wait();
  });
  const msa::obs::Attribution a =
      msa::obs::Report::from_tracer().aggregate();
  EXPECT_GT(a.comm_hidden_s, 0.0);
  EXPECT_GT(a.hidden_comm_fraction(), 0.9);
  msa::obs::Tracer::instance().clear();
}

// ---- failure semantics ------------------------------------------------------

struct KillOutcome {
  std::array<int, 4> saw_rank_failed = {};   // survivors: wait() threw
  std::array<int, 4> saw_abandoned = {};     // re-wait threw typed Abandoned
  std::array<float, 4> survivor_value = {};  // buffer left untouched per rank
};

KillOutcome run_kill_scenario() {
  const int P = 4;
  KillOutcome out;
  Runtime rt = make_runtime(P);
  FaultPlan plan;
  plan.seed = 99;
  plan.kills.push_back({.world_rank = 2, .step = 1});
  FaultInjector::arm(rt, plan);
  // Each rank writes only its own slot (rt.run joins before we read, so no
  // synchronization is needed — and holding a lock across wait() would
  // deadlock the survivors against each other).  An injected kill is not an
  // error: run() returns normally and records it in killed_ranks().
  rt.run([&](Comm& comm) {
    std::array<float, 8> v = {};
    v.fill(static_cast<float>(comm.rank() + 1));
    Request r = comm.iallreduce(std::span<float>(v), ReduceOp::Sum);
    comm.progress(1);  // rank 2 is killed here, collective in flight
    const auto rk = static_cast<std::size_t>(comm.rank());
    try {
      r.wait();
    } catch (const RankFailedError&) {
      out.saw_rank_failed[rk] = 1;
    }
    try {
      r.wait();
    } catch (const RequestError& e) {
      out.saw_abandoned[rk] =
          e.kind() == RequestError::Kind::Abandoned ? 1 : -1;
    }
    out.survivor_value[rk] = v[0];
  });
  EXPECT_EQ(rt.killed_ranks(),
            (std::vector<std::pair<int, int>>{{2, 1}}));
  return out;
}

TEST(CommAsync, KillWithInflightCollectiveIsDeterministic) {
  const KillOutcome a = run_kill_scenario();
  // Every survivor observed the failure through the typed channel: the wait
  // threw RankFailedError and the poisoned request stays poisoned.
  for (int r : {0, 1, 3}) {
    const auto rk = static_cast<std::size_t>(r);
    EXPECT_EQ(a.saw_rank_failed[rk], 1) << "rank " << r;
    EXPECT_EQ(a.saw_abandoned[rk], 1) << "rank " << r;
  }
  EXPECT_EQ(a.saw_rank_failed[2], 0);  // the victim never reached wait()
  // Replay: the same plan produces the identical outcome, bit for bit.
  const KillOutcome b = run_kill_scenario();
  EXPECT_EQ(a.saw_rank_failed, b.saw_rank_failed);
  EXPECT_EQ(a.saw_abandoned, b.saw_abandoned);
  EXPECT_EQ(a.survivor_value, b.survivor_value);
}

// ---- hierarchical allreduce -------------------------------------------------

TEST(Overlap, HierarchicalNodeLevelMatchesFlat) {
  // 8 ranks as 2 nodes x 4 devices; 37 elements exercises the uneven tail
  // (chunked head of 36 + BinomialTree remainder of 1).  Integer-valued
  // floats make every reduction order produce the identical bit pattern.
  const int P = 8;
  Runtime rt = make_runtime(P, 4);
  rt.run([&](Comm& comm) {
    std::optional<HierarchicalComms> topo =
        msa::dist::make_hierarchical(comm, HierarchyLevel::Node);
    ASSERT_TRUE(topo.has_value());
    EXPECT_EQ(topo->intra.size(), 4);
    EXPECT_EQ(topo->cross.size(), 2);
    std::vector<float> hier(37), flat(37);
    for (std::size_t i = 0; i < hier.size(); ++i) {
      hier[i] = static_cast<float>((comm.rank() + 1) * 100 +
                                   static_cast<int>(i));
      flat[i] = hier[i];
    }
    msa::dist::hierarchical_allreduce(comm, *topo, std::span<float>(hier),
                                      ReduceOp::Sum);
    comm.allreduce(std::span<float>(flat), ReduceOp::Sum);
    for (std::size_t i = 0; i < hier.size(); ++i) {
      ASSERT_EQ(hier[i], flat[i]) << "element " << i;
    }
  });
}

TEST(Overlap, HierarchicalModuleLevelAcrossCustomPlacement) {
  // Two modules x 4 devices via the explicit placement constructor: the
  // module-level hierarchy reduces inside each module first, then across the
  // federation link.
  const int P = 8;
  std::vector<RankLocation> placement;
  for (int r = 0; r < P; ++r) {
    placement.push_back({.module = r / 4, .node = 0, .device = r % 4});
  }
  Runtime rt(Machine(test_config(), placement,
                     std::vector<ComputeProfile>(P, ComputeProfile{})));
  rt.run([&](Comm& comm) {
    std::optional<HierarchicalComms> topo =
        msa::dist::make_hierarchical(comm, HierarchyLevel::Module);
    ASSERT_TRUE(topo.has_value());
    EXPECT_EQ(topo->intra.size(), 4);
    EXPECT_EQ(topo->cross.size(), 2);
    std::vector<float> hier(16), flat(16);
    for (std::size_t i = 0; i < hier.size(); ++i) {
      hier[i] = static_cast<float>(comm.rank() + 2 * static_cast<int>(i));
      flat[i] = hier[i];
    }
    msa::dist::hierarchical_allreduce(comm, *topo, std::span<float>(hier),
                                      ReduceOp::Sum);
    comm.allreduce(std::span<float>(flat), ReduceOp::Sum);
    for (std::size_t i = 0; i < hier.size(); ++i) {
      ASSERT_EQ(hier[i], flat[i]) << "element " << i;
    }
  });
}

// ---- overlapped training ----------------------------------------------------

/// Train a small MLP for `steps` and return rank 0's final parameters.
std::vector<float> train_params(const AllreduceOptions& options,
                                int steps = 5) {
  const int P = 4;
  std::vector<float> params;
  Runtime rt = make_runtime(P, /*per_node=*/2);  // 2 nodes x 2 devices
  std::mutex m;
  rt.run([&](Comm& comm) {
    Rng rng(7);
    auto model = msa::nn::make_mlp(6, {10}, 3, rng);
    broadcast_parameters(comm, *model);
    msa::nn::Sgd opt(0.1, 0.9);
    DistributedTrainer trainer(comm, *model, opt, options);
    Rng drng(500 + comm.rank());
    for (int s = 0; s < steps; ++s) {
      Tensor x = Tensor::randn({4, 6}, drng);
      std::vector<std::int32_t> y(4);
      for (auto& v : y) {
        v = static_cast<std::int32_t>(drng.uniform_index(3));
      }
      trainer.step_classification(x, y);
    }
    if (comm.rank() == 0) {
      std::lock_guard lock(m);
      const auto span = trainer.param_store().param_span();
      params.assign(span.begin(), span.end());
    }
  });
  return params;
}

TEST(Overlap, TrainingBitIdenticalToSyncPath) {
  // The overlapped reducer uses the same bucket boundaries, reduction
  // algorithm and averaging arithmetic as the synchronous slab path, so the
  // trajectories must agree bit for bit — with and without the hierarchy,
  // with and without fp16 packing.
  for (const bool hier : {false, true}) {
    for (const bool fp16 : {false, true}) {
      AllreduceOptions sync;
      sync.bucket_bytes = 128;  // many small buckets: exercise the scheduler
      sync.hierarchical = hier;
      sync.fp16_compression = fp16;
      AllreduceOptions overlapped = sync;
      overlapped.overlap = true;
      const std::vector<float> a = train_params(sync);
      const std::vector<float> b = train_params(overlapped);
      ASSERT_EQ(a.size(), b.size());
      ASSERT_FALSE(a.empty());
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i])
            << "param " << i << " hier=" << hier << " fp16=" << fp16;
      }
    }
  }
}

TEST(Overlap, TrainingAgreesAcrossKernelThreadCounts) {
  // MSA_THREADS=1 vs 8: the kernel pool size must not leak into the
  // overlapped trajectory (bucket launches depend on layer order, not on
  // intra-kernel scheduling).
  AllreduceOptions options;
  options.overlap = true;
  options.bucket_bytes = 128;
  ParGuard guard;
  msa::par::set_num_threads(1);
  const std::vector<float> serial = train_params(options);
  msa::par::set_num_threads(8);
  const std::vector<float> threaded = train_params(options);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], threaded[i]) << "param " << i;
  }
}

TEST(Overlap, ReducerLaunchesBucketsDuringBackward) {
  // The point of the tentpole: buckets go out while backward is still
  // running, not in one lump at the end.  The reducer records how many of
  // its launches happened inside backward hooks.
  const int P = 2;
  Runtime rt = make_runtime(P, 2);
  rt.run([](Comm& comm) {
    Rng rng(7);
    auto model = msa::nn::make_mlp(6, {10}, 3, rng);
    broadcast_parameters(comm, *model);
    msa::nn::Sgd opt(0.1);
    AllreduceOptions options;
    options.overlap = true;
    options.bucket_bytes = 64;  // 16 floats: several buckets per layer
    DistributedTrainer trainer(comm, *model, opt, options);
    ASSERT_NE(trainer.reducer(), nullptr);
    Rng drng(41 + comm.rank());
    Tensor x = Tensor::randn({4, 6}, drng);
    std::vector<std::int32_t> y = {0, 1, 2, 1};
    trainer.step_classification(x, y);
    EXPECT_GT(trainer.reducer()->bucket_count(), 1u);
    EXPECT_GT(trainer.reducer()->launched_in_backward(), 0u);
  });
}

}  // namespace
