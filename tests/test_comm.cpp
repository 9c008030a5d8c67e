// Unit + property tests for the message-passing runtime.
//
// These exercise the core SPMD contract: all collectives produce the exact
// MPI-specified result for every rank count and algorithm, and the simulated
// clock behaves like a causal Lamport clock.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <vector>

#include "comm/runtime.hpp"

namespace {

using msa::comm::Comm;
using msa::comm::ReduceOp;
using msa::comm::Runtime;
using msa::simnet::CollectiveAlgorithm;
using msa::simnet::ComputeProfile;
using msa::simnet::Machine;
using msa::simnet::MachineConfig;

MachineConfig test_config() {
  MachineConfig cfg;
  cfg.intra_node = {0.3e-6, 100e9, 0.1e-6};
  cfg.intra_module = {1.0e-6, 10e9, 0.3e-6};
  cfg.federation = {2.0e-6, 5e9, 0.5e-6};
  cfg.gce_available = true;
  return cfg;
}

Runtime make_runtime(int ranks, int per_node = 4) {
  return Runtime(
      Machine::homogeneous(ranks, per_node, test_config(), ComputeProfile{}));
}

TEST(Comm, PointToPointRoundTrip) {
  Runtime rt = make_runtime(2);
  rt.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const float payload[3] = {1.5f, -2.0f, 3.25f};
      comm.send(std::span<const float>(payload), 1, 7);
      float back[3] = {};
      comm.recv(std::span<float>(back), 1, 8);
      EXPECT_EQ(back[0], 2.5f);
      EXPECT_EQ(back[1], -1.0f);
      EXPECT_EQ(back[2], 4.25f);
    } else {
      float buf[3] = {};
      comm.recv(std::span<float>(buf), 0, 7);
      for (auto& v : buf) v += 1.0f;
      comm.send(std::span<const float>(buf), 0, 8);
    }
  });
}

TEST(Comm, TagAndSourceMatching) {
  // Messages must be matched by (src, tag) even when delivered out of order.
  Runtime rt = make_runtime(3);
  rt.run([](Comm& comm) {
    if (comm.rank() == 0) {
      int a = 0, b = 0, c = 0;
      // Receive in the *opposite* order they are likely to arrive.
      comm.recv(std::span<int>(&c, 1), 2, 5);
      comm.recv(std::span<int>(&b, 1), 1, 9);
      comm.recv(std::span<int>(&a, 1), 1, 5);
      EXPECT_EQ(a, 15);
      EXPECT_EQ(b, 19);
      EXPECT_EQ(c, 25);
    } else if (comm.rank() == 1) {
      int v = 15;
      comm.send(std::span<const int>(&v, 1), 0, 5);
      v = 19;
      comm.send(std::span<const int>(&v, 1), 0, 9);
    } else {
      int v = 25;
      comm.send(std::span<const int>(&v, 1), 0, 5);
    }
  });
}

TEST(Comm, AnySource) {
  Runtime rt = make_runtime(4);
  rt.run([](Comm& comm) {
    if (comm.rank() == 0) {
      int sum = 0;
      for (int i = 1; i < comm.size(); ++i) {
        int v = 0;
        comm.recv(std::span<int>(&v, 1), msa::comm::kAnySource, 3);
        sum += v;
      }
      EXPECT_EQ(sum, 1 + 2 + 3);
    } else {
      int v = comm.rank();
      comm.send(std::span<const int>(&v, 1), 0, 3);
    }
  });
}

TEST(Comm, BarrierSynchronizesClocks) {
  Runtime rt = make_runtime(8);
  rt.run([](Comm& comm) {
    // Rank 3 is "slow": charge it 1 ms of compute before the barrier.
    if (comm.rank() == 3) comm.charge_seconds(1e-3);
    comm.barrier();
    // Everyone's clock must be at least the slow rank's pre-barrier time.
    EXPECT_GE(comm.sim_now(), 1e-3);
  });
}

class CommAllreduceTest
    : public ::testing::TestWithParam<std::tuple<int, CollectiveAlgorithm>> {};

TEST_P(CommAllreduceTest, SumMatchesSerial) {
  const auto [ranks, alg] = GetParam();
  Runtime rt = make_runtime(ranks);
  const std::size_t n = 1000;
  rt.run([&, alg = alg](Comm& comm) {
    std::vector<float> data(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = static_cast<float>(comm.rank() + 1) *
                (static_cast<float>(i % 13) - 6.0f);
    }
    comm.allreduce(std::span<float>(data), ReduceOp::Sum, alg);
    const int P = comm.size();
    const float rank_sum = static_cast<float>(P * (P + 1)) / 2.0f;
    for (std::size_t i = 0; i < n; ++i) {
      const float expected = rank_sum * (static_cast<float>(i % 13) - 6.0f);
      ASSERT_NEAR(data[i], expected, 1e-3f) << "i=" << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    RankAlgorithmSweep, CommAllreduceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 7, 8, 16),
                       ::testing::Values(CollectiveAlgorithm::Ring,
                                         CollectiveAlgorithm::BinomialTree,
                                         CollectiveAlgorithm::Rabenseifner,
                                         CollectiveAlgorithm::GceOffload)),
    [](const auto& info) {
      std::string name = "P" + std::to_string(std::get<0>(info.param)) + "_";
      for (char c : std::string(to_string(std::get<1>(info.param)))) {
        if (std::isalnum(static_cast<unsigned char>(c))) name += c;
      }
      return name;
    });

class CommReduceOpTest : public ::testing::TestWithParam<ReduceOp> {};

TEST_P(CommReduceOpTest, AllOpsCorrect) {
  const ReduceOp op = GetParam();
  Runtime rt = make_runtime(5);
  rt.run([op](Comm& comm) {
    std::vector<double> data = {static_cast<double>(comm.rank() + 1), -1.0,
                                0.5 * (comm.rank() + 1)};
    comm.allreduce(std::span<double>(data), op);
    switch (op) {
      case ReduceOp::Sum:
        EXPECT_DOUBLE_EQ(data[0], 15.0);
        EXPECT_DOUBLE_EQ(data[1], -5.0);
        break;
      case ReduceOp::Max:
        EXPECT_DOUBLE_EQ(data[0], 5.0);
        EXPECT_DOUBLE_EQ(data[1], -1.0);
        break;
      case ReduceOp::Min:
        EXPECT_DOUBLE_EQ(data[0], 1.0);
        EXPECT_DOUBLE_EQ(data[2], 0.5);
        break;
      case ReduceOp::Prod:
        EXPECT_DOUBLE_EQ(data[0], 120.0);
        EXPECT_DOUBLE_EQ(data[1], -1.0);
        break;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ops, CommReduceOpTest,
                         ::testing::Values(ReduceOp::Sum, ReduceOp::Max,
                                           ReduceOp::Min, ReduceOp::Prod));

TEST(Comm, BroadcastFromEveryRoot) {
  for (int root = 0; root < 5; ++root) {
    Runtime rt = make_runtime(5);
    rt.run([root](Comm& comm) {
      std::vector<int> data(17, comm.rank() == root ? 42 + root : -1);
      comm.bcast(std::span<int>(data), root);
      for (int v : data) ASSERT_EQ(v, 42 + root);
    });
  }
}

TEST(Comm, ReduceToEveryRoot) {
  for (int root = 0; root < 4; ++root) {
    Runtime rt = make_runtime(4);
    rt.run([root](Comm& comm) {
      std::vector<long> data = {static_cast<long>(comm.rank()), 10};
      comm.reduce(std::span<long>(data), ReduceOp::Sum, root);
      if (comm.rank() == root) {
        EXPECT_EQ(data[0], 0 + 1 + 2 + 3);
        EXPECT_EQ(data[1], 40);
      }
    });
  }
}

TEST(Comm, AllgatherOrdersByRank) {
  Runtime rt = make_runtime(6);
  rt.run([](Comm& comm) {
    const std::array<int, 2> mine = {comm.rank() * 10, comm.rank() * 10 + 1};
    auto all = comm.allgather(std::span<const int>(mine));
    ASSERT_EQ(all.size(), 12u);
    for (int r = 0; r < 6; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(2 * r)], r * 10);
      EXPECT_EQ(all[static_cast<std::size_t>(2 * r + 1)], r * 10 + 1);
    }
  });
}

class CommGatherTest : public ::testing::TestWithParam<int> {};

TEST_P(CommGatherTest, GatherAtEveryRootAndSize) {
  const int P = GetParam();
  for (int root = 0; root < P; ++root) {
    Runtime rt = make_runtime(P);
    rt.run([root, P](Comm& comm) {
      const std::array<float, 3> mine = {static_cast<float>(comm.rank()),
                                         static_cast<float>(comm.rank() * 2),
                                         -1.0f};
      auto all = comm.gather(std::span<const float>(mine), root);
      if (comm.rank() == root) {
        ASSERT_EQ(all.size(), static_cast<std::size_t>(3 * P));
        for (int r = 0; r < P; ++r) {
          EXPECT_EQ(all[static_cast<std::size_t>(3 * r)], static_cast<float>(r));
          EXPECT_EQ(all[static_cast<std::size_t>(3 * r + 1)],
                    static_cast<float>(2 * r));
        }
      } else {
        EXPECT_TRUE(all.empty());
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CommGatherTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(Comm, ScatterDistributesChunks) {
  Runtime rt = make_runtime(4);
  rt.run([](Comm& comm) {
    std::vector<double> all;
    if (comm.rank() == 2) {
      for (int i = 0; i < 8; ++i) all.push_back(i * 1.5);
    }
    auto mine = comm.scatter(std::span<const double>(all), 2, 2);
    ASSERT_EQ(mine.size(), 2u);
    EXPECT_DOUBLE_EQ(mine[0], comm.rank() * 2 * 1.5);
    EXPECT_DOUBLE_EQ(mine[1], (comm.rank() * 2 + 1) * 1.5);
  });
}

TEST(Comm, SplitByParity) {
  Runtime rt = make_runtime(6);
  rt.run([](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    // Collective inside the sub-communicator only involves same parity.
    std::vector<int> v = {comm.rank()};
    sub.allreduce(std::span<int>(v), ReduceOp::Sum);
    const int expected = comm.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5;
    EXPECT_EQ(v[0], expected);
  });
}

TEST(Comm, SplitKeyReordersRanks) {
  Runtime rt = make_runtime(4);
  rt.run([](Comm& comm) {
    // Reverse ordering via descending keys.
    Comm sub = comm.split(0, -comm.rank());
    EXPECT_EQ(sub.rank(), comm.size() - 1 - comm.rank());
  });
}

TEST(Comm, SimTimeRingScalesWithRanks) {
  // Ring allreduce of a fixed payload: simulated time must grow with the
  // latency term as ranks increase (2(P-1) alpha dominates for tiny payloads).
  const std::size_t n = 16;
  double t4 = 0.0, t16 = 0.0;
  for (int P : {4, 16}) {
    Runtime rt = make_runtime(P, /*per_node=*/1);
    rt.run([&](Comm& comm) {
      std::vector<float> data(n, 1.0f);
      comm.allreduce(std::span<float>(data), ReduceOp::Sum,
                     CollectiveAlgorithm::Ring);
    });
    (P == 4 ? t4 : t16) = rt.max_sim_time();
  }
  EXPECT_GT(t16, t4 * 2.0);
}

TEST(Comm, SimTimeLargePayloadRingBeatsTree) {
  // For large payloads ring's bandwidth optimality must beat the tree.
  const std::size_t n = 1 << 20;  // 4 MB of floats
  double t_ring = 0.0, t_tree = 0.0;
  for (auto alg :
       {CollectiveAlgorithm::Ring, CollectiveAlgorithm::BinomialTree}) {
    Runtime rt = make_runtime(8, /*per_node=*/1);
    rt.run([&, alg](Comm& comm) {
      std::vector<float> data(n, 1.0f);
      comm.allreduce(std::span<float>(data), ReduceOp::Sum, alg);
    });
    (alg == CollectiveAlgorithm::Ring ? t_ring : t_tree) = rt.max_sim_time();
  }
  EXPECT_LT(t_ring, t_tree);
}

TEST(Comm, SimTimeGceBeatsSoftwareOnEsbFabric) {
  const std::size_t n = 1 << 16;
  double t_gce = 0.0, t_ring = 0.0;
  for (auto alg : {CollectiveAlgorithm::GceOffload, CollectiveAlgorithm::Ring}) {
    Runtime rt = make_runtime(32, /*per_node=*/1);
    rt.run([&, alg](Comm& comm) {
      std::vector<float> data(n, 2.0f);
      comm.allreduce(std::span<float>(data), ReduceOp::Sum, alg);
    });
    (alg == CollectiveAlgorithm::GceOffload ? t_gce : t_ring) =
        rt.max_sim_time();
  }
  EXPECT_LT(t_gce, t_ring);
}

TEST(Comm, ComputeChargeUsesRoofline) {
  ComputeProfile p;
  p.peak_flops = 1e12;
  p.efficiency = 0.5;
  p.mem_bandwidth_Bps = 1e11;
  Runtime rt(Machine::homogeneous(1, 1, test_config(), p));
  rt.run([](Comm& comm) {
    comm.charge_compute(/*flops=*/1e9, /*bytes=*/1e3);  // compute bound
    EXPECT_NEAR(comm.sim_now(), 1e9 / 5e11, 1e-12);
    comm.charge_compute(/*flops=*/1.0, /*bytes=*/1e9);  // memory bound
    EXPECT_NEAR(comm.sim_now(), 1e9 / 5e11 + 1e9 / 1e11, 1e-9);
  });
}

TEST(Comm, BytesSentAccounting) {
  Runtime rt = make_runtime(2);
  rt.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<float> v(100, 1.0f);
      comm.send(std::span<const float>(v), 1, 0);
    } else {
      std::vector<float> v(100);
      comm.recv(std::span<float>(v), 0, 0);
    }
  });
  EXPECT_EQ(rt.bytes_sent()[0], 400u);
  EXPECT_EQ(rt.bytes_sent()[1], 0u);
}

TEST(Comm, ExceptionInRankPropagates) {
  Runtime rt = make_runtime(1);
  EXPECT_THROW(
      rt.run([](Comm&) { throw std::runtime_error("rank failure"); }),
      std::runtime_error);
}

TEST(Comm, ChargeAllreduceMatchesAnalyticModel) {
  // charge_allreduce must price exactly what the analytic model says, after
  // max-synchronising the participants' clocks.
  Runtime rt = make_runtime(8, /*per_node=*/1);
  rt.run([](Comm& comm) {
    if (comm.rank() == 5) comm.charge_seconds(2e-3);  // slow rank
    const std::uint64_t bytes = 1u << 20;
    comm.charge_allreduce(bytes, CollectiveAlgorithm::Ring);
    const auto model = comm.machine().collective_model(
        {0, 1, 2, 3, 4, 5, 6, 7});
    const double expected =
        2e-3 + model.allreduce(8, bytes, CollectiveAlgorithm::Ring);
    EXPECT_NEAR(comm.sim_now(), expected, 1e-9);
  });
}

TEST(Comm, ChargeAllreduceMovesNoPayload) {
  Runtime rt = make_runtime(4, /*per_node=*/1);
  rt.run([](Comm& comm) {
    comm.charge_allreduce(100u << 20, CollectiveAlgorithm::Ring);
  });
  // Only zero-length sync envelopes crossed the wire.
  for (auto b : rt.bytes_sent()) EXPECT_EQ(b, 0u);
}

TEST(Comm, LamportCausality) {
  // A message chain 0 -> 1 -> 2 must produce strictly increasing sim times.
  Runtime rt = make_runtime(3, /*per_node=*/1);
  std::array<std::atomic<double>, 3> times{};
  rt.run([&](Comm& comm) {
    int token = 1;
    if (comm.rank() == 0) {
      comm.charge_seconds(1e-4);
      comm.send(std::span<const int>(&token, 1), 1, 0);
    } else {
      comm.recv(std::span<int>(&token, 1), comm.rank() - 1, 0);
      if (comm.rank() == 1) comm.send(std::span<const int>(&token, 1), 2, 0);
    }
    times[static_cast<std::size_t>(comm.rank())] = comm.sim_now();
  });
  EXPECT_GT(times[1].load(), 0.0);
  EXPECT_GT(times[2].load(), times[1].load());
}

}  // namespace
