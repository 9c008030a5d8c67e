// Property-based invariant tests across modules (parameterised sweeps).
//
// These complement the example-based unit tests with algebraic identities:
// adjointness of im2col/col2im, composition identities of collectives,
// KKT conditions of the SMO solution, schedule feasibility invariants, etc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "comm/runtime.hpp"
#include "core/module.hpp"
#include "core/scheduler.hpp"
#include "data/synthetic.hpp"
#include "dist/distributed.hpp"
#include "ml/svm.hpp"
#include "nn/schedule.hpp"
#include "tensor/ops.hpp"

namespace {

using msa::comm::Comm;
using msa::comm::ReduceOp;
using msa::comm::Runtime;
using msa::simnet::ComputeProfile;
using msa::simnet::Machine;
using msa::simnet::MachineConfig;
using msa::tensor::Rng;
using msa::tensor::Tensor;

Runtime make_runtime(int ranks) {
  MachineConfig cfg;
  return Runtime(Machine::homogeneous(ranks, 2, cfg, ComputeProfile{}));
}

// ---- tensor kernel identities ---------------------------------------------------

struct ConvGeom {
  std::size_t c, h, w, k, stride, pad;
};

class Im2ColAdjointTest : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(Im2ColAdjointTest, InnerProductIdentity) {
  // col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>, with
  // the column rows ld = out_h*out_w + 5 apart.  The 5 floats past each row
  // are NaN: im2col must leave them, and col2im must not read them.
  const auto g = GetParam();
  Rng rng(5);
  const std::size_t oh = msa::tensor::conv_out_size(g.h, g.k, g.stride, g.pad);
  const std::size_t ow = msa::tensor::conv_out_size(g.w, g.k, g.stride, g.pad);
  const std::size_t rows = g.c * g.k * g.k;
  const std::size_t ld = oh * ow + 5;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor x = Tensor::randn({g.c, g.h, g.w}, rng);
  Tensor y = Tensor::randn({rows, ld}, rng);
  std::vector<float> cols(rows * ld, nan);
  for (std::size_t r = 0; r < rows; ++r) {
    std::fill(y.data() + r * ld + oh * ow, y.data() + (r + 1) * ld, nan);
  }
  msa::tensor::im2col(x.data(), g.c, g.h, g.w, g.k, g.k, g.stride, g.pad,
                      cols.data(), ld);
  Tensor xt(x.shape());
  msa::tensor::col2im(y.data(), g.c, g.h, g.w, g.k, g.k, g.stride, g.pad,
                      xt.data(), ld);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < ld; ++i) {
      if (i < oh * ow) {
        lhs += static_cast<double>(cols[r * ld + i]) * y[r * ld + i];
      } else {
        EXPECT_TRUE(std::isnan(cols[r * ld + i])) << "row " << r << " " << i;
      }
    }
  }
  for (std::size_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * xt[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::fabs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2ColAdjointTest,
    // Stride 1 with k = 2p + 1 shifts planes (the last one by more than
    // the plane); the others take the element loop.
    ::testing::Values(ConvGeom{1, 5, 5, 3, 1, 1}, ConvGeom{3, 8, 8, 3, 1, 1},
                      ConvGeom{2, 7, 9, 3, 2, 0}, ConvGeom{4, 6, 6, 1, 1, 0},
                      ConvGeom{2, 10, 10, 5, 2, 2}, ConvGeom{2, 6, 9, 5, 1, 2},
                      ConvGeom{2, 5, 4, 3, 1, 2}, ConvGeom{1, 1, 3, 5, 1, 2}),
    [](const auto& info) {
      const auto& g = info.param;
      std::string name;
      for (const auto& [tag, v] : {std::pair{'c', g.c}, std::pair{'h', g.h},
                                   std::pair{'w', g.w}, std::pair{'k', g.k},
                                   std::pair{'s', g.stride},
                                   std::pair{'p', g.pad}}) {
        name += tag;
        name += std::to_string(v);
      }
      return name;
    });

TEST(GemmProperties, TransposeIdentity) {
  // (A B)^T == B^T A^T.
  Rng rng(6);
  Tensor a = Tensor::randn({5, 7}, rng);
  Tensor b = Tensor::randn({7, 4}, rng);
  Tensor ab = msa::tensor::matmul(a, b);
  Tensor abt = msa::tensor::transpose(ab);
  Tensor bt_at({4, 5});
  msa::tensor::gemm(/*trans_a=*/true, /*trans_b=*/true, 1.0f, b, a, 0.0f,
                    bt_at);
  for (std::size_t i = 0; i < abt.numel(); ++i) {
    ASSERT_NEAR(abt[i], bt_at[i], 1e-4f);
  }
}

TEST(GemmProperties, BetaAccumulation) {
  Rng rng(7);
  Tensor a = Tensor::randn({3, 3}, rng);
  Tensor b = Tensor::randn({3, 3}, rng);
  Tensor c0 = Tensor::randn({3, 3}, rng);
  Tensor c = c0;
  msa::tensor::gemm(false, false, 2.0f, a, b, 0.5f, c);
  Tensor ab = msa::tensor::matmul(a, b);
  for (std::size_t i = 0; i < c.numel(); ++i) {
    ASSERT_NEAR(c[i], 2.0f * ab[i] + 0.5f * c0[i], 1e-4f);
  }
}

TEST(SoftmaxProperties, RowsSumToOneAndShiftInvariant) {
  Rng rng(8);
  Tensor logits = Tensor::randn({6, 9}, rng, 3.0f);
  Tensor shifted = logits;
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 9; ++c) shifted.at2(r, c) += 100.0f;
  }
  msa::tensor::softmax_rows(logits);
  msa::tensor::softmax_rows(shifted);
  for (std::size_t r = 0; r < 6; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 9; ++c) {
      sum += logits.at2(r, c);
      ASSERT_NEAR(logits.at2(r, c), shifted.at2(r, c), 1e-5f);
    }
    ASSERT_NEAR(sum, 1.0f, 1e-5f);
  }
}

// ---- collective composition identities -------------------------------------------

class CollectiveCompositionTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveCompositionTest, ReduceScatterThenAllgatherEqualsAllreduce) {
  const int P = GetParam();
  const std::size_t chunk = 7;
  Runtime rt = make_runtime(P);
  rt.run([&](Comm& comm) {
    std::vector<float> data(chunk * static_cast<std::size_t>(P));
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<float>((comm.rank() + 1) * (i % 5 + 1));
    }
    std::vector<float> reference = data;
    comm.allreduce(std::span<float>(reference), ReduceOp::Sum,
                   msa::simnet::CollectiveAlgorithm::BinomialTree);
    auto mine = comm.reduce_scatter(std::span<float>(data), chunk,
                                    ReduceOp::Sum);
    auto full = comm.allgather(std::span<const float>(mine));
    ASSERT_EQ(full.size(), reference.size());
    for (std::size_t i = 0; i < full.size(); ++i) {
      ASSERT_NEAR(full[i], reference[i], 1e-3f) << i;
    }
  });
}

TEST_P(CollectiveCompositionTest, AllAlgorithmsAgree) {
  const int P = GetParam();
  Runtime rt = make_runtime(P);
  rt.run([](Comm& comm) {
    std::vector<double> base(257);
    for (std::size_t i = 0; i < base.size(); ++i) {
      base[i] = std::sin(static_cast<double>(i) * (comm.rank() + 1));
    }
    std::vector<std::vector<double>> results;
    for (auto alg : {msa::simnet::CollectiveAlgorithm::Ring,
                     msa::simnet::CollectiveAlgorithm::BinomialTree,
                     msa::simnet::CollectiveAlgorithm::Rabenseifner,
                     msa::simnet::CollectiveAlgorithm::GceOffload}) {
      auto copy = base;
      comm.allreduce(std::span<double>(copy), ReduceOp::Sum, alg);
      results.push_back(std::move(copy));
    }
    for (std::size_t a = 1; a < results.size(); ++a) {
      for (std::size_t i = 0; i < base.size(); ++i) {
        ASSERT_NEAR(results[a][i], results[0][i], 1e-9) << a << " " << i;
      }
    }
  });
}

TEST_P(CollectiveCompositionTest, GatherScatterRoundTrip) {
  const int P = GetParam();
  Runtime rt = make_runtime(P);
  rt.run([&](Comm& comm) {
    const std::array<float, 4> mine = {
        static_cast<float>(comm.rank()), 1.0f,
        static_cast<float>(comm.rank() * comm.rank()), -2.0f};
    auto gathered = comm.gather(std::span<const float>(mine), 0);
    auto back = comm.scatter(std::span<const float>(gathered), 4, 0);
    ASSERT_EQ(back.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      ASSERT_EQ(back[i], mine[i]) << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, CollectiveCompositionTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

// ---- SMO optimality (KKT) --------------------------------------------------------

TEST(SvmProperties, SolutionSatisfiesKkt) {
  const auto problem = msa::data::make_moons(150, 0.1, 17);
  msa::ml::SvmConfig cfg;
  cfg.kernel = {msa::ml::KernelKind::Rbf, 2.0};
  cfg.C = 5.0;
  cfg.tol = 1e-3;
  const auto result = msa::ml::train_svm_full(problem, cfg);
  // KKT: alpha=0 -> y f(x) >= 1 - tol; 0<alpha<C -> y f(x) ~ 1;
  // alpha=C -> y f(x) <= 1 + tol.
  int violations = 0;
  for (std::size_t i = 0; i < problem.size(); ++i) {
    const double yf =
        problem.y[i] * result.model.decision(problem.row(i));
    const double a = result.alphas[i];
    const double slack = 0.05;  // simplified SMO leaves small residuals
    if (a < 1e-8) {
      if (yf < 1.0 - slack) ++violations;
    } else if (a > cfg.C - 1e-8) {
      if (yf > 1.0 + slack) ++violations;
    } else {
      if (std::fabs(yf - 1.0) > slack) ++violations;
    }
  }
  // Allow a small fraction of soft violations (stochastic SMO pair choice).
  EXPECT_LT(violations, static_cast<int>(problem.size() / 10));
}

TEST(SvmProperties, DualFeasibility) {
  const auto problem = msa::data::make_blobs(120, 3.0, 18);
  msa::ml::SvmConfig cfg;
  cfg.kernel.kind = msa::ml::KernelKind::Linear;
  cfg.C = 2.0;
  const auto result = msa::ml::train_svm_full(problem, cfg);
  // 0 <= alpha <= C and sum alpha_i y_i == 0 (maintained by pairwise SMO).
  double balance = 0.0;
  for (std::size_t i = 0; i < problem.size(); ++i) {
    EXPECT_GE(result.alphas[i], -1e-12);
    EXPECT_LE(result.alphas[i], cfg.C + 1e-12);
    balance += result.alphas[i] * problem.y[i];
  }
  EXPECT_NEAR(balance, 0.0, 1e-6);
}

// ---- LR schedule properties -------------------------------------------------------

class WarmupScheduleTest : public ::testing::TestWithParam<int> {};

TEST_P(WarmupScheduleTest, RampsMonotonicallyToScaledRate) {
  const int workers = GetParam();
  msa::nn::LargeBatchSchedule s(0.1, workers, 10);
  double prev = 0.0;
  for (std::size_t step = 0; step < 10; ++step) {
    const double lr = s.lr(step);
    EXPECT_GE(lr, prev);
    EXPECT_GE(lr, 0.1 - 1e-12);           // never below base
    EXPECT_LE(lr, 0.1 * workers + 1e-12); // never above target
    prev = lr;
  }
  EXPECT_NEAR(s.lr(10), 0.1 * workers, 1e-12);
  EXPECT_NEAR(s.lr(500), 0.1 * workers, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Workers, WarmupScheduleTest,
                         ::testing::Values(1, 4, 16, 96, 128));

TEST(WarmupSchedule, MilestonesDecay) {
  msa::nn::LargeBatchSchedule s(0.1, 8, 0, {100, 200}, 0.1);
  EXPECT_NEAR(s.lr(50), 0.8, 1e-12);
  EXPECT_NEAR(s.lr(150), 0.08, 1e-12);
  EXPECT_NEAR(s.lr(250), 0.008, 1e-12);
}

// ---- scheduler invariants -----------------------------------------------------------

TEST(SchedulerProperties, AssignmentsRespectModuleBounds) {
  using namespace msa::core;
  const auto deep = make_deep_est();
  const auto result = schedule(example_workload_mix(), deep);
  for (const auto& a : result.assignments) {
    const Module& m = deep.module_by_name(a.module);
    EXPECT_GE(a.nodes, 1);
    EXPECT_LE(a.nodes, m.node_count);
    EXPECT_GE(a.start_s, 0.0);
    EXPECT_GT(a.finish_s, a.start_s);
    EXPECT_LE(a.finish_s, result.makespan_s + 1e-9);
    EXPECT_TRUE(a.estimate.feasible);
  }
}

TEST(SchedulerProperties, ConcurrentLoadNeverExceedsCapacity) {
  using namespace msa::core;
  const auto deep = make_deep_est();
  // Duplicate the mix to force contention.
  std::vector<Workload> jobs;
  for (int rep = 0; rep < 3; ++rep) {
    for (auto w : example_workload_mix()) {
      w.name += '#';
      w.name += std::to_string(rep);
      jobs.push_back(w);
    }
  }
  const auto result = schedule(jobs, deep);
  // Check capacity at every assignment boundary instant.
  for (const auto& probe : result.assignments) {
    for (double t : {probe.start_s + 1e-6, probe.finish_s - 1e-6}) {
      for (const auto& m : deep.modules()) {
        int used = 0;
        for (const auto& a : result.assignments) {
          if (a.module == m.name && a.start_s <= t && t < a.finish_s) {
            used += a.nodes;
          }
        }
        EXPECT_LE(used, m.node_count) << m.name << " at t=" << t;
      }
    }
  }
}

// ---- sharding coverage across configurations ---------------------------------------

class SamplerCoverageTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SamplerCoverageTest, DisjointCoverAtEveryEpoch) {
  const auto [n, world] = GetParam();
  for (std::size_t epoch : {0u, 5u}) {
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    std::size_t total = 0;
    for (int r = 0; r < world; ++r) {
      msa::dist::ShardedSampler s(static_cast<std::size_t>(n), r, world);
      for (auto i : s.epoch_indices(epoch)) {
        ASSERT_FALSE(seen[i]);
        seen[i] = true;
        ++total;
      }
    }
    EXPECT_EQ(total, static_cast<std::size_t>(n / world * world));
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, SamplerCoverageTest,
                         ::testing::Combine(::testing::Values(16, 100, 257),
                                            ::testing::Values(1, 2, 4, 7)));

}  // namespace
