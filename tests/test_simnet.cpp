// Tests for the network/compute performance models.
#include <gtest/gtest.h>

#include "simnet/collective.hpp"
#include "simnet/fabric.hpp"
#include "simnet/machine.hpp"

namespace {

using namespace msa::simnet;

TEST(Fabric, CatalogueIsComplete) {
  for (auto kind :
       {FabricKind::InfinibandEDR, FabricKind::InfinibandHDR,
        FabricKind::ExtollTourmalet, FabricKind::NVLink3, FabricKind::NVLink2,
        FabricKind::PCIe3, FabricKind::GigabitEthernet}) {
    const auto& p = fabric_profile(kind);
    EXPECT_FALSE(p.name.empty());
    EXPECT_GT(p.link.bandwidth_Bps, 0.0);
    EXPECT_GT(p.link.latency_s, 0.0);
  }
}

TEST(Fabric, HdrIsFasterThanEdr) {
  const auto& edr = fabric_profile(FabricKind::InfinibandEDR).link;
  const auto& hdr = fabric_profile(FabricKind::InfinibandHDR).link;
  EXPECT_GT(hdr.bandwidth_Bps, edr.bandwidth_Bps);
  // Large transfers must be ~2x faster on HDR.
  const double t_edr = edr.transfer_time(1u << 30);
  const double t_hdr = hdr.transfer_time(1u << 30);
  EXPECT_NEAR(t_edr / t_hdr, 2.1, 0.3);
}

TEST(Link, TransferTimeDecomposes) {
  LinkModel link{2e-6, 1e10, 1e-6};
  EXPECT_DOUBLE_EQ(link.transfer_time(0), 3e-6);
  EXPECT_NEAR(link.transfer_time(1'000'000), 3e-6 + 1e-4, 1e-12);
  EXPECT_LT(link.effective_bandwidth(100), link.bandwidth_Bps);
  EXPECT_GT(link.effective_bandwidth(1u << 30), 0.95 * link.bandwidth_Bps);
}

class CollectiveScalingTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveScalingTest, RingIsBandwidthOptimalForLargeMessages) {
  const int P = GetParam();
  CollectiveModel m(fabric_profile(FabricKind::InfinibandHDR).link);
  const std::uint64_t big = 100u << 20;
  const double ring = m.allreduce(P, big, CollectiveAlgorithm::Ring);
  const double tree = m.allreduce(P, big, CollectiveAlgorithm::BinomialTree);
  EXPECT_LT(ring, tree);
  // Ring bandwidth term approaches 2n/B independent of P.
  const double lower_bound = 2.0 * static_cast<double>(big) /
                             m.link().bandwidth_Bps * (P - 1) / P;
  EXPECT_GT(ring, lower_bound * 0.99);
}

TEST_P(CollectiveScalingTest, TreeWinsForTinyMessages) {
  const int P = GetParam();
  if (P < 8) return;  // latency advantage needs enough ranks
  CollectiveModel m(fabric_profile(FabricKind::InfinibandHDR).link);
  const double ring = m.allreduce(P, 4, CollectiveAlgorithm::Ring);
  const double tree = m.allreduce(P, 4, CollectiveAlgorithm::BinomialTree);
  EXPECT_LT(tree, ring);
}

TEST_P(CollectiveScalingTest, RabenseifnerDominatesOrMatches) {
  // Rabenseifner has log-P latency AND ring bandwidth: never worse than ring
  // by more than rounding, never worse than tree for big payloads.
  const int P = GetParam();
  CollectiveModel m(fabric_profile(FabricKind::InfinibandEDR).link);
  for (std::uint64_t n : {64ull, 1ull << 16, 1ull << 24}) {
    const double rab = m.allreduce(P, n, CollectiveAlgorithm::Rabenseifner);
    const double ring = m.allreduce(P, n, CollectiveAlgorithm::Ring);
    EXPECT_LE(rab, ring * 1.0001) << "P=" << P << " n=" << n;
  }
}

TEST_P(CollectiveScalingTest, GceOffloadIsNearlyRankIndependent) {
  const int P = GetParam();
  CollectiveModel m(fabric_profile(FabricKind::ExtollTourmalet).link);
  const std::uint64_t n = 1u << 20;
  const double t_p = m.allreduce(P, n, CollectiveAlgorithm::GceOffload);
  const double t_2 = m.allreduce(2, n, CollectiveAlgorithm::GceOffload);
  EXPECT_LT(t_p, t_2 * 3.0);  // grows only with log_radix(P) stages
  const double sw = m.allreduce(P, n, CollectiveAlgorithm::Ring);
  if (P >= 4) {
    EXPECT_LT(t_p, sw);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, CollectiveScalingTest,
                         ::testing::Values(2, 4, 8, 16, 64, 128, 512));

TEST(Collective, BestAllreducePicksGceWhenAvailable) {
  CollectiveModel m(fabric_profile(FabricKind::ExtollTourmalet).link);
  const auto with_gce = m.best_allreduce(64, 1u << 20, true);
  EXPECT_EQ(with_gce, CollectiveAlgorithm::GceOffload);
  const auto without = m.best_allreduce(64, 1u << 20, false);
  EXPECT_NE(without, CollectiveAlgorithm::GceOffload);
}

TEST(Collective, BarrierGrowsLogarithmically) {
  CollectiveModel m(fabric_profile(FabricKind::InfinibandEDR).link);
  EXPECT_NEAR(m.barrier(16) / m.barrier(4), 2.0, 1e-9);
  EXPECT_NEAR(m.barrier(256) / m.barrier(16), 2.0, 1e-9);
}

TEST(Machine, LinkHierarchySelection) {
  MachineConfig cfg;
  cfg.intra_node = {1e-7, 1e11, 0.0};
  cfg.intra_module = {1e-6, 1e10, 0.0};
  cfg.federation = {1e-5, 1e9, 0.0};
  std::vector<RankLocation> placement = {
      {0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {1, 0, 0}};
  std::vector<ComputeProfile> compute(4);
  Machine m(cfg, placement, compute);
  EXPECT_DOUBLE_EQ(m.link_between(0, 1).latency_s, 1e-7);  // same node
  EXPECT_DOUBLE_EQ(m.link_between(0, 2).latency_s, 1e-6);  // same module
  EXPECT_DOUBLE_EQ(m.link_between(0, 3).latency_s, 1e-5);  // federation
}

TEST(Machine, CollectiveModelUsesWidestSeparation) {
  MachineConfig cfg;
  cfg.intra_node = {1e-7, 1e11, 0.0};
  cfg.intra_module = {1e-6, 1e10, 0.0};
  cfg.federation = {1e-5, 1e9, 0.0};
  cfg.gce_available = true;
  std::vector<RankLocation> placement = {
      {0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {1, 0, 0}};
  Machine m(cfg, placement, std::vector<ComputeProfile>(4));
  EXPECT_DOUBLE_EQ(m.collective_model({0, 1}).link().latency_s, 1e-7);
  EXPECT_DOUBLE_EQ(m.collective_model({0, 1, 2}).link().latency_s, 1e-6);
  EXPECT_DOUBLE_EQ(m.collective_model({0, 1, 2, 3}).link().latency_s, 1e-5);
  EXPECT_TRUE(m.gce_usable({0, 1, 2}));
  EXPECT_FALSE(m.gce_usable({0, 3}));  // crosses the federation
}

TEST(Machine, HomogeneousFactoryPacksNodes) {
  MachineConfig cfg;
  Machine m = Machine::homogeneous(10, 4, cfg, ComputeProfile{});
  EXPECT_EQ(m.ranks(), 10);
  EXPECT_EQ(m.location(0).node, 0);
  EXPECT_EQ(m.location(3).node, 0);
  EXPECT_EQ(m.location(4).node, 1);
  EXPECT_EQ(m.location(9).device, 1);
}

TEST(ComputeProfile, RooflineTransition) {
  ComputeProfile p;
  p.peak_flops = 1e12;
  p.efficiency = 1.0;
  p.mem_bandwidth_Bps = 1e10;
  // Intensity above the ridge (100 flops/byte) is compute bound.
  EXPECT_DOUBLE_EQ(p.kernel_time(1e12, 1e9), 1.0 + 0.0);  // 1e12/1e12 vs 0.1 s
  // Below the ridge memory dominates.
  EXPECT_DOUBLE_EQ(p.kernel_time(1e9, 1e10), 1.0);  // 1e10/1e10 = 1 s
}

}  // namespace
