// Tests for the MSA core: hardware catalogue (Table I), modules, analytic
// placement model, heterogeneous scheduler and machine builder.
#include <gtest/gtest.h>

#include "core/hardware.hpp"
#include "core/machine_builder.hpp"
#include "core/module.hpp"
#include "core/perfmodel.hpp"
#include "core/scheduler.hpp"
#include "core/workload.hpp"

namespace {

using namespace msa::core;

TEST(Hardware, TableOneDamNodeSpec) {
  // Exact values from Table I of the paper.
  const NodeSpec dam = deep_dam_node();
  EXPECT_EQ(dam.cpu_sockets, 2);               // 2x Intel Xeon Cascade Lake
  ASSERT_TRUE(dam.gpu.has_value());
  EXPECT_EQ(dam.gpus_per_node, 1);             // 1 NVIDIA V100
  EXPECT_TRUE(dam.has_fpga);                   // 1 Stratix10
  EXPECT_DOUBLE_EQ(dam.dram_GB, 384.0);        // 384 GB DDR4 / node
  EXPECT_DOUBLE_EQ(dam.fpga_mem_GB, 32.0);     // 32 GB FPGA DDR4
  EXPECT_DOUBLE_EQ(dam.hbm_GB, 32.0);          // 32 GB HBM2
  EXPECT_DOUBLE_EQ(dam.nvme_TB, 3.0);          // 2x 1.5 TB NVMe
}

TEST(Hardware, A100OutperformsV100) {
  EXPECT_GT(a100().fp32_tflops, v100().fp32_tflops);
  EXPECT_GT(a100().tensor_tflops, v100().tensor_tflops);
  EXPECT_GT(a100().mem_bw_GBps, v100().mem_bw_GBps);
  // Tensor-core profile must dominate the fp32 profile.
  const auto tc = a100().compute_profile(true);
  const auto fp = a100().compute_profile(false);
  EXPECT_GT(tc.peak_flops, fp.peak_flops);
}

TEST(Hardware, NodePowerAndFlops) {
  const NodeSpec booster = juwels_booster_node();
  EXPECT_GT(booster.busy_W(), booster.idle_W);
  EXPECT_GT(booster.peak_flops(true), booster.peak_flops(false));
  // GPU flops dominate the node.
  EXPECT_GT(booster.peak_flops(false),
            4 * 0.9 * booster.gpu->fp32_tflops * 1e12);
}

TEST(Module, JuwelsMatchesPaperScale) {
  const MsaSystem juwels = make_juwels();
  const Module& cluster = juwels.module(ModuleKind::Cluster);
  const Module& booster = juwels.module(ModuleKind::Booster);
  EXPECT_EQ(cluster.node_count, 2583);  // Sec. II-B
  // "3,744 GPUs in the booster module"
  EXPECT_EQ(booster.total_devices(), 3744);
  // "122,768 CPU cores ... in the cluster module"
  EXPECT_EQ(cluster.node_count * cluster.node.cpu_sockets *
                cluster.node.cpu.cores,
            2583 * 2 * 24);
}

TEST(Module, DeepEstHasTheFourComputeModules) {
  const MsaSystem deep = make_deep_est();
  EXPECT_TRUE(deep.has_module(ModuleKind::Cluster));
  EXPECT_TRUE(deep.has_module(ModuleKind::ExtremeScaleBooster));
  EXPECT_TRUE(deep.has_module(ModuleKind::DataAnalytics));
  EXPECT_EQ(deep.module(ModuleKind::DataAnalytics).node_count, 16);
  EXPECT_TRUE(deep.module(ModuleKind::ExtremeScaleBooster).gce);
  EXPECT_THROW((void)deep.module(ModuleKind::Quantum), std::out_of_range);
}

TEST(PerfModel, GpuOnlyWorkloadInfeasibleOnCpuModule) {
  const MsaSystem juwels = make_juwels();
  const auto est = estimate_placement(wl_resnet_training(),
                                      juwels.module(ModuleKind::Cluster), 16);
  EXPECT_FALSE(est.feasible);
}

TEST(PerfModel, DlTrainingFasterOnBoosterThanDamScaleOut) {
  const MsaSystem juwels = make_juwels();
  const MsaSystem deep = make_deep_est();
  const auto booster = best_placement(wl_resnet_training(),
                                      juwels.module(ModuleKind::Booster));
  const auto dam = best_placement(wl_resnet_training(),
                                  deep.module(ModuleKind::DataAnalytics));
  ASSERT_GT(booster.nodes, 0);
  ASSERT_GT(dam.nodes, 0);
  EXPECT_LT(booster.estimate.time_s, dam.estimate.time_s);
}

TEST(PerfModel, SparkWorkloadSpillsOnClusterNotOnDam) {
  const MsaSystem juwels = make_juwels();
  const MsaSystem deep = make_deep_est();
  const Workload spark = wl_spark_analytics();
  // On DAM nodes (384 GB) the 200 GB/node footprint fits.
  const auto dam = estimate_placement(
      spark, deep.module(ModuleKind::DataAnalytics), 16);
  ASSERT_TRUE(dam.feasible);
  EXPECT_DOUBLE_EQ(dam.spill_s, 0.0);
  // On JUWELS cluster nodes (96 GB) it cannot even spill (no NVMe).
  const auto cm = estimate_placement(
      spark, juwels.module(ModuleKind::Cluster), 16);
  EXPECT_FALSE(cm.feasible);
}

TEST(PerfModel, AmdahlLimitsScaling) {
  const MsaSystem deep = make_deep_est();
  Workload w = wl_svm_training();
  w.serial_fraction = 0.1;
  const Module& cm = deep.module(ModuleKind::Cluster);
  const auto t1 = estimate_placement(w, cm, 1);
  const auto t16 = estimate_placement(w, cm, 16);
  ASSERT_TRUE(t1.feasible);
  ASSERT_TRUE(t16.feasible);
  const double speedup = t1.time_s / t16.time_s;
  EXPECT_LT(speedup, 1.0 / 0.1);             // Amdahl bound
  EXPECT_GT(speedup, 4.0);                    // but still scales usefully
}

TEST(PerfModel, CommCostGrowsWithAllreduceWorkload) {
  const MsaSystem juwels = make_juwels();
  const Module& booster = juwels.module(ModuleKind::Booster);
  Workload w = wl_resnet_training();
  const auto e8 = estimate_placement(w, booster, 8);
  const auto e64 = estimate_placement(w, booster, 64);
  ASSERT_TRUE(e8.feasible);
  ASSERT_TRUE(e64.feasible);
  EXPECT_GT(e64.comm_s, 0.0);
  EXPECT_LT(e64.compute_s, e8.compute_s);  // compute shrinks with nodes
}

TEST(PerfModel, EnergyScalesWithNodesAndTime) {
  const MsaSystem deep = make_deep_est();
  const Module& cm = deep.module(ModuleKind::Cluster);
  Workload w = wl_svm_training();
  const auto e1 = estimate_placement(w, cm, 1);
  const auto e4 = estimate_placement(w, cm, 4);
  // Perfect scaling keeps energy ~constant; Amdahl + comm make 4 nodes
  // strictly less energy-efficient.
  EXPECT_GT(e4.energy_J, e1.energy_J * 0.99);
}

TEST(Scheduler, PlacesEveryFeasibleJob) {
  const MsaSystem deep = make_deep_est();
  const auto result = schedule(example_workload_mix(), deep);
  EXPECT_TRUE(result.unschedulable.empty());
  EXPECT_EQ(result.assignments.size(), example_workload_mix().size());
  EXPECT_GT(result.makespan_s, 0.0);
  EXPECT_GT(result.total_energy_J, 0.0);
}

TEST(Scheduler, MatchesWorkloadsToTheRightModules) {
  const MsaSystem deep = make_deep_est();
  const auto result = schedule(example_workload_mix(), deep);
  // The memory-hungry Spark job must land on the DAM.
  EXPECT_EQ(result.assignment_for("Spark HPDA aggregation").module, "DAM");
  // GPU-only DL training cannot land on the CPU-only CM.
  EXPECT_NE(result.assignment_for("ResNet-50 distributed training").module,
            "CM");
}

TEST(Scheduler, HeterogeneousSystemBeatsHomogeneousCluster) {
  // The Fig. 2 argument: a homogeneous CPU cluster (same total node count)
  // either cannot run the mix or takes far longer.
  const MsaSystem deep = make_deep_est();
  MsaSystem homogeneous("CPU-only", msa::simnet::FabricKind::InfinibandEDR,
                        deep.storage());
  homogeneous.add_module(
      {ModuleKind::Cluster, "CM-large", deep_cm_node(), 141,
       msa::simnet::FabricKind::InfinibandEDR, false});
  const auto het = schedule(example_workload_mix(), deep);
  const auto hom = schedule(example_workload_mix(), homogeneous);
  // The GPU-only training job is unschedulable on the homogeneous system.
  EXPECT_FALSE(hom.unschedulable.empty());
  EXPECT_TRUE(het.unschedulable.empty());
}

TEST(Scheduler, RespectsModuleCapacityOverTime) {
  // Two jobs that each want the whole DAM must serialise.
  const MsaSystem deep = make_deep_est();
  Workload a = wl_spark_analytics();
  a.name = "spark-a";
  Workload b = wl_spark_analytics();
  b.name = "spark-b";
  const auto result = schedule({a, b}, deep);
  ASSERT_EQ(result.assignments.size(), 2u);
  const auto& first = result.assignments[0];
  const auto& second = result.assignments[1];
  if (first.nodes + second.nodes > 16) {
    // Overlapping in space is impossible; must not overlap in time.
    const bool disjoint = first.finish_s <= second.start_s + 1e-9 ||
                          second.finish_s <= first.start_s + 1e-9;
    EXPECT_TRUE(disjoint);
  }
}

TEST(Scheduler, EnergyWeightShiftsPlacements) {
  const MsaSystem deep = make_deep_est();
  SchedulerOptions time_only;
  SchedulerOptions energy_heavy;
  energy_heavy.energy_weight = 1e-6;
  const auto t = schedule(example_workload_mix(), deep, time_only);
  const auto e = schedule(example_workload_mix(), deep, energy_heavy);
  EXPECT_LE(e.total_energy_J, t.total_energy_J * 1.2);
}

TEST(MachineBuilder, BoosterMachineUsesNvlinkAndHdr) {
  const MsaSystem juwels = make_juwels();
  const auto machine =
      build_machine(juwels, juwels.module(ModuleKind::Booster), 8);
  EXPECT_EQ(machine.ranks(), 8);
  // Ranks 0-3 share node 0 (4 GPUs per node), 4-7 are node 1.
  EXPECT_EQ(machine.location(3).node, 0);
  EXPECT_EQ(machine.location(4).node, 1);
  // Intra-node is NVLink3 (A100), intra-module is HDR.
  EXPECT_GT(machine.link_between(0, 1).bandwidth_Bps, 100e9);
  EXPECT_LT(machine.link_between(0, 4).bandwidth_Bps, 100e9);
  // Tensor-core profile applied.
  EXPECT_GT(machine.compute(0).peak_flops, 1e14);
}

TEST(MachineBuilder, RejectsOversubscription) {
  const MsaSystem deep = make_deep_est();
  const Module& dam = deep.module(ModuleKind::DataAnalytics);
  // DAM has 16 nodes x 1 GPU.
  EXPECT_THROW(build_machine(deep, dam, 17), std::invalid_argument);
  EXPECT_NO_THROW(build_machine(deep, dam, 16));
}

TEST(MachineBuilder, CrossModuleAllocationUsesFederation) {
  const MsaSystem deep = make_deep_est();
  const Module& cm = deep.module(ModuleKind::Cluster);
  const Module& dam = deep.module(ModuleKind::DataAnalytics);
  const auto machine = build_machine(deep, {{&cm, 2, false}, {&dam, 2, true}});
  EXPECT_EQ(machine.ranks(), 4);
  EXPECT_EQ(machine.location(0).module, 0);
  EXPECT_EQ(machine.location(2).module, 1);
  // Cross-module pair uses the federation link (EXTOLL).
  EXPECT_DOUBLE_EQ(
      machine.link_between(0, 2).latency_s,
      msa::simnet::fabric_profile(msa::simnet::FabricKind::ExtollTourmalet)
          .link.latency_s);
}

TEST(Workload, CatalogueIntensities) {
  // Spark analytics must be memory-bound (low intensity), DL compute-bound.
  EXPECT_LT(wl_spark_analytics().intensity(), 1.0);
  EXPECT_GT(wl_resnet_training().intensity(), 100.0);
}

}  // namespace
