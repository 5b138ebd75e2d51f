// Unit tests for src/numa: topologies, allocator ledger, counters, memory
// model, bandwidth probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "numa/access_counters.h"
#include "numa/bandwidth_probe.h"
#include "numa/memory_model.h"
#include "numa/numa_allocator.h"
#include "numa/topology.h"
#include "util/thread_util.h"

namespace dw::numa {
namespace {

TEST(TopologyTest, PaperPresetsMatchFigure3) {
  const Topology l2 = Local2();
  EXPECT_EQ(l2.num_nodes, 2);
  EXPECT_EQ(l2.cores_per_node, 6);
  EXPECT_EQ(l2.total_cores(), 12);
  EXPECT_DOUBLE_EQ(l2.llc_mb, 12);

  const Topology l4 = Local4();
  EXPECT_EQ(l4.num_nodes, 4);
  EXPECT_EQ(l4.cores_per_node, 10);
  EXPECT_DOUBLE_EQ(l4.cpu_ghz, 2.0);

  const Topology l8 = Local8();
  EXPECT_EQ(l8.num_nodes, 8);
  EXPECT_EQ(l8.cores_per_node, 8);
  EXPECT_EQ(l8.total_cores(), 64);

  EXPECT_EQ(Ec2_1().num_nodes, 2);
  EXPECT_EQ(Ec2_2().cores_per_node, 8);
  EXPECT_EQ(PaperMachines().size(), 5u);
}

TEST(TopologyTest, AlphaGrowsWithSockets) {
  // Paper Sec 3.2: alpha in [4,12], grows with socket count.
  EXPECT_LT(Local2().alpha, Local4().alpha);
  EXPECT_LT(Local4().alpha, Local8().alpha);
  EXPECT_GE(Local2().alpha, 4.0);
  EXPECT_LE(Local8().alpha, 12.0);
}

TEST(TopologyTest, NodeOfCoreIsNodeMajor) {
  const Topology l2 = Local2();
  EXPECT_EQ(l2.NodeOfCore(0), 0);
  EXPECT_EQ(l2.NodeOfCore(5), 0);
  EXPECT_EQ(l2.NodeOfCore(6), 1);
  EXPECT_EQ(l2.NodeOfCore(11), 1);
}

TEST(TopologyTest, CoresOfNodeEnumerates) {
  const Topology l2 = Local2();
  const auto cores = l2.CoresOfNode(1);
  ASSERT_EQ(cores.size(), 6u);
  EXPECT_EQ(cores.front(), 6);
  EXPECT_EQ(cores.back(), 11);
}

TEST(TopologyTest, PhysicalMappingInterleavesNodes) {
  const Topology l2 = Local2();
  // With 2 physical CPUs, node 0 and node 1 workers land on different CPUs.
  EXPECT_NE(l2.PhysicalCpuOfCore(0, 2), l2.PhysicalCpuOfCore(6, 2));
  // All mappings stay in range.
  for (int c = 0; c < l2.total_cores(); ++c) {
    EXPECT_GE(l2.PhysicalCpuOfCore(c, 2), 0);
    EXPECT_LT(l2.PhysicalCpuOfCore(c, 2), 2);
  }
}

TEST(TopologyTest, LookupByNameAndAbbrev) {
  auto t1 = TopologyByName("local4");
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1.value().num_nodes, 4);
  auto t2 = TopologyByName("l8");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2.value().num_nodes, 8);
  EXPECT_FALSE(TopologyByName("bogus").ok());
}

TEST(TopologyTest, HostTopologyIsSane) {
  const Topology host = HostTopology();
  EXPECT_GE(host.num_nodes, 1);
  EXPECT_GE(host.total_cores(), 1);
}

TEST(LedgerTest, TracksPerNodeBytes) {
  NodeLedger ledger(2);
  ledger.Add(0, 100);
  ledger.Add(1, 50);
  ledger.Add(0, 10);
  EXPECT_EQ(ledger.BytesOnNode(0), 110u);
  EXPECT_EQ(ledger.BytesOnNode(1), 50u);
  ledger.Sub(0, 100);
  EXPECT_EQ(ledger.BytesOnNode(0), 10u);
}

TEST(AllocatorTest, ArraysAreTaggedAndLedgered) {
  NumaAllocator alloc(Local2());
  {
    NodeArray<double> a = alloc.AllocateOnNode<double>(1, 1000);
    EXPECT_EQ(a.node(), 1);
    EXPECT_EQ(a.size(), 1000u);
    EXPECT_EQ(alloc.ledger().BytesOnNode(1), 8000u);
    EXPECT_EQ(alloc.ledger().BytesOnNode(0), 0u);
    a[999] = 3.5;
    EXPECT_DOUBLE_EQ(a[999], 3.5);
  }
  // Destruction returns the bytes.
  EXPECT_EQ(alloc.ledger().BytesOnNode(1), 0u);
}

TEST(AllocatorTest, MoveKeepsLedgerBalanced) {
  NumaAllocator alloc(Local2());
  NodeArray<int> a = alloc.AllocateOnNode<int>(0, 10);
  NodeArray<int> b = std::move(a);
  EXPECT_EQ(alloc.ledger().BytesOnNode(0), 40u);
  NodeArray<int> c = alloc.AllocateOnNode<int>(0, 10);
  c = std::move(b);
  EXPECT_EQ(alloc.ledger().BytesOnNode(0), 40u);
}

TEST(CountersTest, MergeAndDerivedCounts) {
  AccessCounters a, b;
  a.local_read_bytes = 640;
  a.remote_read_bytes = 1280;
  b.local_read_bytes = 60;
  b.shared_write_bytes = 100;
  a.Merge(b);
  EXPECT_EQ(a.local_read_bytes, 700u);
  EXPECT_EQ(a.remote_dram_requests(), 20u);
  EXPECT_EQ(a.total_write_bytes(), 100u);
  a.Reset();
  EXPECT_EQ(a.total_read_bytes(), 0u);
}

TEST(CountersTest, NodeTrafficAggregates) {
  NodeTraffic t(2);
  AccessCounters c;
  c.local_read_bytes = 10;
  t.Add(0, c);
  t.Add(1, c);
  t.Add(1, c);
  EXPECT_EQ(t.per_node[0].local_read_bytes, 10u);
  EXPECT_EQ(t.per_node[1].local_read_bytes, 20u);
  EXPECT_EQ(t.Total().local_read_bytes, 30u);
}

TEST(MemoryModelTest, MoreSharersMeansMoreExpensiveWrites) {
  const MemoryModel model(Local8());
  EXPECT_DOUBLE_EQ(model.WriteAmplification(1), 1.0);
  EXPECT_LT(model.WriteAmplification(2), model.WriteAmplification(4));
  EXPECT_LT(model.WriteAmplification(4), model.WriteAmplification(8));
  EXPECT_DOUBLE_EQ(model.WriteAmplification(8), Local8().alpha);
}

TEST(MemoryModelTest, RemoteTrafficCostsMoreThanLocal) {
  const Topology l2 = Local2();
  const MemoryModel model(l2);

  SimulationInput local_in(2), remote_in(2);
  for (auto* in : {&local_in, &remote_in}) {
    in->active_workers = {6, 6};
    in->model_bytes = 1 << 30;  // force DRAM path
  }
  local_in.traffic.per_node[0].local_read_bytes = 1e9;
  remote_in.traffic.per_node[0].remote_read_bytes = 1e9;

  const double t_local = model.SimulateEpoch(local_in).total_sec;
  const double t_remote = model.SimulateEpoch(remote_in).total_sec;
  EXPECT_GT(t_remote, t_local);
}

TEST(MemoryModelTest, SharedWritesDominateOnManySockets) {
  const Topology l8 = Local8();
  const MemoryModel model(l8);
  SimulationInput priv(8), shared(8);
  for (auto* in : {&priv, &shared}) {
    in->active_workers.assign(8, 8);
    in->model_bytes = 1 << 30;
  }
  priv.model_sharing_sockets = 1;
  shared.model_sharing_sockets = 8;
  for (int n = 0; n < 8; ++n) {
    priv.traffic.per_node[n].local_write_bytes = 1e8;
    shared.traffic.per_node[n].shared_write_bytes = 1e8;
  }
  const double t_priv = model.SimulateEpoch(priv).total_sec;
  const double t_shared = model.SimulateEpoch(shared).total_sec;
  EXPECT_GT(t_shared, t_priv * 5.0);  // alpha = 12 on local8
}

TEST(MemoryModelTest, SmallModelServedFromLlcIsFaster) {
  const Topology l2 = Local2();
  const MemoryModel model(l2);
  SimulationInput small(2), big(2);
  for (auto* in : {&small, &big}) {
    in->active_workers = {6, 6};
    in->traffic.per_node[0].model_read_bytes = 1e9;
  }
  small.model_bytes = 1 << 20;   // 1 MB fits in 12 MB LLC
  big.model_bytes = 1 << 28;     // 256 MB does not
  EXPECT_LT(model.SimulateEpoch(small).total_sec,
            model.SimulateEpoch(big).total_sec);
}

TEST(MemoryModelTest, EpochTimeScalesWithTraffic) {
  const MemoryModel model(Local2());
  SimulationInput x1(2), x4(2);
  for (auto* in : {&x1, &x4}) {
    in->active_workers = {6, 6};
    in->model_bytes = 1 << 30;
  }
  x1.traffic.per_node[0].local_read_bytes = 1e8;
  x4.traffic.per_node[0].local_read_bytes = 4e8;
  const double t1 = model.SimulateEpoch(x1).total_sec;
  const double t4 = model.SimulateEpoch(x4).total_sec;
  EXPECT_NEAR(t4 / t1, 4.0, 0.5);
}

TEST(BandwidthProbeTest, MeasuresPositiveBandwidth) {
  // Tiny arrays: this is a smoke test, not a benchmark.
  const BandwidthResult r = MeasureBandwidth(2, 1 << 18, 1);
  EXPECT_GT(r.copy_gbps, 0.0);
  EXPECT_GT(r.scale_gbps, 0.0);
  EXPECT_GT(r.add_gbps, 0.0);
  EXPECT_GT(r.triad_gbps, 0.0);
}

TEST(BandwidthProbeTest, OversubscribedProbeReportsNoImpossibleRate) {
  // More workers than CPUs, so some thread is always waiting for a CPU.
  // A probe whose clock ran on the calling thread reported rates
  // thousands of times the real one whenever that thread was the one
  // preempted; timed inside the workers, no repeat strays far above the
  // others.
  constexpr int kRepeats = 10;
  constexpr double kMaxOverMedian = 4.0;
  const int threads = std::min(16, 2 * NumOnlineCpus());
  std::vector<std::vector<double>> rates(4);
  for (int r = 0; r < kRepeats; ++r) {
    const BandwidthResult b = MeasureBandwidth(threads, 1 << 20, 3);
    rates[0].push_back(b.copy_gbps);
    rates[1].push_back(b.scale_gbps);
    rates[2].push_back(b.add_gbps);
    rates[3].push_back(b.triad_gbps);
  }
  const char* kNames[] = {"copy", "scale", "add", "triad"};
  for (int k = 0; k < 4; ++k) {
    std::vector<double> sorted = rates[k];
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[kRepeats / 2];
    EXPECT_LE(sorted.back(), kMaxOverMedian * median)
        << kNames[k] << " GB/s: max " << sorted.back() << ", median " << median;
  }
}

TEST(BandwidthProbeTest, ContendedWritesCostMoreThanReads) {
  const double ratio = MeasureWriteReadCostRatio(2, 1);
  // The exact value is machine-dependent; contended RMWs are always
  // slower per operation than streaming reads.
  EXPECT_GT(ratio, 1.0);
}

}  // namespace
}  // namespace dw::numa
