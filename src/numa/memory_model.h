// Calibrated NUMA memory cost model.
//
// Converts logically-counted traffic (AccessCounters) into simulated
// seconds under a named topology. This is the substitution for running on
// the paper's physical machines: statistical efficiency (epochs to a loss)
// is always measured for real by executing the algorithms, while
// hardware efficiency (seconds per epoch on machine X) is predicted from
// traffic with this model.
//
// Model:
//   For each virtual node n with aggregated counters C(n):
//     t_read(n)  = C(n).local_read_bytes / min(dram_gbps_per_node,
//                                              stream_gbps_per_core * k_n)
//     t_local_w(n) = C(n).local_write_bytes / dram_gbps_per_node
//     t_shared_w(n) = (C(n).shared_write_bytes / 64)      // cachelines
//                     * coherence_ns(topology) * sharer_fraction
//     t_cpu(n)   = C(n).flops / (cpu_ghz * k_n * kFlopsPerCycle)
//   where k_n = active workers on node n. Shared writes are charged per
//   CACHELINE at a latency, not a bandwidth: every store to a line shared
//   with another socket triggers a read-for-ownership over the
//   interconnect, stalling the pipeline for O(100ns) -- this, not raw
//   bandwidth, is what makes PerMachine epochs ~20x slower than PerNode
//   in the paper's Fig. 8(b). coherence_ns scales with the paper's alpha
//   (Sec. 3.2: ~4 on 2 sockets up to ~12 on 8), so bigger machines stall
//   longer. Cross-socket reads share one interconnect:
//     t_qpi = sum_n C(n).remote_read_bytes / qpi_gbps
//   Model state that fits in the LLC is served at kLlcSpeedup x DRAM speed.
//   SimulatedSeconds = max( max_n [t_read + t_w + t_cpu](n), t_qpi )
//                      + kEpochOverheadSec.
#pragma once

#include <cstdint>
#include <vector>

#include "numa/access_counters.h"
#include "numa/topology.h"

namespace dw::numa {

/// Tunable constants of the cost model (defaults calibrated so that the
/// paper's headline ratios reproduce on the paper's topologies; the
/// figure benches print those ratios, and bench_alpha_estimation measures
/// alpha on the host).
struct MemoryModelParams {
  double flops_per_cycle = 4.0;    ///< scalar FMA pipeline throughput
  double llc_speedup = 4.0;        ///< LLC bandwidth multiple of DRAM
  double epoch_overhead_sec = 2e-5;///< barrier + dispatch cost per epoch
  /// Per-cacheline stall for a store to a line shared with another
  /// socket, expressed as a multiple of alpha: coherence_ns = alpha *
  /// coherence_ns_per_alpha (local2: 4 * 25 = 100ns, the measured scale
  /// of a cross-socket read-for-ownership).
  double coherence_ns_per_alpha = 25.0;
  /// Coherence cost scales with the fraction of remote sharers.
  bool scale_alpha_by_sharers = true;
};

/// Per-node inputs the engine hands to the model in addition to raw
/// traffic: how many workers were active and how many sockets share each
/// replica the node wrote to.
struct SimulationInput {
  NodeTraffic traffic;           ///< per-node aggregated counters
  std::vector<int> active_workers;  ///< workers that ran on each node
  int model_sharing_sockets = 1; ///< sockets sharing one model replica
  uint64_t model_bytes = 0;      ///< size of one model replica
  explicit SimulationInput(int nodes)
      : traffic(nodes), active_workers(nodes, 0) {}
};

/// Traffic of one step over one item (a row, a column, a training
/// example, a sampled variable), or of a worker's whole epoch, before
/// placement decides which bytes leave the worker's node.
struct ItemCost {
  uint64_t data_bytes = 0;  ///< read-only input bytes scanned
  uint64_t model_read_bytes = 0;
  uint64_t model_write_bytes = 0;
  uint64_t flops = 0;
  uint64_t updates = 0;     ///< steps taken

  ItemCost& operator+=(const ItemCost& o) {
    data_bytes += o.data_bytes;
    model_read_bytes += o.model_read_bytes;
    model_write_bytes += o.model_write_bytes;
    flops += o.flops;
    updates += o.updates;
    return *this;
  }
};

/// One worker's epoch cost and its placement.
struct WorkerCost {
  ItemCost cost;
  NodeId node = 0;            ///< node the worker runs on
  NodeId replica_node = 0;    ///< node of the model replica it updates
  bool data_is_local = true;  ///< whether its data lives on its node
};

/// The one traffic rule of every epoch loop (engine, MLP, Gibbs): data is
/// local or remote by where it is placed; model reads are local on the
/// replica's node and remote elsewhere; model writes are shared when
/// `sharing_sockets` > 1. `model_bytes` is the model state per node.
SimulationInput PlaceTraffic(int num_nodes,
                             const std::vector<WorkerCost>& workers,
                             int sharing_sockets, uint64_t model_bytes);

/// Breakdown of the simulated epoch time (all seconds).
struct SimulatedTime {
  double read_sec = 0.0;
  double write_sec = 0.0;
  double cpu_sec = 0.0;
  double qpi_sec = 0.0;
  double total_sec = 0.0;
};

/// Applies the cost model for one topology.
class MemoryModel {
 public:
  explicit MemoryModel(Topology topo, MemoryModelParams params = {})
      : topo_(std::move(topo)), params_(params) {}

  /// Simulated seconds for one epoch described by `input`.
  SimulatedTime SimulateEpoch(const SimulationInput& input) const;

  /// Effective write-cost multiplier for a replica shared by `sockets`
  /// sockets (1 => private, no amplification). Used by the byte-level
  /// cost comparisons (Fig. 6); the time simulation uses the per-line
  /// latency below.
  double WriteAmplification(int sockets) const;

  /// Seconds of stall per cacheline written to a replica shared by
  /// `sockets` sockets (0 for private replicas).
  double SharedWriteSecondsPerLine(int sockets) const;

  const Topology& topology() const { return topo_; }
  const MemoryModelParams& params() const { return params_; }

 private:
  Topology topo_;
  MemoryModelParams params_;
};

}  // namespace dw::numa
