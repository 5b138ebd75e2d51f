// Logical memory-traffic accounting.
//
// The paper explains its hardware-efficiency results with Intel PMU
// counters (local/remote DRAM requests, LLC misses). Real PMUs are not
// available here, so the engine's data and model access paths account
// traffic logically: every worker knows its own virtual node and the node
// that owns the bytes it touches, and bumps plain (thread-local) counters.
// The counters feed both the PMU-style reports and the MemoryModel.
#pragma once

#include <cstdint>
#include <vector>

namespace dw::numa {

/// Traffic accumulated by one worker during one epoch. Plain integers:
/// each worker owns one instance, so no synchronization is needed.
struct AccessCounters {
  uint64_t local_read_bytes = 0;    ///< reads served by the worker's node
  uint64_t remote_read_bytes = 0;   ///< reads crossing the interconnect
  uint64_t local_write_bytes = 0;   ///< writes to node-private state
  uint64_t shared_write_bytes = 0;  ///< writes to state shared across nodes
  uint64_t model_read_bytes = 0;    ///< reads of the model replica
  uint64_t updates = 0;             ///< number of gradient/coordinate steps
  uint64_t flops = 0;               ///< floating-point work (fused mul-add=2)

  /// Accumulates `other` into this.
  void Merge(const AccessCounters& other) {
    local_read_bytes += other.local_read_bytes;
    remote_read_bytes += other.remote_read_bytes;
    local_write_bytes += other.local_write_bytes;
    shared_write_bytes += other.shared_write_bytes;
    model_read_bytes += other.model_read_bytes;
    updates += other.updates;
    flops += other.flops;
  }

  /// Zeroes all counters.
  void Reset() { *this = AccessCounters{}; }

  /// PMU analogue: cross-node DRAM requests (64B cacheline granularity).
  uint64_t remote_dram_requests() const { return remote_read_bytes / 64; }

  uint64_t total_read_bytes() const {
    return local_read_bytes + remote_read_bytes;
  }
  uint64_t total_write_bytes() const {
    return local_write_bytes + shared_write_bytes;
  }
};

/// Per-node aggregation of worker counters (input to the MemoryModel).
struct NodeTraffic {
  std::vector<AccessCounters> per_node;

  explicit NodeTraffic(int num_nodes = 0) : per_node(num_nodes) {}

  /// Adds a worker's epoch counters to its node's bucket.
  void Add(int node, const AccessCounters& c) { per_node[node].Merge(c); }

  /// Sum over all nodes.
  AccessCounters Total() const {
    AccessCounters t;
    for (const auto& c : per_node) t.Merge(c);
    return t;
  }
};

}  // namespace dw::numa
