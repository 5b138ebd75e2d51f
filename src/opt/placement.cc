#include "opt/placement.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace dw::opt {

namespace {

/// One period the two layouts are asked to serve. Payload bytes that do
/// not depend on the layout (request rows, the other kind's copies) are
/// left out: they would only dilute the quantity being compared.
struct Period {
  double read_bytes = 0.0;  ///< bytes read, spread evenly over the sockets
  double publishes = 0.0;   ///< publishes in the period (0: no write term)
  double churn = 1.0;       ///< fraction of a copy one publish rewrites
  double copy_bytes = 0.0;  ///< footprint of one copy
  /// Where the one shared copy lives: interleaved over the sockets (a
  /// sharded table), or on node 0 (a kPerMachine model replica).
  bool shared_interleaved = false;
  /// Whether a small copy may stay LLC-resident (model replicas) or not
  /// (feature rows are data).
  bool cacheable = false;
};

/// The memory-model input for `p` under one layout.
numa::SimulationInput LayoutInput(const numa::Topology& topo, const Period& p,
                                  bool replicate) {
  const int nodes = topo.num_nodes;
  const double node_read_bytes = p.read_bytes / static_cast<double>(nodes);
  const double write_bytes = p.copy_bytes * p.churn * p.publishes;
  numa::SimulationInput in(nodes);
  for (int n = 0; n < nodes; ++n) {
    numa::AccessCounters c;
    // Node-local reads are charged as model reads: with model_bytes == 0
    // the memory model prices them exactly like local_read_bytes.
    if (replicate) {
      // Reads are node-local everywhere. A publish is one thread copying
      // into EVERY node's copy back to back, so its full nodes x bytes
      // cost lands on the publisher's node (charging it per target node
      // would model the copies as parallel and hide the replication
      // factor).
      c.model_read_bytes = static_cast<uint64_t>(node_read_bytes);
      if (n == 0) {
        c.local_write_bytes = static_cast<uint64_t>(
            write_bytes * static_cast<double>(nodes));
      }
    } else if (p.shared_interleaved) {
      // 1/nodes of a node's reads hit its own shard, the rest cross the
      // interconnect; a publish writes each row once, on one shard.
      c.model_read_bytes = static_cast<uint64_t>(
          node_read_bytes / static_cast<double>(nodes));
      c.remote_read_bytes = static_cast<uint64_t>(
          node_read_bytes * static_cast<double>(nodes - 1) /
          static_cast<double>(nodes));
      if (n == 0) c.local_write_bytes = static_cast<uint64_t>(write_bytes);
    } else if (n == 0) {
      // One copy on node 0: its reads are local and the publish writes
      // it once; every other socket's reads cross the interconnect.
      c.model_read_bytes = static_cast<uint64_t>(node_read_bytes);
      c.local_write_bytes = static_cast<uint64_t>(write_bytes);
    } else {
      c.remote_read_bytes = static_cast<uint64_t>(node_read_bytes);
    }
    in.traffic.per_node[n] = c;
    in.active_workers[n] = topo.cores_per_node;
  }
  in.model_bytes = p.cacheable ? static_cast<uint64_t>(p.copy_bytes) : 0;
  // Readers never store to a serving copy, so no socket shares a written
  // cacheline under either layout; sharing costs remote reads, not
  // coherence stalls.
  in.model_sharing_sockets = 1;
  return in;
}

PlacementChoice Choose(const numa::Topology& topo, const Period& p,
                       const numa::MemoryModelParams& params) {
  const numa::MemoryModel model(topo, params);
  PlacementChoice out;
  out.copy_bytes = p.copy_bytes;
  out.replicate_cost_sec =
      model.SimulateEpoch(LayoutInput(topo, p, /*replicate=*/true)).total_sec;
  out.share_cost_sec =
      model.SimulateEpoch(LayoutInput(topo, p, /*replicate=*/false))
          .total_sec;

  std::ostringstream why;
  // Hot swap double-buffers: while a publish is in flight the old and the
  // new version are both live, so replication needs 1 + churn copies of
  // headroom on EVERY node (the Sec. 3.4 "if there is available memory"
  // rule; a model publish has churn 1). One shared copy caps the
  // machine-wide footprint, so it is the forced choice for copies too big
  // to double-buffer.
  const double node_ram_bytes = topo.ram_per_node_gb * 1024.0 * 1024.0 * 1024.0;
  if ((1.0 + p.churn) * p.copy_bytes > node_ram_bytes) {
    out.replicate = false;
    why << "copy (" << p.copy_bytes * 1e-9
        << " GB) cannot double-buffer in per-node RAM; one shared copy caps "
           "the footprint";
    out.rationale = why.str();
    return out;
  }
  if (topo.num_nodes <= 1) {
    // One socket: the layouts are byte-identical; keep the single copy.
    out.replicate = false;
    out.rationale = "single socket: one copy is already node-local everywhere";
    return out;
  }
  out.replicate = out.replicate_cost_sec < out.share_cost_sec;
  why << "period cost replicated " << out.replicate_cost_sec
      << "s vs shared " << out.share_cost_sec << "s for "
      << p.read_bytes * 1e-6 << " MB read and " << p.publishes
      << " publishes at churn " << p.churn << " on " << topo.num_nodes
      << " sockets";
  out.rationale = why.str();
  return out;
}

}  // namespace

PlacementChoice ChooseModelPlacement(const numa::Topology& topo,
                                     const ServingTrafficEstimate& traffic,
                                     double rows, double publishes,
                                     const numa::MemoryModelParams& params) {
  DW_CHECK_GT(traffic.dim, 0u) << "traffic estimate needs the model dim";
  Period p;
  p.copy_bytes = static_cast<double>(traffic.dim) * sizeof(double);
  // The blocked kernel streams the model once per BATCH, so the batch
  // width converts rows into model streams.
  p.read_bytes = std::max(0.0, rows) /
                 std::max(1.0, traffic.expected_batch_rows) * p.copy_bytes;
  p.publishes = publishes;
  p.cacheable = true;
  return Choose(topo, p, params);
}

PlacementChoice ChooseStorePlacement(const numa::Topology& topo,
                                     matrix::Index rows, matrix::Index dim,
                                     double gathers, double refreshes,
                                     double churn,
                                     const numa::MemoryModelParams& params) {
  DW_CHECK_GT(rows, 0u) << "store traffic estimate needs rows";
  DW_CHECK_GT(dim, 0u) << "store traffic estimate needs dim";
  const double row_bytes = static_cast<double>(dim) * sizeof(double);
  Period p;
  p.copy_bytes = static_cast<double>(rows) * row_bytes;
  p.read_bytes = std::max(0.0, gathers) * row_bytes;
  p.publishes = refreshes;
  p.churn = std::clamp(churn, 1e-6, 1.0);
  p.shared_interleaved = true;
  return Choose(topo, p, params);
}

}  // namespace dw::opt
