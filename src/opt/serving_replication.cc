#include "opt/serving_replication.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace dw::opt {

using serve::Replication;

namespace {

/// Builds the memory-model input for one traffic period (reads_per_publish
/// scored batches + one publish) under `rep`. Request payload bytes are
/// omitted: they are identical under both strategies and would only dilute
/// the quantity being compared (where the MODEL bytes come from).
numa::SimulationInput PeriodInput(const numa::Topology& topo,
                                  const ServingTrafficEstimate& t,
                                  Replication rep) {
  const int nodes = topo.num_nodes;
  const double model_bytes = static_cast<double>(t.dim) * sizeof(double);
  const double batch_model_bytes =
      model_bytes * std::clamp(t.model_touch_fraction, 0.0, 1.0);
  // The blocked kernel streams the model once per BATCH, so the batch
  // width converts the caller's row count into model streams: wider
  // batches amortize reads, fewer streams, less payoff from replicating.
  const double batches_per_publish = std::max(0.0, t.reads_per_publish) /
                                     std::max(1.0, t.expected_batch_rows);
  // Traffic is balanced: every socket serves an equal share of the
  // batches (the same balanced-routing regime serve_test's memory-model
  // replication check simulates).
  const double batches_per_node =
      batches_per_publish / static_cast<double>(nodes);

  numa::SimulationInput in(nodes);
  for (int n = 0; n < nodes; ++n) {
    numa::AccessCounters c;
    const auto share =
        static_cast<uint64_t>(batches_per_node * batch_model_bytes);
    if (rep == Replication::kPerNode) {
      // Reads are node-local everywhere. The publish is one thread
      // copying the model into EVERY node's replica back to back, so its
      // full num_nodes * model_bytes cost lands on the publisher's node
      // (charging it per target node would wrongly model the copies as
      // parallel and hide the replication factor).
      c.model_read_bytes = share;
      if (n == 0) {
        c.local_write_bytes =
            static_cast<uint64_t>(model_bytes) * static_cast<uint64_t>(nodes);
      }
    } else {
      // One copy on node 0: its reads are local, every other socket's
      // cross the shared interconnect; the publish writes once.
      if (n == 0) {
        c.model_read_bytes = share;
        c.local_write_bytes = static_cast<uint64_t>(model_bytes);
      } else {
        c.remote_read_bytes = share;
      }
    }
    in.traffic.per_node[n] = c;
    in.active_workers[n] = topo.cores_per_node;
  }
  in.model_bytes = static_cast<uint64_t>(model_bytes);
  // Serving readers never store to the replica, so no socket shares a
  // written cacheline under either strategy; the kPerMachine penalty is
  // the remote-read term above, not coherence stalls.
  in.model_sharing_sockets = 1;
  return in;
}

}  // namespace

ServingReplicationChoice ChooseServingReplication(
    const numa::Topology& topo, const ServingTrafficEstimate& traffic,
    const numa::MemoryModelParams& params) {
  DW_CHECK_GT(traffic.dim, 0u) << "traffic estimate needs the model dim";
  const numa::MemoryModel model(topo, params);

  ServingReplicationChoice out;
  out.replica_bytes = static_cast<double>(traffic.dim) * sizeof(double);
  out.per_node_cost_sec =
      model.SimulateEpoch(PeriodInput(topo, traffic, Replication::kPerNode))
          .total_sec;
  out.per_machine_cost_sec =
      model
          .SimulateEpoch(PeriodInput(topo, traffic, Replication::kPerMachine))
          .total_sec;

  std::ostringstream why;
  // Hot swap double-buffers: while a Publish is in flight both the old and
  // the new snapshot are live, so kPerNode needs 2 replicas of headroom on
  // EVERY node (the optimizer's "if there is available memory" rule,
  // Sec. 3.4, applied to the serving side). A model too big to
  // double-buffer strains kPerMachine's node 0 just the same -- no
  // strategy truly satisfies the constraint -- but the single copy at
  // least caps the machine-wide footprint at one node's worth, so it is
  // the least-bad forced choice, stated as such.
  const double node_ram_bytes = topo.ram_per_node_gb * 1024.0 * 1024.0 * 1024.0;
  if (2.0 * out.replica_bytes > node_ram_bytes) {
    out.replication = Replication::kPerMachine;
    why << "replica (" << out.replica_bytes * 1e-9
        << " GB) cannot double-buffer in per-node RAM under any strategy; "
           "single-copy PerMachine minimizes machine-wide footprint";
    out.rationale = why.str();
    return out;
  }
  if (topo.num_nodes <= 1) {
    // One socket: the strategies are byte-identical; keep the single copy.
    out.replication = Replication::kPerMachine;
    why << "single socket: one copy is already node-local everywhere";
    out.rationale = why.str();
    return out;
  }
  out.replication = out.per_node_cost_sec < out.per_machine_cost_sec
                        ? Replication::kPerNode
                        : Replication::kPerMachine;
  why << "period cost PerNode " << out.per_node_cost_sec << "s vs PerMachine "
      << out.per_machine_cost_sec << "s at " << traffic.reads_per_publish
      << " rows/publish (batch width " << traffic.expected_batch_rows
      << ") on " << topo.num_nodes << " sockets";
  out.rationale = why.str();
  return out;
}

}  // namespace dw::opt
