#include "numa/memory_model.h"

#include <algorithm>

#include "util/logging.h"

namespace dw::numa {

namespace {
constexpr double kGb = 1e9;
}

SimulationInput PlaceTraffic(int num_nodes,
                             const std::vector<WorkerCost>& workers,
                             int sharing_sockets, uint64_t model_bytes) {
  SimulationInput in(num_nodes);
  for (const WorkerCost& w : workers) {
    const ItemCost& e = w.cost;
    AccessCounters c;
    (w.data_is_local ? c.local_read_bytes : c.remote_read_bytes) =
        e.data_bytes;
    if (w.replica_node == w.node) {
      c.model_read_bytes = e.model_read_bytes;
    } else {
      c.remote_read_bytes += e.model_read_bytes;
    }
    (sharing_sockets > 1 ? c.shared_write_bytes : c.local_write_bytes) =
        e.model_write_bytes;
    c.flops = e.flops;
    c.updates = e.updates;
    in.traffic.Add(w.node, c);
    ++in.active_workers[w.node];
  }
  in.model_sharing_sockets = sharing_sockets;
  in.model_bytes = model_bytes;
  return in;
}

double MemoryModel::WriteAmplification(int sockets) const {
  if (sockets <= 1) return 1.0;
  if (!params_.scale_alpha_by_sharers) return topo_.alpha;
  const int nodes = std::max(2, topo_.num_nodes);
  const double frac =
      static_cast<double>(sockets - 1) / static_cast<double>(nodes - 1);
  return 1.0 + (topo_.alpha - 1.0) * frac;
}

double MemoryModel::SharedWriteSecondsPerLine(int sockets) const {
  if (sockets <= 1) return 0.0;
  // Invalidation cost grows with the number of remote sharers: each
  // additional socket lengthens the snoop/invalidate chain and deepens
  // the queueing on the interconnect, so the per-line stall scales with
  // (sockets - 1) on top of the per-hop alpha growth. On local2 this is
  // alpha * 25ns = 100ns -- the measured scale of one cross-socket RFO.
  return topo_.alpha * params_.coherence_ns_per_alpha * 1e-9 *
         static_cast<double>(sockets - 1);
}

SimulatedTime MemoryModel::SimulateEpoch(const SimulationInput& input) const {
  DW_CHECK_EQ(static_cast<int>(input.traffic.per_node.size()),
              topo_.num_nodes);
  SimulatedTime out;

  const double shared_sec_per_line =
      SharedWriteSecondsPerLine(input.model_sharing_sockets);
  // A model replica that fits in half the LLC is served from cache.
  const bool model_in_llc =
      input.model_bytes > 0 &&
      static_cast<double>(input.model_bytes) < 0.5 * topo_.llc_bytes();
  const double model_speedup = model_in_llc ? params_.llc_speedup : 1.0;

  double slowest_node = 0.0;
  double total_remote = 0.0;
  for (int n = 0; n < topo_.num_nodes; ++n) {
    const AccessCounters& c = input.traffic.per_node[n];
    const int workers = std::max(1, input.active_workers[n]);
    const double node_read_bw =
        std::min(topo_.dram_gbps_per_node,
                 topo_.stream_gbps_per_core * workers) *
        kGb;
    const double t_read =
        static_cast<double>(c.local_read_bytes) / node_read_bw +
        static_cast<double>(c.model_read_bytes) /
            (node_read_bw * model_speedup);
    const double write_bw = topo_.dram_gbps_per_node * kGb * model_speedup;
    // Local writes stream at bandwidth; shared writes stall per line.
    const double t_write =
        static_cast<double>(c.local_write_bytes) / write_bw +
        static_cast<double>(c.shared_write_bytes) / 64.0 *
            shared_sec_per_line;
    const double t_cpu =
        static_cast<double>(c.flops) /
        (topo_.cpu_ghz * 1e9 * workers * params_.flops_per_cycle);
    slowest_node = std::max(slowest_node, t_read + t_write + t_cpu);
    total_remote += static_cast<double>(c.remote_read_bytes);
    out.read_sec = std::max(out.read_sec, t_read);
    out.write_sec = std::max(out.write_sec, t_write);
    out.cpu_sec = std::max(out.cpu_sec, t_cpu);
  }
  out.qpi_sec = total_remote / (topo_.qpi_gbps * kGb);
  out.total_sec = std::max(slowest_node, out.qpi_sec) +
                  params_.epoch_overhead_sec;
  return out;
}

}  // namespace dw::numa
