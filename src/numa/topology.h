// Virtual NUMA topology descriptions.
//
// The paper evaluates on five physical machines (Fig. 3). This environment
// has a single small memory domain, so DimmWitted models machines as
// *virtual topologies*: the placement logic (which node a worker lives on,
// where data and model replicas are allocated) runs against the virtual
// topology, worker threads are round-robined over the physical CPUs, and
// hardware-efficiency numbers for a named machine come from the calibrated
// MemoryModel (memory_model.h) applied to logically-counted traffic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace dw::numa {

/// Identifies a virtual NUMA node (socket).
using NodeId = int;
/// Identifies a virtual core; cores are numbered node-major:
/// core c lives on node c / cores_per_node.
using CoreId = int;

/// A machine description mirroring the columns of the paper's Figure 3,
/// plus the memory-system constants the cost model needs.
struct Topology {
  std::string name;        ///< e.g. "local2"
  std::string abbrev;      ///< e.g. "l2"
  int num_nodes = 1;       ///< sockets
  int cores_per_node = 1;  ///< physical cores per socket
  double ram_per_node_gb = 32.0;
  double cpu_ghz = 2.6;
  double llc_mb = 12.0;    ///< last-level cache per socket

  // Memory-system constants (see Fig. 3: worker->RAM ~6 GB/s measured with
  // STREAM; QPI ~11 GB/s measured, 25.6 GB/s peak).
  double stream_gbps_per_core = 6.0;  ///< single-core streaming bandwidth
  double dram_gbps_per_node = 24.0;   ///< per-socket aggregate DRAM bandwidth
  double qpi_gbps = 11.0;             ///< effective cross-socket bandwidth

  /// Write/read cost ratio alpha of paper Sec. 3.2 ("in 4 to 12 and grows
  /// with the number of sockets; for local2 alpha ~ 4, for local8 ~ 12").
  double alpha = 4.0;

  /// Total virtual cores.
  int total_cores() const { return num_nodes * cores_per_node; }

  /// Node that owns virtual core `core`.
  NodeId NodeOfCore(CoreId core) const { return core / cores_per_node; }

  /// Virtual cores living on `node`, in order.
  std::vector<CoreId> CoresOfNode(NodeId node) const;

  /// LLC capacity of one socket in bytes.
  double llc_bytes() const { return llc_mb * 1024.0 * 1024.0; }

  /// Maps a virtual core onto a physical CPU id (round-robin interleaved by
  /// node so that, even on a small host, workers of different virtual nodes
  /// land on different physical CPUs when possible).
  int PhysicalCpuOfCore(CoreId core, int physical_cpus) const;

  /// Virtual core of a worker, numbered node-major with
  /// `workers_per_node` per node; a node's slots wrap around its cores.
  CoreId CoreOfWorker(int worker, int workers_per_node) const;

  /// Host CPU of each of num_nodes * `workers_per_node` workers, in
  /// worker order; all -1 (unpinned) unless `pin`.
  std::vector<int> WorkerCpus(int workers_per_node, bool pin) const;
};

/// Named presets reproducing the paper's Figure 3 machine table.
///   local2: 2 nodes x  6 cores, 12 MB LLC, 2.6 GHz, alpha ~ 4
///   local4: 4 nodes x 10 cores, 24 MB LLC, 2.0 GHz, alpha ~ 8
///   local8: 8 nodes x  8 cores, 24 MB LLC, 2.6 GHz, alpha ~ 12
///   ec2.1 : 2 nodes x  8 cores, 20 MB LLC, 2.6 GHz, alpha ~ 4.5
///   ec2.2 : 2 nodes x  8 cores, 20 MB LLC, 2.6 GHz, alpha ~ 4.5
Topology Local2();
Topology Local4();
Topology Local8();
Topology Ec2_1();
Topology Ec2_2();

/// All five paper machines, in the order of Figure 3.
std::vector<Topology> PaperMachines();

/// Looks up a preset by name or abbreviation ("local2" or "l2").
StatusOr<Topology> TopologyByName(const std::string& name);

/// A topology describing the *actual* host (single node when /sys exposes
/// no NUMA information, which is the common case in this environment).
Topology HostTopology();

}  // namespace dw::numa
