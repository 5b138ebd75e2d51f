#include "numa/topology.h"

#include "util/logging.h"
#include "util/thread_util.h"

namespace dw::numa {

std::vector<CoreId> Topology::CoresOfNode(NodeId node) const {
  DW_CHECK_GE(node, 0);
  DW_CHECK_LT(node, num_nodes);
  std::vector<CoreId> cores;
  cores.reserve(cores_per_node);
  for (int c = 0; c < cores_per_node; ++c) {
    cores.push_back(node * cores_per_node + c);
  }
  return cores;
}

int Topology::PhysicalCpuOfCore(CoreId core, int physical_cpus) const {
  DW_CHECK_GT(physical_cpus, 0);
  const NodeId node = NodeOfCore(core);
  const int within = core % cores_per_node;
  // Interleave nodes across physical CPUs: node i's workers start at
  // physical CPU i and stride by num_nodes. On a 2-CPU host with a 2-node
  // virtual topology, node 0 maps to CPU 0 and node 1 to CPU 1.
  return (node + within * num_nodes) % physical_cpus;
}

CoreId Topology::CoreOfWorker(int worker, int workers_per_node) const {
  const NodeId node = worker / workers_per_node;
  return node * cores_per_node + (worker % workers_per_node) % cores_per_node;
}

std::vector<int> Topology::WorkerCpus(int workers_per_node, bool pin) const {
  std::vector<int> cpus(num_nodes * workers_per_node, -1);
  if (!pin) return cpus;
  const int host_cpus = NumOnlineCpus();  // a sysfs read: once per pool
  for (int w = 0; w < static_cast<int>(cpus.size()); ++w) {
    cpus[w] = PhysicalCpuOfCore(CoreOfWorker(w, workers_per_node), host_cpus);
  }
  return cpus;
}

namespace {

Topology Make(const std::string& name, const std::string& abbrev, int nodes,
              int cores, double ram_gb, double ghz, double llc_mb,
              double alpha) {
  Topology t;
  t.name = name;
  t.abbrev = abbrev;
  t.num_nodes = nodes;
  t.cores_per_node = cores;
  t.ram_per_node_gb = ram_gb;
  t.cpu_ghz = ghz;
  t.llc_mb = llc_mb;
  t.alpha = alpha;
  return t;
}

}  // namespace

Topology Local2() {
  return Make("local2", "l2", 2, 6, 32, 2.6, 12, 4.0);
}

Topology Local4() {
  return Make("local4", "l4", 4, 10, 64, 2.0, 24, 8.0);
}

Topology Local8() {
  return Make("local8", "l8", 8, 8, 128, 2.6, 24, 12.0);
}

Topology Ec2_1() {
  return Make("ec2.1", "e1", 2, 8, 122, 2.6, 20, 4.5);
}

Topology Ec2_2() {
  return Make("ec2.2", "e2", 2, 8, 30, 2.6, 20, 4.5);
}

std::vector<Topology> PaperMachines() {
  return {Local2(), Local4(), Local8(), Ec2_1(), Ec2_2()};
}

StatusOr<Topology> TopologyByName(const std::string& name) {
  for (const Topology& t : PaperMachines()) {
    if (t.name == name || t.abbrev == name) return t;
  }
  if (name == "host") return HostTopology();
  return Status::NotFound("unknown topology: " + name);
}

Topology HostTopology() {
  Topology t;
  t.name = "host";
  t.abbrev = "host";
  t.num_nodes = 1;
  t.cores_per_node = NumOnlineCpus();
  t.ram_per_node_gb = 16.0;
  t.cpu_ghz = 2.5;
  t.llc_mb = 16.0;
  t.alpha = 4.0;
  return t;
}

}  // namespace dw::numa
