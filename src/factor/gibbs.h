// Gibbs sampling executors (paper Sec. 5.1 / D.1).
//
// Three strategies mirror the engine's model-replication axis:
//   kSequential -- one chain, one thread (the reference);
//   kPerMachine -- one shared assignment vector, all threads sample
//                  disjoint variable shards lock-free (Hogwild! Gibbs,
//                  Johnson et al. [25]);
//   kPerNode    -- one independent chain per virtual NUMA node ("we also
//                  know from classic statistical theory that one can
//                  maintain multiple copies ... and aggregate the
//                  samples"); marginals average across chains.
#pragma once

#include <cstdint>
#include <vector>

#include "factor/factor_graph.h"
#include "numa/memory_model.h"
#include "numa/topology.h"

namespace dw::factor {

/// Parallelization strategy for the sampler.
enum class GibbsStrategy { kSequential, kPerMachine, kPerNode };

/// Sampler configuration.
struct GibbsOptions {
  GibbsStrategy strategy = GibbsStrategy::kPerMachine;
  numa::Topology topology = numa::Local2();
  int workers_per_node = -1;  ///< -1: one per virtual core
  int sweeps = 20;            ///< full passes over all variables
  int burn_in = 5;            ///< sweeps discarded before counting
  uint64_t seed = 7;
  bool pin_threads = true;
};

/// Sampler output.
struct GibbsResult {
  std::vector<double> marginals;  ///< P(x_v = 1) estimates
  uint64_t samples = 0;           ///< variable updates performed
  double wall_sec = 0.0;
  double sim_sec = 0.0;           ///< memory-model time on the topology
  /// Throughput under the simulated topology.
  double SimSamplesPerSec() const {
    return sim_sec > 0 ? static_cast<double>(samples) / sim_sec : 0.0;
  }
};

/// Runs Gibbs sampling over `graph` with the given options.
GibbsResult RunGibbs(const FactorGraph& graph, const GibbsOptions& options);

/// Exact marginals by enumeration (tests only; requires num_vars <= 20).
std::vector<double> ExactMarginals(const FactorGraph& graph);

}  // namespace dw::factor
