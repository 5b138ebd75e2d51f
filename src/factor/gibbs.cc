#include "factor/gibbs.h"

#include <cmath>

#include "models/glm.h"  // Sigmoid
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/worker_pool.h"

namespace dw::factor {

namespace {

// One chain's state: an assignment vector plus per-variable 1-counts.
struct Chain {
  std::vector<uint8_t> assignment;
  std::vector<uint32_t> ones;
};

// Sweeps a shard of variables once; counts after burn-in.
void SweepShard(const FactorGraph& g, const std::vector<VarId>& shard,
                Chain& chain, Rng& rng, bool count) {
  for (VarId v : shard) {
    const double logodds = g.ConditionalLogOdds(v, chain.assignment.data());
    const uint8_t x = rng.Bernoulli(models::Sigmoid(logodds)) ? 1 : 0;
    chain.assignment[v] = x;
    if (count) chain.ones[v] += x;
  }
}

}  // namespace

GibbsResult RunGibbs(const FactorGraph& graph, const GibbsOptions& options) {
  const numa::Topology& topo = options.topology;
  const bool sequential = options.strategy == GibbsStrategy::kSequential;
  const bool per_node = options.strategy == GibbsStrategy::kPerNode;
  const int wpn = sequential ? 1
                             : (options.workers_per_node > 0
                                    ? options.workers_per_node
                                    : topo.cores_per_node);
  const int nodes = sequential ? 1 : topo.num_nodes;
  const int num_workers = nodes * wpn;
  const int num_chains = per_node ? nodes : 1;
  DW_CHECK_GT(options.sweeps, options.burn_in);

  // Chains (PerMachine/Sequential: one shared; PerNode: one per node).
  std::vector<Chain> chains(num_chains);
  uint64_t sm = options.seed;
  for (int c = 0; c < num_chains; ++c) {
    chains[c].assignment.assign(graph.num_vars(), 0);
    chains[c].ones.assign(graph.num_vars(), 0);
    Rng init(SplitMix64(sm));
    for (VarId v = 0; v < graph.num_vars(); ++v) {
      chains[c].assignment[v] = init.Bernoulli(0.5) ? 1 : 0;
    }
  }

  // Variable shards. PerMachine: workers partition the variables of the
  // single chain. PerNode: each node's workers partition the variables of
  // that node's chain. Per sweep, a shard reads `read_bytes`, of which
  // `assignment_bytes` are neighbour assignments.
  const int workers_per_chain = per_node ? wpn : num_workers;
  std::vector<std::vector<VarId>> shards(num_workers);
  std::vector<uint64_t> read_bytes(num_workers), assignment_bytes(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    for (VarId v = static_cast<VarId>(w % workers_per_chain);
         v < graph.num_vars(); v += static_cast<VarId>(workers_per_chain)) {
      shards[w].push_back(v);
      read_bytes[w] += graph.SampleReadBytes(v, &assignment_bytes[w]);
    }
  }

  std::vector<Rng> rngs;
  for (int w = 0; w < num_workers; ++w) rngs.emplace_back(SplitMix64(sm));

  std::vector<int> cpus = topo.WorkerCpus(wpn, options.pin_threads);
  cpus.resize(num_workers);  // kSequential runs node 0's worker only
  WorkerPool pool(std::move(cpus));
  WallTimer timer;
  for (int sweep = 0; sweep < options.sweeps; ++sweep) {
    pool.Run([&](int w) {
      rngs[w].Shuffle(shards[w]);
      SweepShard(graph, shards[w], chains[per_node ? w / wpn : 0], rngs[w],
                 sweep >= options.burn_in);
    });
  }

  GibbsResult result;
  result.wall_sec = timer.Seconds();
  result.samples = static_cast<uint64_t>(options.sweeps) * graph.num_vars() *
                   static_cast<uint64_t>(num_chains);

  // Marginals: counted sweeps per chain, averaged across chains.
  const double counted = options.sweeps - options.burn_in;
  result.marginals.assign(graph.num_vars(), 0.0);
  for (const Chain& chain : chains) {
    for (VarId v = 0; v < graph.num_vars(); ++v) {
      result.marginals[v] +=
          static_cast<double>(chain.ones[v]) / counted / num_chains;
    }
  }

  // Simulated time on the topology over all sweeps. The read-only factor
  // structure is replicated, so it is local data. The assignment vector
  // is the model: one per node under PerNode, one on node 0 shared by
  // every socket under PerMachine.
  const uint64_t sweeps = static_cast<uint64_t>(options.sweeps);
  std::vector<numa::WorkerCost> costs(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    numa::ItemCost& c = costs[w].cost;
    c.model_read_bytes = assignment_bytes[w] * sweeps;
    c.data_bytes = read_bytes[w] * sweeps - c.model_read_bytes;
    c.model_write_bytes = c.updates = shards[w].size() * sweeps;
    c.flops = read_bytes[w] * sweeps / 4;
    costs[w].node = w / wpn;
    costs[w].replica_node = per_node ? w / wpn : 0;
  }
  const int sharing =
      options.strategy == GibbsStrategy::kPerMachine ? topo.num_nodes : 1;
  result.sim_sec = numa::MemoryModel(topo)
                       .SimulateEpoch(numa::PlaceTraffic(
                           topo.num_nodes, costs, sharing, graph.num_vars()))
                       .total_sec;
  return result;
}

std::vector<double> ExactMarginals(const FactorGraph& graph) {
  const VarId n = graph.num_vars();
  DW_CHECK_LE(n, 20u) << "exact enumeration is exponential";
  std::vector<uint8_t> assignment(n, 0);
  std::vector<double> prob1(n, 0.0);
  double z = 0.0;
  const uint32_t total = 1u << n;
  for (uint32_t mask = 0; mask < total; ++mask) {
    for (VarId v = 0; v < n; ++v) assignment[v] = (mask >> v) & 1u;
    const double p = std::exp(graph.TotalEnergy(assignment.data()));
    z += p;
    for (VarId v = 0; v < n; ++v) {
      if (assignment[v]) prob1[v] += p;
    }
  }
  for (VarId v = 0; v < n; ++v) prob1[v] /= z;
  return prob1;
}

}  // namespace dw::factor
