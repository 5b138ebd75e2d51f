#include "nn/trainer.h"

#include <cmath>

#include "util/aligned.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/worker_pool.h"

namespace dw::nn {

NnTrainResult TrainParallel(const Mlp& mlp, const DigitData& data,
                            const NnTrainOptions& options) {
  const numa::Topology& topo = options.topology;
  const int wpn = options.workers_per_node > 0 ? options.workers_per_node
                                               : topo.cores_per_node;
  const int nodes = topo.num_nodes;
  const int num_workers = wpn * nodes;
  const int n = data.num_examples();
  DW_CHECK_GT(n, 0);

  const bool per_node = options.strategy == NnStrategy::kDimmWitted;
  const int num_replicas = per_node ? nodes : 1;

  // Parameter replicas (cache-line aligned; Hogwild-style plain writes).
  std::vector<AlignedArray<double>> replicas;
  replicas.reserve(num_replicas);
  for (int r = 0; r < num_replicas; ++r) {
    replicas.emplace_back(mlp.num_params());
    mlp.InitParams(replicas[r].data(), options.seed);
  }

  // Work assignment. Classic/Sharding: each worker owns n/num_workers
  // examples. DimmWitted/FullReplication: each node sweeps all examples,
  // split among its workers.
  std::vector<std::vector<int>> work(num_workers);
  const int stride = per_node ? wpn : num_workers;
  for (int w = 0; w < num_workers; ++w) {
    for (int e = w % stride; e < n; e += stride) work[w].push_back(e);
  }

  std::vector<Rng> rngs;
  uint64_t sm = options.seed + 17;
  for (int w = 0; w < num_workers; ++w) rngs.emplace_back(SplitMix64(sm));

  // Eval subset.
  const int eval_n = options.eval_examples > 0
                         ? std::min(options.eval_examples, n)
                         : n;
  std::vector<double> eval_inputs(
      data.images.begin(),
      data.images.begin() + static_cast<size_t>(eval_n) * data.input_dim);
  std::vector<int> eval_labels(data.labels.begin(),
                               data.labels.begin() + eval_n);

  NnTrainResult result;
  WorkerPool pool(topo.WorkerCpus(wpn, options.pin_threads));
  // Each worker allocates its scratch on its own (pinned) thread.
  std::vector<MlpScratch> scratch(num_workers);
  pool.Run([&](int w) { scratch[w] = mlp.MakeScratch(); });

  MlpScratch eval_scratch = mlp.MakeScratch();
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const double step =
        options.learning_rate * std::pow(options.lr_decay, epoch);
    WallTimer epoch_timer;
    pool.Run([&](int w) {
      double* params = replicas[per_node ? w / wpn : 0].data();
      rngs[w].Shuffle(work[w]);
      for (int e : work[w]) {
        mlp.TrainExample(params,
                         data.images.data() +
                             static_cast<size_t>(e) * data.input_dim,
                         data.labels[e], step, &scratch[w]);
      }
    });
    result.wall_sec += epoch_timer.Seconds();

    // Epoch-boundary averaging for PerNode replicas.
    if (per_node && num_replicas > 1) {
      for (size_t k = 0; k < mlp.num_params(); ++k) {
        double acc = 0.0;
        for (int r = 0; r < num_replicas; ++r) acc += replicas[r][k];
        const double avg = acc / num_replicas;
        for (int r = 0; r < num_replicas; ++r) replicas[r][k] = avg;
      }
    }
    result.loss_per_epoch.push_back(
        mlp.MeanLoss(replicas[0].data(), eval_inputs, eval_labels,
                     data.input_dim, &eval_scratch));
  }
  const uint64_t per_epoch_examples =
      per_node ? static_cast<uint64_t>(n) * nodes : static_cast<uint64_t>(n);
  result.examples_processed =
      per_epoch_examples * static_cast<uint64_t>(options.epochs);
  result.neurons_processed =
      result.examples_processed * mlp.neurons_per_example();

  // Simulated time: every example reads and writes all parameters (dense
  // update) of its worker's replica, which lives on node 0 when shared.
  const uint64_t param_bytes = mlp.num_params() * sizeof(double);
  std::vector<numa::WorkerCost> costs(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    numa::ItemCost& c = costs[w].cost;
    c.updates = static_cast<uint64_t>(work[w].size()) *
                static_cast<uint64_t>(options.epochs);
    c.data_bytes =
        c.updates * static_cast<uint64_t>(data.input_dim) * sizeof(double);
    c.model_read_bytes = c.model_write_bytes = c.updates * param_bytes;
    c.flops = 2 * c.model_read_bytes / sizeof(double);
    costs[w].node = w / wpn;
    costs[w].replica_node = per_node ? w / wpn : 0;
  }
  result.sim_sec =
      numa::MemoryModel(topo)
          .SimulateEpoch(numa::PlaceTraffic(nodes, costs,
                                            per_node ? 1 : nodes, param_bytes))
          .total_sec;
  return result;
}

}  // namespace dw::nn
