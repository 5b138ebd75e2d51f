// Parallel MLP training under the paper's two strategy points
// (Sec. 5.2 / Fig. 17(b)):
//   kClassic    -- PerMachine model + Sharding (LeCun's original choice):
//                  one shared weight buffer, Hogwild-style updates, each
//                  worker sees its shard of the data;
//   kDimmWitted -- PerNode model + FullReplication: one weight replica per
//                  virtual node, each node sweeps the full dataset in its
//                  own order, replicas averaged at epoch boundaries.
#pragma once

#include <vector>

#include "nn/mlp.h"
#include "numa/memory_model.h"
#include "numa/topology.h"

namespace dw::nn {

/// Strategy points compared in Fig. 17(b).
enum class NnStrategy { kClassic, kDimmWitted };

/// Training configuration.
struct NnTrainOptions {
  NnStrategy strategy = NnStrategy::kDimmWitted;
  numa::Topology topology = numa::Local2();
  int workers_per_node = -1;
  int epochs = 3;
  double learning_rate = 0.02;
  double lr_decay = 0.9;
  uint64_t seed = 11;
  bool pin_threads = true;
  /// Examples used for the per-epoch loss estimate (0 = all).
  int eval_examples = 512;
};

/// Training output.
struct NnTrainResult {
  std::vector<double> loss_per_epoch;
  uint64_t examples_processed = 0;
  uint64_t neurons_processed = 0;  ///< Fig. 17(b)'s "variables/second" unit
  double wall_sec = 0.0;
  double sim_sec = 0.0;

  double SimNeuronsPerSec() const {
    return sim_sec > 0 ? static_cast<double>(neurons_processed) / sim_sec
                       : 0.0;
  }
};

/// Trains `mlp` on `data` under the given strategy.
NnTrainResult TrainParallel(const Mlp& mlp, const DigitData& data,
                            const NnTrainOptions& options);

}  // namespace dw::nn
