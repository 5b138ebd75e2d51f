// Execution plans (paper Sec. 3.1: "an execution plan specifies, for each
// CPU core, (1) a subset of the data matrix to operate on, (2) a replica
// of the model to update, and (3) the access method"). Workers and the
// replicas they touch form locality groups pinned to virtual NUMA nodes.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "engine/options.h"
#include "matrix/csc_matrix.h"
#include "models/model_spec.h"
#include "numa/memory_model.h"
#include "util/status.h"

namespace dw::engine {

using numa::ItemCost;

/// A row-wise step over a row with `nnz` nonzeros against a `dim`-wide
/// model. BuildPlan and the engine's per-epoch importance resampling both
/// charge rows through it.
ItemCost RowItemCost(uint64_t nnz, matrix::Index dim, bool dense_write);

/// One worker's slot in the plan.
struct WorkerPlan {
  int worker_id = 0;
  numa::CoreId core = 0;       ///< virtual core
  numa::NodeId node = 0;       ///< virtual node (locality group)
  int replica_index = 0;       ///< which model replica this worker updates
  bool data_is_local = true;   ///< whether its data lives on its node
  /// Static work assignment (row ids or column ids). For kImportance this
  /// holds the most recent epoch's sample.
  std::vector<matrix::Index> work;
  /// Precomputed traffic of one epoch over `work`.
  ItemCost per_epoch;
};

/// The full plan: worker slots plus replica geometry.
struct Plan {
  EngineOptions options;
  int num_workers = 0;
  int num_replicas = 0;
  /// Node on which each replica lives.
  std::vector<numa::NodeId> replica_node;
  std::vector<WorkerPlan> workers;
  /// Sockets sharing one replica (input to the memory model): 1 for
  /// PerCore/PerNode, num_nodes for PerMachine.
  int sharing_sockets = 1;
  /// Replica payload in bytes (model + aux) and replicas resident per
  /// node (for the LLC-fit term of the memory model).
  uint64_t replica_bytes = 0;
  int replicas_per_node = 1;

  /// Items iterated per epoch by one full pass (rows or cols).
  matrix::Index domain_size = 0;
};

/// Builds the plan for (dataset, spec, options). Validates that the spec
/// supports the requested access method and that options are coherent.
StatusOr<Plan> BuildPlan(const data::Dataset& dataset,
                         const models::ModelSpec& spec,
                         const EngineOptions& options,
                         const matrix::CscMatrix* csc);

}  // namespace dw::engine
