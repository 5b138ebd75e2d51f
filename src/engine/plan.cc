#include "engine/plan.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"
#include "util/rng.h"

namespace dw::engine {

using matrix::CscMatrix;
using matrix::Index;

const char* ToString(AccessMethod m) {
  switch (m) {
    case AccessMethod::kRowWise:
      return "Row-wise";
    case AccessMethod::kColWise:
      return "Column-wise";
    case AccessMethod::kColToRow:
      return "Column-to-row";
  }
  return "?";
}

const char* ToString(ModelReplication m) {
  switch (m) {
    case ModelReplication::kPerCore:
      return "PerCore";
    case ModelReplication::kPerNode:
      return "PerNode";
    case ModelReplication::kPerMachine:
      return "PerMachine";
  }
  return "?";
}

const char* ToString(DataReplication m) {
  switch (m) {
    case DataReplication::kSharding:
      return "Sharding";
    case DataReplication::kFullReplication:
      return "FullReplication";
    case DataReplication::kImportance:
      return "Importance";
  }
  return "?";
}

namespace {

constexpr uint64_t kEntryBytes = sizeof(double) + sizeof(Index);
constexpr uint64_t kValBytes = sizeof(double);

// Per-item traffic coefficients, filled per access method.
std::vector<ItemCost> ComputeItemCosts(const data::Dataset& d,
                                       const models::ModelSpec& spec,
                                       const EngineOptions& opts,
                                       const CscMatrix* csc) {
  const bool dense_write =
      spec.RowWriteSparsity() == models::UpdateSparsity::kDense;
  const Index dim = spec.ModelDim(d);
  std::vector<ItemCost> c(opts.access == AccessMethod::kRowWise ? d.a.rows()
                                                                 : d.a.cols());
  switch (opts.access) {
    case AccessMethod::kRowWise:
      for (Index i = 0; i < d.a.rows(); ++i) {
        c[i] = RowItemCost(d.a.RowNnz(i), dim, dense_write);
      }
      break;
    case AccessMethod::kColWise: {
      DW_CHECK(csc != nullptr);
      const bool has_aux = spec.AuxDim(d) > 0;
      for (Index j = 0; j < d.a.cols(); ++j) {
        const uint64_t nnz = csc->ColNnz(j);
        c[j].data_bytes = nnz * kEntryBytes;
        // Reads x_j plus (for Laplacian-style specs) neighbor values or
        // (for GLM SCD) the aux entries of S(j).
        c[j].model_read_bytes = (1 + nnz) * kValBytes;
        c[j].model_write_bytes = (1 + (has_aux ? nnz : 0)) * kValBytes;
        c[j].flops = 4 * nnz;
        c[j].updates = 1;
      }
      break;
    }
    case AccessMethod::kColToRow: {
      DW_CHECK(csc != nullptr);
      for (Index j = 0; j < d.a.cols(); ++j) {
        const auto col = csc->Col(j);
        uint64_t expanded = 0;
        for (size_t k = 0; k < col.nnz; ++k) {
          expanded += d.a.RowNnz(col.indices[k]);
        }
        c[j].data_bytes = expanded * kEntryBytes + col.nnz * kEntryBytes;
        c[j].model_read_bytes = (1 + expanded) * kValBytes;
        c[j].model_write_bytes = kValBytes;
        c[j].flops = 4 * expanded;
        c[j].updates = 1;
      }
      break;
    }
  }
  return c;
}

}  // namespace

ItemCost RowItemCost(uint64_t nnz, Index dim, bool dense_write) {
  ItemCost c;
  c.data_bytes = nnz * kEntryBytes;
  c.model_read_bytes = nnz * kValBytes;
  c.model_write_bytes = dense_write ? uint64_t{dim} * kValBytes
                                    : nnz * kValBytes;
  c.flops = 4 * nnz;
  c.updates = 1;
  return c;
}

StatusOr<Plan> BuildPlan(const data::Dataset& dataset,
                         const models::ModelSpec& spec,
                         const EngineOptions& options, const CscMatrix* csc) {
  // --- validation ----------------------------------------------------------
  switch (options.access) {
    case AccessMethod::kRowWise:
      if (!spec.HasRow()) {
        return Status::InvalidArgument(spec.name() + " has no f_row");
      }
      break;
    case AccessMethod::kColWise:
      if (!spec.HasCol()) {
        return Status::InvalidArgument(spec.name() + " has no f_col");
      }
      if (csc == nullptr) {
        return Status::FailedPrecondition("column access requires CSC index");
      }
      break;
    case AccessMethod::kColToRow:
      if (!spec.HasCtr()) {
        return Status::InvalidArgument(spec.name() + " has no f_ctr");
      }
      if (csc == nullptr) {
        return Status::FailedPrecondition("column access requires CSC index");
      }
      break;
  }
  if (dataset.a.rows() == 0 || dataset.a.cols() == 0) {
    return Status::InvalidArgument("empty dataset");
  }
  if (options.data_rep == DataReplication::kImportance &&
      options.access != AccessMethod::kRowWise) {
    return Status::InvalidArgument(
        "importance sampling is defined over rows (row-wise access only)");
  }

  const numa::Topology& topo = options.topology;
  const int wpn = options.workers_per_node > 0 ? options.workers_per_node
                                               : topo.cores_per_node;
  const int num_workers = wpn * topo.num_nodes;

  Plan plan;
  plan.options = options;
  plan.options.workers_per_node = wpn;
  plan.num_workers = num_workers;
  plan.domain_size = options.access == AccessMethod::kRowWise
                         ? dataset.a.rows()
                         : dataset.a.cols();

  // --- replica geometry ------------------------------------------------
  switch (options.model_rep) {
    case ModelReplication::kPerCore:
      plan.num_replicas = num_workers;
      plan.sharing_sockets = 1;
      plan.replicas_per_node = wpn;
      break;
    case ModelReplication::kPerNode:
      plan.num_replicas = topo.num_nodes;
      plan.sharing_sockets = 1;
      plan.replicas_per_node = 1;
      break;
    case ModelReplication::kPerMachine:
      plan.num_replicas = 1;
      plan.sharing_sockets = topo.num_nodes;
      plan.replicas_per_node = 1;
      break;
  }
  plan.replica_node.resize(plan.num_replicas);
  for (int r = 0; r < plan.num_replicas; ++r) {
    switch (options.model_rep) {
      case ModelReplication::kPerCore:
        // Replica r belongs to worker r, which lives on node r / wpn.
        plan.replica_node[r] = r / wpn;
        break;
      case ModelReplication::kPerNode:
        plan.replica_node[r] = r;
        break;
      case ModelReplication::kPerMachine:
        plan.replica_node[r] = 0;
        break;
    }
  }
  const uint64_t aux_doubles = options.access == AccessMethod::kColWise
                                   ? spec.AuxDim(dataset)
                                   : 0;
  plan.replica_bytes =
      (static_cast<uint64_t>(spec.ModelDim(dataset)) + aux_doubles) *
      sizeof(double);

  // --- worker slots ------------------------------------------------------
  const std::vector<ItemCost> costs =
      ComputeItemCosts(dataset, spec, options, csc);
  const Index domain = plan.domain_size;

  Rng rng(options.seed);
  std::vector<Index> global_perm(domain);
  std::iota(global_perm.begin(), global_perm.end(), Index{0});
  rng.Shuffle(global_perm);

  plan.workers.resize(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    WorkerPlan& wp = plan.workers[w];
    wp.worker_id = w;
    const int node = w / wpn;
    const int slot = w % wpn;
    wp.node = node;
    wp.core = topo.CoreOfWorker(w, wpn);
    switch (options.model_rep) {
      case ModelReplication::kPerCore:
        wp.replica_index = w;
        break;
      case ModelReplication::kPerNode:
        wp.replica_index = node;
        break;
      case ModelReplication::kPerMachine:
        wp.replica_index = 0;
        break;
    }
    wp.data_is_local = options.collocate_data ? true : (node == 0);

    switch (options.data_rep) {
      case DataReplication::kSharding: {
        // Random partition: a contiguous slice of a global permutation.
        const Index begin =
            static_cast<Index>(static_cast<uint64_t>(domain) * w / num_workers);
        const Index end = static_cast<Index>(static_cast<uint64_t>(domain) *
                                             (w + 1) / num_workers);
        wp.work.assign(global_perm.begin() + begin, global_perm.begin() + end);
        break;
      }
      case DataReplication::kFullReplication: {
        // Every node covers the whole domain; workers of one node split it
        // round-robin so the node's coverage is exact each epoch.
        wp.work.reserve(domain / wpn + 1);
        for (Index k = slot; k < domain; k += static_cast<Index>(wpn)) {
          wp.work.push_back(k);
        }
        break;
      }
      case DataReplication::kImportance: {
        // Filled per epoch by the engine; reserve the nominal size.
        wp.work.clear();
        break;
      }
    }

    for (Index item : wp.work) wp.per_epoch += costs[item];
  }
  return plan;
}

}  // namespace dw::engine
