// Replicate-vs-share chooser for the serving stack's read-only copies:
// model replicas (the paper's Sec. 3.2-3.3 and Fig. 8, model replication)
// and feature-store tables (Fig. 9, data replication). Both are one
// tradeoff:
//
//   replicate: one copy per socket. Every read is node-local DRAM, but
//              every publish writes the copy once per socket and the
//              footprint is num_nodes copies.
//   share:     one copy. Publishes write once, but reads from the other
//              sockets cross the shared interconnect (QPI), which
//              saturates long before per-socket DRAM does.
//
// The chooser simulates one period -- the bytes read over it, spread
// evenly over the sockets, plus its publishes -- under both layouts with
// the same calibrated numa::MemoryModel the trainer uses, and picks the
// cheaper one. Registration prices one publish period from an estimate;
// opt::PlacementTuner prices the scan interval it observed. The two
// kinds differ only in physical facts the entry points set:
//
//   model replicas (kPerNode vs kPerMachine): the shared copy lives on
//     node 0, a publish rewrites the whole model, and a small replica may
//     stay LLC-resident.
//   feature tables (kReplicated vs kSharded): the shared copy is
//     interleaved over the sockets, so 1/num_nodes of each node's
//     gathers stay local; a delta publish rewrites only the churned
//     share; feature rows are data and never LLC-resident.
//
// Read-heavy copies on multi-socket topologies come out replicated;
// publish-dominated, single-socket or oversized ones come out shared.
#pragma once

#include <string>

#include "matrix/sparse_vector.h"
#include "numa/memory_model.h"
#include "numa/topology.h"

namespace dw::opt {

/// Per-family traffic estimate the registry hands the chooser at
/// registration time. Defaults describe a read-heavy scoring family; the
/// only field without a usable default is `dim`.
struct ServingTrafficEstimate {
  /// Model dimension (doubles). Fixes the replica footprint and the bytes
  /// one batched scoring pass streams.
  matrix::Index dim = 0;
  /// Expected rows per flushed mini-batch (RequestBatcher flush width).
  /// Load-bearing for the byte model: the blocked PredictBatch kernel
  /// streams the model replica ONCE per batch, so a period's model
  /// traffic is (rows / expected_batch_rows) streams -- wider batches
  /// amortize reads and shrink the payoff of replication.
  double expected_batch_rows = 64.0;
  /// Read/write asymmetry: ROWS scored per Publish(). Serving is
  /// read-mostly, so the default is high; a family refreshed by a fast
  /// SnapshotExporter against light traffic can be far lower (fractions
  /// are fine: 0.25 means one row per four publishes).
  double reads_per_publish = 65536.0;
};

/// The chooser's decision plus its reasoning (mirrors opt::PlanChoice).
struct PlacementChoice {
  /// true: one copy per socket (kPerNode / kReplicated); false: one
  /// shared copy (kPerMachine / kSharded).
  bool replicate = true;
  double replicate_cost_sec = 0.0;  ///< simulated period cost, replicated
  double share_cost_sec = 0.0;      ///< simulated period cost, shared
  double copy_bytes = 0.0;          ///< footprint of ONE copy
  std::string rationale;
};

/// Model replicas: prices `rows` scored rows, batched as `traffic`
/// describes and each batch streaming the whole model, against
/// `publishes` full-model publishes.
/// Registration passes (traffic.reads_per_publish, 1); the tuner passes
/// the interval it observed, where 0 publishes means no write term.
PlacementChoice ChooseModelPlacement(
    const numa::Topology& topo, const ServingTrafficEstimate& traffic,
    double rows, double publishes, const numa::MemoryModelParams& params = {});

/// Feature tables of `rows` x `dim` doubles: prices `gathers` row gathers
/// against `refreshes` publishes that each rewrite a `churn` fraction of
/// the table (clamped to (0, 1]; delta publishes clone only the churned
/// pages). Registration passes StoreOptions' estimate and 1 refresh; the
/// tuner passes the interval it observed.
PlacementChoice ChooseStorePlacement(
    const numa::Topology& topo, matrix::Index rows, matrix::Index dim,
    double gathers, double refreshes, double churn,
    const numa::MemoryModelParams& params = {});

}  // namespace dw::opt
