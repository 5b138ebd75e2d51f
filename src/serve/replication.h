// Replication granularity of the read-only serving replicas, split out of
// model_family.h so the opt:: serving cost model can name it without
// pulling in (or cyclically depending on) the family itself.
#pragma once

namespace dw::serve {

/// Granularity of the read-only serving replicas (the serving analogue of
/// engine::ModelReplication; PerCore buys nothing for immutable state).
enum class Replication {
  kPerNode,     ///< one copy per NUMA node, readers route to the local one
  kPerMachine,  ///< one shared copy on node 0 (the Fig. 8 baseline)
};

const char* ToString(Replication r);

/// Placement of a family's read-only serving-time feature table (the
/// serving analogue of engine::DataReplication -- Fig. 9's axis applied
/// to id-keyed scoring, where the WORKERS gather the features).
enum class StorePlacement {
  kReplicated,  ///< full table copy on every node; every gather is local
  kSharded,     ///< rows interleaved across nodes; 1/n of gathers local
};

const char* ToString(StorePlacement p);

}  // namespace dw::serve
