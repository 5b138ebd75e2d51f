// Tests for the serving-time feature store: snapshot layout and ledger
// placement under both placements, the loaders that write a full Publish
// and a Republish (every row bitwise, per-node ledger bytes and the key
// index against the serial rule), publish/hot-swap semantics, the
// id-keyed scoring path end to end (bitwise equality against
// carried-feature requests, per GLM spec), admission edge cases, the
// memory-model ordering of a replicated over a sharded store, and a
// TSan-facing stress that hot-swaps table versions under pinned workers
// scoring id-keyed batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "models/glm.h"
#include "numa/memory_model.h"
#include "numa/numa_allocator.h"
#include "numa/topology.h"
#include "serve/feature_store.h"
#include "serve/serving_engine.h"
#include "util/rng.h"
#include "util/thread_util.h"

namespace dw::serve {
namespace {

using matrix::Index;

StoreOptions PinnedStore(StorePlacement p) {
  StoreOptions o;
  o.placement_override = p;
  return o;
}

/// Row-major table with cell (r, j) = r * 1000 + j (every cell names its
/// own coordinates, so a misrouted gather is self-evident).
std::vector<double> CoordinateTable(Index rows, Index dim) {
  std::vector<double> t(static_cast<size_t>(rows) * dim);
  for (Index r = 0; r < rows; ++r) {
    for (Index j = 0; j < dim; ++j) {
      t[static_cast<size_t>(r) * dim + j] = 1000.0 * r + j;
    }
  }
  return t;
}

std::vector<double> RandomTable(Index rows, Index dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> t(static_cast<size_t>(rows) * dim);
  for (auto& v : t) v = rng.Gaussian(0.0, 1.0);
  return t;
}

// --- snapshot layout and ledger -------------------------------------------

TEST(FeatureStoreTest, EmptyUntilFirstPublish) {
  auto alloc = std::make_shared<numa::NumaAllocator>(numa::Local2());
  obs::Registry reg;
  FeatureStore store("f", alloc, &reg, 8, 4,
                     PinnedStore(StorePlacement::kReplicated));
  EXPECT_EQ(store.current_version(), 0u);
  EXPECT_EQ(store.Acquire(), nullptr);
  EXPECT_EQ(store.rows(), 8u);
  EXPECT_EQ(store.dim(), 4u);
  EXPECT_EQ(store.rationale(), "explicit override");
}

TEST(FeatureStoreTest, ReplicatedPlacesFullTablePerNode) {
  const numa::Topology topo = numa::Local2();
  auto alloc = std::make_shared<numa::NumaAllocator>(topo);
  obs::Registry reg;
  const Index rows = 6;
  const Index dim = 4;
  FeatureStore store("f", alloc, &reg, rows, dim,
                     PinnedStore(StorePlacement::kReplicated));
  EXPECT_EQ(store.Publish(CoordinateTable(rows, dim)), 1u);

  const auto snap = store.Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->num_shards(), topo.num_nodes);
  EXPECT_EQ(snap->rows(), rows);
  EXPECT_EQ(snap->dim(), dim);
  for (int n = 0; n < topo.num_nodes; ++n) {
    // Every node holds a full copy, so every gather is the reader's own.
    EXPECT_EQ(alloc->ledger().BytesOnNode(n),
              static_cast<size_t>(rows) * dim * sizeof(double));
    for (Index r = 0; r < rows; ++r) {
      EXPECT_EQ(snap->OwnerNodeFor(n, r), n);
      const double* row = snap->RowForNode(n, r);
      for (Index j = 0; j < dim; ++j) {
        EXPECT_DOUBLE_EQ(row[j], 1000.0 * r + j) << "node " << n;
      }
    }
  }
}

TEST(FeatureStoreTest, ShardedInterleavesRowsAcrossNodes) {
  const numa::Topology topo = numa::Local2();
  auto alloc = std::make_shared<numa::NumaAllocator>(topo);
  obs::Registry reg;
  const Index rows = 7;  // odd: shard 0 holds 4 rows, shard 1 holds 3
  const Index dim = 3;
  FeatureStore store("f", alloc, &reg, rows, dim,
                     PinnedStore(StorePlacement::kSharded));
  store.Publish(CoordinateTable(rows, dim));

  const auto snap = store.Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->num_shards(), topo.num_nodes);
  EXPECT_EQ(alloc->ledger().BytesOnNode(0), 4u * dim * sizeof(double));
  EXPECT_EQ(alloc->ledger().BytesOnNode(1), 3u * dim * sizeof(double));
  for (Index r = 0; r < rows; ++r) {
    // Round-robin ownership; the same shard serves readers on BOTH nodes
    // (the remote gather is the point of the Fig. 9 comparison).
    const numa::NodeId owner = static_cast<numa::NodeId>(r % 2);
    EXPECT_EQ(snap->OwnerNodeFor(0, r), owner);
    EXPECT_EQ(snap->OwnerNodeFor(1, r), owner);
    EXPECT_EQ(snap->RowForNode(0, r), snap->RowForNode(1, r));
    const double* row = snap->RowForNode(0, r);
    for (Index j = 0; j < dim; ++j) {
      EXPECT_DOUBLE_EQ(row[j], 1000.0 * r + j) << "row " << r;
    }
  }
}

TEST(FeatureStoreTest, CostModelChoosesPlacement) {
  // No override: the chooser decides from the traffic estimate, exactly
  // like the model-side registry does.
  auto alloc = std::make_shared<numa::NumaAllocator>(numa::Local8());
  obs::Registry reg;
  StoreOptions read_heavy;
  read_heavy.reads_per_refresh = 1 << 20;
  FeatureStore hot("hot", alloc, &reg, 4096, 2048, read_heavy);
  EXPECT_EQ(hot.placement(), StorePlacement::kReplicated);
  EXPECT_FALSE(hot.rationale().empty());

  StoreOptions refresh_heavy;
  refresh_heavy.reads_per_refresh = 0.0;
  FeatureStore churn("churn", alloc, &reg, 4096, 2048, refresh_heavy);
  EXPECT_EQ(churn.placement(), StorePlacement::kSharded);
  EXPECT_FALSE(churn.rationale().empty());
}

TEST(FeatureStoreTest, RepublishSwapsVersionAndOldSnapshotStaysValid) {
  auto alloc = std::make_shared<numa::NumaAllocator>(numa::Local2());
  obs::Registry reg;
  FeatureStore store("f", alloc, &reg, 4, 2,
                     PinnedStore(StorePlacement::kReplicated));
  store.Publish(std::vector<double>(8, 1.0));
  const auto old_snap = store.Acquire();
  EXPECT_EQ(store.Publish(std::vector<double>(8, 2.0)), 2u);
  EXPECT_EQ(store.current_version(), 2u);
  // The old table stays valid while referenced (an in-flight batch keeps
  // gathering from it)...
  EXPECT_DOUBLE_EQ(old_snap->RowForNode(0, 3)[1], 1.0);
  EXPECT_DOUBLE_EQ(store.Acquire()->RowForNode(0, 3)[1], 2.0);
  // ...and both versions' bytes are live until the old one is released.
  EXPECT_EQ(alloc->ledger().BytesOnNode(0), 2u * 8 * sizeof(double));
}

TEST(FeatureStoreTest, SnapshotOutlivesStore) {
  std::shared_ptr<const FeatureStoreSnapshot> snap;
  {
    auto alloc = std::make_shared<numa::NumaAllocator>(numa::Local2());
    obs::Registry reg;
    FeatureStore store("f", alloc, &reg, 2, 2,
                       PinnedStore(StorePlacement::kSharded));
    store.Publish({1.0, 2.0, 3.0, 4.0});
    snap = store.Acquire();
  }
  // The snapshot keeps its allocator (and ledger) alive.
  EXPECT_DOUBLE_EQ(snap->RowForNode(1, 1)[1], 4.0);
}

TEST(FeatureStoreTest, PublishRejectsShapeMismatch) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto alloc = std::make_shared<numa::NumaAllocator>(numa::Local2());
  obs::Registry reg;
  FeatureStore store("f", alloc, &reg, 4, 4,
                     PinnedStore(StorePlacement::kReplicated));
  EXPECT_DEATH(store.Publish(std::vector<double>(15, 1.0)),
               "shape mismatch");
}

TEST(FeatureStoreTest, RowAccessorsValidateIndices) {
  // An out-of-range row id under kSharded would index past a shard and
  // silently serve a neighboring row's features; both accessors must
  // refuse loudly instead.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto alloc = std::make_shared<numa::NumaAllocator>(numa::Local2());
  obs::Registry reg;
  FeatureStore store("f", alloc, &reg, 4, 2,
                     PinnedStore(StorePlacement::kSharded));
  store.Publish(std::vector<double>(8, 1.0));
  const auto snap = store.Acquire();
  EXPECT_DOUBLE_EQ(snap->RowForNode(1, 3)[0], 1.0);
  EXPECT_DEATH(snap->RowForNode(0, 4), "row out of range");
  EXPECT_DEATH(snap->OwnerNodeFor(0, 100), "row out of range");
  EXPECT_DEATH(snap->RowForNode(2, 0), "node out of range");
  EXPECT_DEATH(snap->RowForNode(-1, 0), "negative node");
}

// --- loaders: full Publish and Republish ----------------------------------

StoreOptions PagedStore(StorePlacement p, Index page_rows) {
  StoreOptions o;
  o.placement_override = p;
  o.page_rows = page_rows;
  return o;
}

/// The index a serial build of the identity keys 0..rows-1 gives: shard
/// s holds the keys with MixKey(k) % nodes == s in a power-of-two table
/// of at least 16 entries, at most half full, without tombstones.
std::vector<StoreIndexShardStats> SerialIdentityIndex(Index rows,
                                                      int nodes) {
  std::vector<StoreIndexShardStats> out(nodes);
  for (int s = 0; s < nodes; ++s) out[s].node = s;
  for (Index k = 0; k < rows; ++k) {
    ++out[MixKey(k) % static_cast<uint64_t>(nodes)].live;
  }
  for (StoreIndexShardStats& st : out) {
    st.capacity = 16;
    while (st.capacity < 2 * st.live) st.capacity <<= 1;
  }
  return out;
}

void ExpectIndexStats(const FeatureStoreSnapshot& snap,
                      const std::vector<StoreIndexShardStats>& want) {
  const std::vector<StoreIndexShardStats> got = snap.IndexStats();
  ASSERT_EQ(got.size(), want.size());
  for (size_t s = 0; s < want.size(); ++s) {
    EXPECT_EQ(got[s].node, want[s].node);
    EXPECT_EQ(got[s].capacity, want[s].capacity) << "shard " << s;
    EXPECT_EQ(got[s].live, want[s].live) << "shard " << s;
    EXPECT_EQ(got[s].tombstones, want[s].tombstones) << "shard " << s;
  }
}

/// Row bytes each node should hold for the snapshot's resident pages
/// (those with a live slot): a page's positions split round-robin under
/// kSharded, a full copy per node under kReplicated.
std::vector<size_t> ExpectedNodeBytes(const FeatureStoreSnapshot& snap) {
  const int nodes = snap.num_shards();
  std::vector<size_t> bytes(nodes, 0);
  for (size_t p = 0; p < snap.num_pages(); ++p) {
    const Index start = static_cast<Index>(p) * snap.page_rows();
    const Index span = std::min(snap.page_rows(), snap.rows() - start);
    bool resident = false;
    for (Index i = 0; i < span; ++i) resident |= snap.SlotLive(start + i);
    if (!resident) continue;
    for (int n = 0; n < nodes; ++n) {
      const Index rows = snap.placement() == StorePlacement::kReplicated
                             ? span
                             : (span + nodes - 1 - n) / nodes;
      bytes[n] += static_cast<size_t>(rows) * snap.dim() * sizeof(double);
    }
  }
  return bytes;
}

/// Every expected key resolves, and its row reads back bitwise on every
/// node.
void ExpectRowsBitwise(const FeatureStoreSnapshot& snap,
                       const std::map<uint64_t, std::vector<double>>& want) {
  EXPECT_EQ(snap.live_rows(), want.size());
  for (const auto& [key, row] : want) {
    const auto slot = snap.LookupSlot(key);
    ASSERT_TRUE(slot.has_value()) << "key " << key;
    for (int n = 0; n < snap.num_shards(); ++n) {
      EXPECT_EQ(std::memcmp(snap.RowForNode(n, *slot), row.data(),
                            row.size() * sizeof(double)),
                0)
          << ToString(snap.placement()) << " key " << key << " node " << n;
    }
  }
}

TEST(FeatureStoreLoaderTest, MultiPageTablesLoadBitwiseWithSerialIndex) {
  // Several pages per loader on every host: the page count grows with
  // the CPU count. A short last page and a dim that is not a multiple of
  // 8 put every fragment boundary off the cache-line grid.
  const Index page_rows = 24;  // a multiple of 2 and 4
  const Index rows = static_cast<Index>(4 * NumOnlineCpus() + 1) * page_rows - 5;
  const Index dim = 13;
  const std::vector<double> table = RandomTable(rows, dim, 17);
  for (const numa::Topology& topo : {numa::Local2(), numa::Local4()}) {
    for (const StorePlacement p :
         {StorePlacement::kSharded, StorePlacement::kReplicated}) {
      SCOPED_TRACE(topo.name + " " + ToString(p));
      auto alloc = std::make_shared<numa::NumaAllocator>(topo);
      obs::Registry reg;
      FeatureStore store("f", alloc, &reg, rows, dim, PagedStore(p, page_rows));
      const int nodes = topo.num_nodes;
      EXPECT_GE(store.loaders(), nodes);
      EXPECT_EQ(store.loaders() % nodes, 0);
      store.Publish(table);
      const auto snap = store.Acquire();
      ASSERT_NE(snap, nullptr);
      EXPECT_GT(snap->num_pages(),
                static_cast<size_t>(store.loaders() / nodes));

      std::map<uint64_t, std::vector<double>> want;
      for (Index r = 0; r < rows; ++r) {
        const double* src = table.data() + static_cast<size_t>(r) * dim;
        want[r].assign(src, src + dim);
        EXPECT_EQ(snap->LookupSlot(r), r);
      }
      EXPECT_EQ(snap->LookupSlot(rows), std::nullopt);
      ExpectRowsBitwise(*snap, want);

      size_t data_bytes = 0;
      const std::vector<size_t> node_bytes = ExpectedNodeBytes(*snap);
      for (int n = 0; n < nodes; ++n) {
        const size_t owned =
            p == StorePlacement::kReplicated
                ? rows
                : static_cast<size_t>((rows + nodes - 1 - n) / nodes);
        EXPECT_EQ(node_bytes[n], owned * dim * sizeof(double));
        EXPECT_EQ(alloc->ledger().BytesOnNode(n), node_bytes[n]);
        data_bytes += node_bytes[n];
      }
      const std::vector<StoreIndexShardStats> index =
          SerialIdentityIndex(rows, nodes);
      ExpectIndexStats(*snap, index);

      // Bytes written: the rows, the index tables and the occupancy words.
      uint64_t written = data_bytes + ((rows + 63) / 64) * sizeof(uint64_t);
      for (const StoreIndexShardStats& st : index) {
        written += st.capacity * sizeof(StoreIndexShard::Entry);
      }
      const obs::RegistrySnapshot m = reg.Snapshot();
      const obs::Labels family = {{"family", "f"}};
      EXPECT_EQ(m.CounterValue("store.delta_bytes", family), written);
      EXPECT_EQ(m.GaugeValue("store.resident_bytes", family),
                static_cast<double>(data_bytes));
    }
  }
}

TEST(FeatureStoreLoaderTest, TablesWithFewerPagesThanCpusLoadEveryRow) {
  // One and three pages: a node never gets more loaders than pages.
  for (const numa::Topology& topo : {numa::Local2(), numa::Local4()}) {
    for (const Index rows : {Index{5}, Index{70}}) {
      for (const StorePlacement p :
           {StorePlacement::kSharded, StorePlacement::kReplicated}) {
        SCOPED_TRACE(topo.name + " " + ToString(p) + " rows " +
                     std::to_string(rows));
        auto alloc = std::make_shared<numa::NumaAllocator>(topo);
        obs::Registry reg;
        const Index dim = 3;
        FeatureStore store("f", alloc, &reg, rows, dim, PagedStore(p, 24));
        const std::vector<double> table = RandomTable(rows, dim, rows);
        store.Publish(table);
        const auto snap = store.Acquire();
        EXPECT_LE(static_cast<size_t>(store.loaders()),
                  topo.num_nodes * snap->num_pages());
        std::map<uint64_t, std::vector<double>> want;
        for (Index r = 0; r < rows; ++r) {
          const double* src = table.data() + static_cast<size_t>(r) * dim;
          want[r].assign(src, src + dim);
        }
        ExpectRowsBitwise(*snap, want);
        ExpectIndexStats(*snap, SerialIdentityIndex(rows, topo.num_nodes));
        const std::vector<size_t> node_bytes = ExpectedNodeBytes(*snap);
        for (int n = 0; n < topo.num_nodes; ++n) {
          EXPECT_EQ(alloc->ledger().BytesOnNode(n), node_bytes[n]);
        }
      }
    }
  }
}

TEST(FeatureStoreLoaderTest, RepublishBothWaysKeepsLiveRowsAfterDeltas) {
  // Scattered overwrites plus fresh keys that evict pages: Republish
  // must carry every live key's latest row, bitwise, to the new
  // placement and back, and lay out only the resident pages.
  const Index page_rows = 24;
  const Index rows = static_cast<Index>(4 * NumOnlineCpus() + 1) * page_rows - 5;
  const Index dim = 13;
  for (const numa::Topology& topo : {numa::Local2(), numa::Local4()}) {
    for (const StorePlacement from :
         {StorePlacement::kSharded, StorePlacement::kReplicated}) {
      const StorePlacement to = from == StorePlacement::kSharded
                                    ? StorePlacement::kReplicated
                                    : StorePlacement::kSharded;
      SCOPED_TRACE(topo.name + " from " + ToString(from));
      auto alloc = std::make_shared<numa::NumaAllocator>(topo);
      obs::Registry reg;
      FeatureStore store("f", alloc, &reg, rows, dim,
                         PagedStore(from, page_rows));
      Rng rng(23);
      const std::vector<double> table = RandomTable(rows, dim, 29);
      store.Publish(table);
      std::map<uint64_t, std::vector<double>> want;
      for (Index r = 0; r < rows; ++r) {
        const double* src = table.data() + static_cast<size_t>(r) * dim;
        want[r].assign(src, src + dim);
      }
      uint64_t fresh = uint64_t{1} << 40;
      for (int d = 0; d < 12; ++d) {
        std::vector<uint64_t> keys;
        for (const auto& [key, row] : want) {
          if (rng.Below(16) == 0) keys.push_back(key);
        }
        for (int i = 0; i < 9; ++i) keys.push_back(fresh++);
        const std::vector<double> block =
            RandomTable(static_cast<Index>(keys.size()), dim, 100 + d);
        store.PublishDelta(keys, block);
        for (size_t i = 0; i < keys.size(); ++i) {
          want[keys[i]].assign(block.begin() + i * dim,
                               block.begin() + (i + 1) * dim);
        }
        const auto snap = store.Acquire();
        for (auto it = want.begin(); it != want.end();) {
          it = snap->LookupSlot(it->first).has_value() ? std::next(it)
                                                       : want.erase(it);
        }
      }
      ASSERT_LT(want.size(), static_cast<size_t>(rows));  // pages evicted
      const std::vector<StoreIndexShardStats> index =
          store.Acquire()->IndexStats();

      for (const StorePlacement target : {to, from}) {
        SCOPED_TRACE(std::string("to ") + ToString(target));
        store.Republish(target);
        const auto snap = store.Acquire();
        ASSERT_EQ(snap->placement(), target);
        ExpectRowsBitwise(*snap, want);
        ExpectIndexStats(*snap, index);  // shared, not rebuilt
        const std::vector<size_t> node_bytes = ExpectedNodeBytes(*snap);
        size_t data_bytes = 0;
        for (int n = 0; n < topo.num_nodes; ++n) {
          EXPECT_EQ(alloc->ledger().BytesOnNode(n), node_bytes[n]);
          data_bytes += node_bytes[n];
        }
        EXPECT_EQ(reg.Snapshot().GaugeValue("store.resident_bytes",
                                            {{"family", "f"}}),
                  static_cast<double>(data_bytes));
      }
    }
  }
}

// --- serving-engine integration -------------------------------------------

ServingFamilyOptions ServeFamily(Index dim) {
  ServingFamilyOptions o;
  o.traffic.dim = dim;
  o.replication_override = Replication::kPerNode;
  return o;
}

StoreOptions PinnedServeStore(StorePlacement p) {
  StoreOptions o;
  o.placement_override = p;
  return o;
}

TEST(FeatureStoreServingTest, RegisterStoreValidatesInput) {
  models::LogisticSpec lr;
  ServingOptions opts;
  opts.topology = numa::Local2();
  ServingEngine server(opts);
  ASSERT_TRUE(server.RegisterFamily("lr", &lr, ServeFamily(8)).ok());

  // Unknown family.
  EXPECT_EQ(server.RegisterStore("nope", 4, 8).code(),
            Status::Code::kNotFound);
  // Degenerate shapes.
  EXPECT_EQ(server.RegisterStore("lr", 0, 8).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(server.RegisterStore("lr", 4, 0).code(),
            Status::Code::kInvalidArgument);
  // Store dim must match the family's model dim: an id-keyed row feeds
  // the family's PredictBatch directly.
  EXPECT_EQ(server.RegisterStore("lr", 4, 9).code(),
            Status::Code::kInvalidArgument);
  ASSERT_TRUE(server.RegisterStore("lr", 4, 8).ok());
  // One store per family.
  EXPECT_EQ(server.RegisterStore("lr", 4, 8).code(),
            Status::Code::kInvalidArgument);

  const FeatureStore* store = server.FindStore("lr");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->rows(), 4u);
  EXPECT_EQ(store->dim(), 8u);
  EXPECT_EQ(server.FindStore("nope"), nullptr);

  server.Publish("lr", std::vector<double>(8, 0.5));
  // A registered store must be published before Start: the id-keyed form
  // it promises would otherwise fail until the first refresh.
  EXPECT_EQ(server.Start().code(), Status::Code::kFailedPrecondition);
  server.PublishStore("lr", RandomTable(4, 8, 3));
  ASSERT_TRUE(server.Start().ok());
  // The family set (stores included) is frozen while serving.
  EXPECT_EQ(server.RegisterStore("lr", 4, 8).code(),
            Status::Code::kFailedPrecondition);
  server.Stop();
}

TEST(FeatureStoreServingTest, PublishStoreRequiresARegisteredStore) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  models::SvmSpec svm;
  ServingOptions opts;
  opts.topology = numa::Local2();
  ServingEngine server(opts);
  ASSERT_TRUE(server.RegisterFamily("svm", &svm, ServeFamily(4)).ok());
  EXPECT_DEATH(server.PublishStore("nope", std::vector<double>(4, 1.0)),
               "unregistered family");
  EXPECT_DEATH(server.PublishStore("svm", std::vector<double>(4, 1.0)),
               "no feature store");
}

TEST(FeatureStoreServingTest, IdAdmissionEdgeCases) {
  // The satellite's admission matrix: every id-keyed failure reports the
  // SAME Status code its carried-feature analogue reports.
  models::LeastSquaresSpec ls;
  ServingOptions opts;
  opts.topology = numa::Local2();
  ServingEngine server(opts);
  ASSERT_TRUE(server.RegisterFamily("ls", &ls, ServeFamily(4)).ok());
  server.Publish("ls", std::vector<double>(4, 0.5));

  // Unknown family: NotFound, like the carried form.
  EXPECT_EQ(server.Score("nope", 0).status().code(),
            Status::Code::kNotFound);
  // Id-keyed request against a family with no registered store.
  EXPECT_EQ(server.Score("ls", 0).status().code(),
            Status::Code::kFailedPrecondition);

  ASSERT_TRUE(
      server.RegisterStore("ls", 8, 4,
                           PinnedServeStore(StorePlacement::kReplicated))
          .ok());
  server.PublishStore("ls", RandomTable(8, 4, 5));
  // Out-of-range row id: InvalidArgument, exactly like an out-of-range
  // carried feature index.
  EXPECT_EQ(server.Score("ls", 8).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(server.Score("ls", {4}, {1.0}).status().code(),
            Status::Code::kInvalidArgument);
  // Valid but pre-Start: FailedPrecondition for both forms.
  EXPECT_EQ(server.Score("ls", 3).status().code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(server.Score("ls", {3}, {1.0}).status().code(),
            Status::Code::kFailedPrecondition);

  ASSERT_TRUE(server.Start().ok());
  auto ok = server.ScoreSync("ls", 3);
  EXPECT_TRUE(ok.ok());
  server.Stop();
}

/// Per-GLM-spec serving fixture for the bitwise acceptance check.
template <typename SpecT>
class IdKeyedGlmServingTest : public ::testing::Test {
 protected:
  SpecT spec;
};

using GlmSpecs =
    ::testing::Types<models::SvmSpec, models::LogisticSpec,
                     models::LeastSquaresSpec>;
TYPED_TEST_SUITE(IdKeyedGlmServingTest, GlmSpecs);

TYPED_TEST(IdKeyedGlmServingTest, IdKeyedScoresBitwiseEqualCarried) {
  // The acceptance criterion: Score(family, row_id) must be BITWISE equal
  // to the same row submitted as a carried-feature request. Both forms
  // reach the kernels as the same explicit dense view (the id-keyed row
  // points into the store snapshot; the carried row is its own buffer),
  // and single-row sync batches pin the kernel's tiling decisions, so
  // exact equality is the contract -- under both placements.
  const Index rows = 24;
  const Index dim = 48;
  const std::vector<double> table = RandomTable(rows, dim, 11);
  Rng rng(12);
  std::vector<double> weights(dim);
  for (auto& w : weights) w = rng.Gaussian(0.0, 0.4);

  for (const StorePlacement placement :
       {StorePlacement::kReplicated, StorePlacement::kSharded}) {
    ServingOptions opts;
    opts.topology = numa::Local2();
    opts.batch.max_batch_size = 8;
    opts.batch.max_delay = std::chrono::microseconds(100);
    ServingEngine server(opts);
    ASSERT_TRUE(
        server.RegisterFamily("glm", &this->spec, ServeFamily(dim)).ok());
    ASSERT_TRUE(
        server.RegisterStore("glm", rows, dim, PinnedServeStore(placement))
            .ok());
    server.Publish("glm", weights);
    server.PublishStore("glm", table);
    ASSERT_TRUE(server.Start().ok());

    for (Index r = 0; r < rows; ++r) {
      const std::vector<double> carried(
          table.begin() + static_cast<size_t>(r) * dim,
          table.begin() + static_cast<size_t>(r + 1) * dim);
      auto by_id = server.ScoreSync("glm", r);
      auto by_value = server.ScoreSync("glm", {}, carried);
      ASSERT_TRUE(by_id.ok());
      ASSERT_TRUE(by_value.ok());
      EXPECT_EQ(by_id.value(), by_value.value())
          << this->spec.name() << " row " << r << " under "
          << ToString(placement);
    }
    server.Stop();
  }
}

TEST(FeatureStoreServingTest, MixedCarriedAndIdRequestsShareBatches) {
  // Both request forms interleave in ONE family queue; flushed batches
  // mix them and every score must match the reference Predict.
  models::LogisticSpec lr;
  const Index rows = 32;
  const Index dim = 24;
  const std::vector<double> table = RandomTable(rows, dim, 21);
  Rng rng(22);
  std::vector<double> weights(dim);
  for (auto& w : weights) w = rng.Gaussian(0.0, 0.5);

  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.batch.max_batch_size = 16;
  opts.batch.max_delay = std::chrono::microseconds(200);
  ServingEngine server(opts);
  ASSERT_TRUE(server.RegisterFamily("lr", &lr, ServeFamily(dim)).ok());
  ASSERT_TRUE(
      server.RegisterStore("lr", rows, dim,
                           PinnedServeStore(StorePlacement::kReplicated))
          .ok());
  server.Publish("lr", weights);
  server.PublishStore("lr", table);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kRounds = 8;
  std::vector<std::future<double>> id_futs;
  std::vector<std::future<double>> carried_futs;
  for (int round = 0; round < kRounds; ++round) {
    for (Index r = 0; r < rows; ++r) {
      auto idf = server.Score("lr", r);
      ASSERT_TRUE(idf.ok());
      id_futs.push_back(std::move(idf).value());
      const std::vector<double> carried(
          table.begin() + static_cast<size_t>(r) * dim,
          table.begin() + static_cast<size_t>(r + 1) * dim);
      auto cf = server.Score("lr", {}, carried);
      ASSERT_TRUE(cf.ok());
      carried_futs.push_back(std::move(cf).value());
    }
  }
  for (int round = 0; round < kRounds; ++round) {
    for (Index r = 0; r < rows; ++r) {
      const matrix::SparseVectorView view{
          nullptr, table.data() + static_cast<size_t>(r) * dim, dim};
      const double reference = lr.Predict(weights.data(), view);
      const size_t k = static_cast<size_t>(round) * rows + r;
      // Mixed batches vary the dense kernel's 4-row tiling, so the bound
      // is reassociation epsilon, not bitwise.
      EXPECT_NEAR(id_futs[k].get(), reference, 1e-12) << "id row " << r;
      EXPECT_NEAR(carried_futs[k].get(), reference, 1e-12)
          << "carried row " << r;
    }
  }
  server.Stop();

  const ServingStats stats = server.Stats();
  ASSERT_EQ(stats.families.size(), 1u);
  const FamilyServingStats& f = stats.families[0];
  const obs::RegistrySnapshot snap = server.telemetry().Snapshot();
  const obs::Labels lr_family = {{"family", "lr"}};
  const uint64_t id_rows = snap.CounterValue("store.id_rows", lr_family);
  EXPECT_EQ(snap.CounterValue("serve.rows", lr_family), 2u * kRounds * rows);
  EXPECT_EQ(id_rows, static_cast<uint64_t>(kRounds) * rows);
  // Replicated store: every gather is the worker's own node.
  EXPECT_EQ(f.local_store_rows, id_rows);
  EXPECT_EQ(f.remote_store_rows, 0u);
  EXPECT_EQ(server.FindStore("lr")->current_version(), 1u);
}

TEST(FeatureStoreServingTest, ShardedGatherAccountsLocalAndRemoteRows) {
  models::LeastSquaresSpec ls;
  const Index rows = 16;
  const Index dim = 8;
  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.num_threads = 2;  // one worker per node
  opts.batch.max_batch_size = 4;
  opts.batch.max_delay = std::chrono::microseconds(100);
  ServingEngine server(opts);
  ASSERT_TRUE(server.RegisterFamily("ls", &ls, ServeFamily(dim)).ok());
  ASSERT_TRUE(
      server.RegisterStore("ls", rows, dim,
                           PinnedServeStore(StorePlacement::kSharded))
          .ok());
  server.Publish("ls", std::vector<double>(dim, 1.0));
  server.PublishStore("ls", CoordinateTable(rows, dim));
  ASSERT_TRUE(server.Start().ok());

  constexpr int kTotal = 256;
  for (int i = 0; i < kTotal; ++i) {
    const Index r = static_cast<Index>(i % rows);
    auto s = server.ScoreSync("ls", r);
    ASSERT_TRUE(s.ok());
    // sum_j (1000 r + j) = dim * 1000 r + dim(dim-1)/2.
    EXPECT_DOUBLE_EQ(s.value(), 1000.0 * r * dim + dim * (dim - 1) / 2.0);
  }
  server.Stop();

  const ServingStats stats = server.Stats();
  ASSERT_EQ(stats.families.size(), 1u);
  const FamilyServingStats& f = stats.families[0];
  const uint64_t id_rows = server.telemetry().Snapshot().CounterValue(
      "store.id_rows", {{"family", "ls"}});
  EXPECT_EQ(id_rows, static_cast<uint64_t>(kTotal));
  // Which worker drained each batch is scheduling, but the local/remote
  // split must reconcile exactly, and remote gathers must be mirrored in
  // the interconnect traffic counter.
  EXPECT_EQ(f.local_store_rows + f.remote_store_rows, id_rows);
  EXPECT_GE(server.SimInput().traffic.Total().remote_read_bytes,
            f.remote_store_rows * dim * sizeof(double));
}

/// The memory-model input for a store run's total traffic under BALANCED
/// routing: every active node serves an equal share of the rows (which
/// worker drains a batch is scheduling noise). Under the sharded store
/// 1/nodes of a node's gathers hit its own shard and the rest cross the
/// interconnect; the replicated store is node-local everywhere. The model
/// side is pinned kPerNode, so it cancels out.
numa::SimulationInput BalancedStoreSimInput(const numa::AccessCounters& t,
                                            const numa::Topology& topo,
                                            bool sharded_features,
                                            int threads,
                                            uint64_t model_bytes) {
  const int nodes_used = std::min(threads, topo.num_nodes);
  numa::SimulationInput in(topo.num_nodes);
  // All data-side bytes are feature gathers (rows * dim * 8).
  const uint64_t feature_total = t.local_read_bytes + t.remote_read_bytes;
  for (int n = 0; n < nodes_used; ++n) {
    numa::AccessCounters c;
    const uint64_t share = feature_total / nodes_used;
    if (sharded_features) {
      c.local_read_bytes = share / nodes_used;
      c.remote_read_bytes = share - share / nodes_used;
    } else {
      c.local_read_bytes = share;
    }
    c.model_read_bytes = t.model_read_bytes / nodes_used;
    c.flops = t.flops / nodes_used;
    c.updates = t.updates / nodes_used;
    in.traffic.per_node[n] = c;
    in.active_workers[n] = std::max(1, threads / nodes_used);
  }
  in.model_sharing_sockets = 1;
  in.model_bytes = model_bytes;
  return in;
}

/// Memory-model rows/s for `total_rows` id-keyed requests (cycling over
/// the table) scored in batches on every core of `topo` against a store
/// pinned to `placement`.
double StoreModelRowsPerSec(const std::vector<double>& table, Index rows,
                            Index dim, const numa::Topology& topo,
                            StorePlacement placement, int total_rows) {
  models::LogisticSpec lr;
  ServingOptions opts;
  opts.topology = topo;
  opts.num_threads = topo.total_cores();
  opts.batch.max_batch_size = 64;
  opts.batch.max_delay = std::chrono::microseconds(200);
  opts.scoring = ScoringMode::kBatched;
  ServingEngine server(opts);
  EXPECT_TRUE(server.RegisterFamily("wide", &lr, ServeFamily(dim)).ok());
  EXPECT_TRUE(
      server.RegisterStore("wide", rows, dim, PinnedServeStore(placement))
          .ok());
  server.Publish("wide", std::vector<double>(dim, 0.01));
  server.PublishStore("wide", table);
  EXPECT_TRUE(server.Start().ok());

  std::vector<std::future<double>> futures;
  futures.reserve(total_rows);
  for (int r = 0; r < total_rows; ++r) {
    for (;;) {
      auto fut = server.Score("wide", static_cast<Index>(r) % rows);
      if (fut.ok()) {
        futures.push_back(std::move(fut).value());
        break;
      }
      if (fut.status().code() != Status::Code::kResourceExhausted) {
        ADD_FAILURE() << fut.status().ToString();
        break;
      }
      std::this_thread::yield();
    }
  }
  for (auto& f : futures) f.get();
  server.Stop();

  EXPECT_EQ(server.telemetry().Snapshot().CounterValue("serve.rows",
                                                        {{"family", "wide"}}),
            static_cast<uint64_t>(total_rows));
  const double sim_sec =
      numa::MemoryModel(topo)
          .SimulateEpoch(BalancedStoreSimInput(
              server.SimInput().traffic.Total(), topo,
              placement == StorePlacement::kSharded,
              topo.total_cores(), dim * sizeof(double)))
          .total_sec;
  return sim_sec > 0.0 ? total_rows / sim_sec : 0.0;
}

TEST(FeatureStoreServingTest, ReplicatedStoreModelsAtLeastShardedThroughput) {
  // Fig. 9 for serving: once gathers span sockets, a full table copy per
  // node must model at least the throughput of a sharded table.
  const Index rows = 4096;
  const Index dim = 2048;
  const numa::Topology topo = numa::Local2();
  const std::vector<double> table(static_cast<size_t>(rows) * dim, 1.0);
  const double replicated = StoreModelRowsPerSec(
      table, rows, dim, topo, StorePlacement::kReplicated, 4000);
  const double sharded = StoreModelRowsPerSec(
      table, rows, dim, topo, StorePlacement::kSharded, 4000);
  EXPECT_GE(replicated, sharded);
  EXPECT_GT(sharded, 0.0);
}

TEST(FeatureStoreServingTest, HotSwapStoreWhileScoringNeverTearsARow) {
  // The satellite TSan stress: a publisher hot-swaps the feature table
  // while pinned workers score id-keyed batches. Version v's table holds
  // the constant v in every cell, and the model weights are all ones, so
  // a scored row must equal v * dim for SOME whole published v -- a torn
  // row (cells from two versions) or a torn batch would produce a
  // non-integral multiple and fail loudly.
  models::LeastSquaresSpec ls;
  const Index rows = 32;
  const Index dim = 64;
  constexpr int kVersions = 120;
  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.batch.max_batch_size = 8;
  opts.batch.max_delay = std::chrono::microseconds(50);
  ServingEngine server(opts);
  ASSERT_TRUE(server.RegisterFamily("ls", &ls, ServeFamily(dim)).ok());
  ASSERT_TRUE(
      server.RegisterStore("ls", rows, dim,
                           PinnedServeStore(StorePlacement::kReplicated))
          .ok());
  server.Publish("ls", std::vector<double>(dim, 1.0));
  server.PublishStore(
      "ls", std::vector<double>(static_cast<size_t>(rows) * dim, 1.0));
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (int v = 2; v <= kVersions; ++v) {
      server.PublishStore(
          "ls", std::vector<double>(static_cast<size_t>(rows) * dim,
                                    static_cast<double>(v)));
      std::this_thread::yield();  // give scorers a slice of every version
    }
    stop.store(true, std::memory_order_release);
  });

  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 3; ++t) {
    producers.emplace_back([&, t] {
      Index r = static_cast<Index>(t);
      uint64_t scored = 0;
      // Keep scoring until the publisher is done AND a minimum overlap
      // is in the books (the publisher may outrun a slow-starting
      // producer thread on a loaded CI box).
      while (!stop.load(std::memory_order_acquire) || scored < 64) {
        auto s = server.ScoreSync("ls", r);
        ASSERT_TRUE(s.ok()) << s.status().ToString();
        const double v = s.value() / static_cast<double>(dim);
        if (v != std::floor(v) || v < 1.0 ||
            v > static_cast<double>(kVersions)) {
          torn.fetch_add(1);
        }
        r = (r + 1) % rows;
        ++scored;
      }
    });
  }
  publisher.join();
  for (auto& t : producers) t.join();
  server.Stop();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(server.FindStore("ls")->current_version(),
            static_cast<uint64_t>(kVersions));
  EXPECT_GT(server.telemetry().Snapshot().CounterValue("store.id_rows",
                                                       {{"family", "ls"}}),
            0u);
}

}  // namespace
}  // namespace dw::serve
