// Tests for the KV-grade feature store surface: the sharded key index
// (load factor, tombstone reuse, shard balance), row-granular delta
// publishes (row sharing, byte accounting, delta bytes vs churn, space
// held under scattered churn, row positions pinned by old versions and
// reused after them), clock eviction and its caller-visible miss
// semantics, delta-aware Republish, the engine's ScoreKey path
// (admission matrix, miss metrics, row ids after deltas), and two
// TSan-facing stresses: deltas + evictions under pipelined key scoring,
// and readers pinning old versions while positions are reused.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "models/glm.h"
#include "numa/numa_allocator.h"
#include "numa/topology.h"
#include "serve/feature_store.h"
#include "serve/serving_engine.h"
#include "util/rng.h"

namespace dw::serve {
namespace {

using matrix::Index;

/// A standalone store's store.<name> counter, read from its registry by
/// exported name.
uint64_t StoreCount(const obs::Registry& reg, const std::string& name,
                    const FeatureStore& store) {
  return reg.Snapshot().CounterValue("store." + name,
                                     {{"family", store.family()}});
}

StoreOptions PagedStore(StorePlacement p, Index page_rows) {
  StoreOptions o;
  o.placement_override = p;
  o.page_rows = page_rows;
  return o;
}

/// Row-major table with cell (r, j) = r * 1000 + j.
std::vector<double> CoordinateTable(Index rows, Index dim) {
  std::vector<double> t(static_cast<size_t>(rows) * dim);
  for (Index r = 0; r < rows; ++r) {
    for (Index j = 0; j < dim; ++j) {
      t[static_cast<size_t>(r) * dim + j] = 1000.0 * r + j;
    }
  }
  return t;
}

/// One delta block: every cell of key k's row = `value`.
std::vector<double> UniformRows(size_t keys, Index dim, double value) {
  return std::vector<double>(keys * static_cast<size_t>(dim), value);
}

// --- row maps over shared blocks ------------------------------------------

TEST(FeatureStoreDeltaTest, DeltaSharesUntouchedPagesWithPreviousVersion) {
  const numa::Topology topo = numa::Local2();
  auto alloc = std::make_shared<numa::NumaAllocator>(topo);
  obs::Registry reg;
  const Index rows = 16;
  const Index dim = 4;
  // 4 pages of 4 rows.
  FeatureStore store("f", alloc, &reg, rows, dim,
                     PagedStore(StorePlacement::kReplicated, 4));
  store.Publish(CoordinateTable(rows, dim));
  const auto v1 = store.Acquire();
  ASSERT_NE(v1, nullptr);

  // Overwrite two keys in page 1 (slots 4..7). Only that page's row map
  // clones; the two rows are written once each.
  const StorePublishReport rep =
      store.PublishDelta({5, 6}, UniformRows(2, dim, 7.0));
  EXPECT_EQ(rep.version, 2u);
  EXPECT_EQ(rep.touched_pages, 1u);
  EXPECT_EQ(rep.evicted_keys, 0u);
  EXPECT_EQ(rep.live_rows, static_cast<uint64_t>(rows));
  EXPECT_LT(rep.delta_bytes, rep.full_bytes);

  const auto v2 = store.Acquire();
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v2->version(), 2u);
  for (int n = 0; n < topo.num_nodes; ++n) {
    for (Index r = 0; r < rows; ++r) {
      if (r == 5 || r == 6) {
        // Written rows land at positions v1 does not read.
        EXPECT_NE(v1->RowForNode(n, r), v2->RowForNode(n, r)) << "row " << r;
      } else {
        // Every other row keeps its address, rows 4 and 7 of the touched
        // page included: the delta copied no row it did not write.
        EXPECT_EQ(v1->RowForNode(n, r), v2->RowForNode(n, r)) << "row " << r;
      }
    }
  }
  // Values: 5 and 6 overwritten, everything else (page 1 included) keeps
  // the v1 contents -- and v1 itself is untouched.
  for (Index r = 0; r < rows; ++r) {
    const double expect0 = (r == 5 || r == 6) ? 7.0 : 1000.0 * r;
    EXPECT_DOUBLE_EQ(v2->RowForNode(0, r)[0], expect0) << "row " << r;
    EXPECT_DOUBLE_EQ(v1->RowForNode(0, r)[0], 1000.0 * r) << "v1 row " << r;
  }
  // Keys resolve through the index on both versions.
  EXPECT_EQ(v2->LookupSlot(5), std::optional<Index>(5));
  EXPECT_EQ(v2->LookupSlot(99), std::nullopt);
}

/// A churn sweep on a kSharded store of 32-row pages: one full publish,
/// then one delta per churn fraction (0.1% -> 100%) overwriting a
/// CONTIGUOUS rotating key window. Update feeds arrive clustered and slots
/// are insertion-ordered, so a window maps to O(churn / page_rows) pages;
/// random scatter would touch most pages (bench_key_index measures that
/// contrast). Returns delta bytes over full-rewrite bytes at 1% churn.
double DeltaRatioAtOnePercentChurn(Index rows, Index dim) {
  auto alloc = std::make_shared<numa::NumaAllocator>(numa::Local2());
  obs::Registry reg;
  FeatureStore store("sweep", alloc, &reg, rows, dim,
                     PagedStore(StorePlacement::kSharded, 32));
  store.Publish(UniformRows(rows, dim, 1.0));
  double ratio = 1.0;
  uint64_t window_start = 0;
  for (const double churn : {0.001, 0.01, 0.1, 1.0}) {
    const size_t n =
        std::max<size_t>(1, static_cast<size_t>(churn * rows));
    std::vector<uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = (window_start + i) % rows;
    window_start = (window_start + n) % rows;
    const StorePublishReport rep =
        store.PublishDelta(keys, UniformRows(n, dim, 2.0));
    EXPECT_GT(rep.full_bytes, 0u);
    if (churn == 0.01) {
      ratio = static_cast<double>(rep.delta_bytes) / rep.full_bytes;
    }
  }
  return ratio;
}

TEST(FeatureStoreDeltaTest, RefreshBytesScaleWithChurnNotTableSize) {
  // A 1% delta must write at most a quarter of a full rewrite's bytes, on
  // a narrow and a wide table.
  EXPECT_LE(DeltaRatioAtOnePercentChurn(1024, 64), 0.25);
  EXPECT_LE(DeltaRatioAtOnePercentChurn(8192, 256), 0.25);
}

// --- scattered churn: rows written, positions reused ----------------------

/// `n` distinct keys drawn uniformly from [0, rows): a partial
/// Fisher-Yates draw, the way a scattered update feed arrives.
std::vector<uint64_t> ScatteredKeys(Rng& rng, Index rows, size_t n) {
  std::vector<uint64_t> perm(rows);
  for (Index k = 0; k < rows; ++k) perm[k] = k;
  for (size_t i = 0; i < n; ++i) {
    std::swap(perm[i], perm[i + rng.Below(rows - i)]);
  }
  perm.resize(n);
  return perm;
}

size_t LedgerBytes(const numa::NumaAllocator& alloc) {
  size_t total = 0;
  for (int n = 0; n < alloc.topology().num_nodes; ++n) {
    total += alloc.ledger().BytesOnNode(n);
  }
  return total;
}

constexpr Index kChurnRows = 16384;
constexpr Index kChurnDim = 128;
constexpr Index kChurnPageRows = 64;
constexpr size_t kChurnKeys = kChurnRows / 100;  // 1% per delta

TEST(FeatureStoreDeltaTest, ScatteredChurnCopiesRowsNotPages) {
  // 1% scattered keys touch about half of the 64-row pages. A delta that
  // cloned those pages wrote about 0.47 of a full rewrite; one that
  // writes the rows, the touched pages' row maps and the blocks it needs
  // stays under 0.05, on both placements.
  for (const StorePlacement p :
       {StorePlacement::kSharded, StorePlacement::kReplicated}) {
    auto alloc = std::make_shared<numa::NumaAllocator>(numa::Local2());
    obs::Registry reg;
    FeatureStore store("f", alloc, &reg, kChurnRows, kChurnDim,
                       PagedStore(p, kChurnPageRows));
    store.Publish(CoordinateTable(kChurnRows, kChurnDim));
    Rng rng(11);
    for (int d = 0; d < 3; ++d) {
      const StorePublishReport rep = store.PublishDelta(
          ScatteredKeys(rng, kChurnRows, kChurnKeys),
          UniformRows(kChurnKeys, kChurnDim, d));
      EXPECT_GT(rep.touched_pages, 64u) << ToString(p);
      EXPECT_LE(static_cast<double>(rep.delta_bytes) / rep.full_bytes, 0.05)
          << ToString(p) << " delta " << d;
    }
  }
}

TEST(FeatureStoreDeltaTest, ScatteredChurnSpaceStaysNearTheTable) {
  // 400 scattered deltas, each snapshot released before the next delta:
  // the positions each delta retires are reused, so the store's data
  // ledger stays within 5% of the table plus one block per node, and the
  // two space gauges read what the store holds.
  for (const StorePlacement p :
       {StorePlacement::kSharded, StorePlacement::kReplicated}) {
    const numa::Topology topo = numa::Local2();
    auto alloc = std::make_shared<numa::NumaAllocator>(topo);
    obs::Registry reg;
    FeatureStore store("f", alloc, &reg, kChurnRows, kChurnDim,
                       PagedStore(p, kChurnPageRows));
    store.Publish(CoordinateTable(kChurnRows, kChurnDim));
    const size_t copies = p == StorePlacement::kReplicated ? 2 : 1;
    const size_t row_bytes = kChurnDim * sizeof(double) * copies;
    const size_t table_bytes = kChurnRows * row_bytes;
    const size_t block_bytes = kChurnPageRows * row_bytes;
    const obs::Labels family = {{"family", "f"}};
    Rng rng(5);
    for (int d = 0; d < 400; ++d) {
      store.PublishDelta(ScatteredKeys(rng, kChurnRows, kChurnKeys),
                         UniformRows(kChurnKeys, kChurnDim, d));
      const size_t ledger = LedgerBytes(*alloc);
      ASSERT_LE(ledger, 1.05 * table_bytes + topo.num_nodes * block_bytes)
          << ToString(p) << " delta " << d;
      const obs::RegistrySnapshot snap = reg.Snapshot();
      ASSERT_EQ(snap.GaugeValue("store.resident_bytes", family),
                static_cast<double>(ledger))
          << ToString(p) << " delta " << d;
      ASSERT_EQ(snap.GaugeValue("store.live_bytes", family),
                static_cast<double>(table_bytes))
          << ToString(p) << " delta " << d;
    }
  }
}

TEST(FeatureStoreDeltaTest, PinnedVersionKeepsItsRowsUntilReleased) {
  // A reader pinning v1 across 50 deltas pins v1's positions too: v1
  // reads every original row bitwise and the ledger grows by each
  // delta's rows. Once v1 is released, the retired positions cover the
  // next 100 deltas without a new block.
  for (const StorePlacement p :
       {StorePlacement::kSharded, StorePlacement::kReplicated}) {
    const numa::Topology topo = numa::Local2();
    auto alloc = std::make_shared<numa::NumaAllocator>(topo);
    obs::Registry reg;
    FeatureStore store("f", alloc, &reg, kChurnRows, kChurnDim,
                       PagedStore(p, kChurnPageRows));
    store.Publish(CoordinateTable(kChurnRows, kChurnDim));
    auto v1 = store.Acquire();
    const size_t copies = p == StorePlacement::kReplicated ? 2 : 1;
    const size_t row_bytes = kChurnDim * sizeof(double) * copies;
    const size_t published = LedgerBytes(*alloc);
    Rng rng(3);
    for (int d = 0; d < 50; ++d) {
      store.PublishDelta(ScatteredKeys(rng, kChurnRows, kChurnKeys),
                         UniformRows(kChurnKeys, kChurnDim, -1.0 - d));
    }
    EXPECT_GE(LedgerBytes(*alloc), published + 50 * kChurnKeys * row_bytes)
        << ToString(p);
    for (int n = 0; n < topo.num_nodes; ++n) {
      for (Index r = 0; r < kChurnRows; ++r) {
        const double* row = v1->RowForNode(n, r);
        for (Index j = 0; j < kChurnDim; ++j) {
          ASSERT_EQ(row[j], 1000.0 * r + j)
              << ToString(p) << " node " << n << " row " << r;
        }
      }
    }
    v1.reset();
    const size_t released = LedgerBytes(*alloc);
    for (int d = 0; d < 100; ++d) {
      store.PublishDelta(ScatteredKeys(rng, kChurnRows, kChurnKeys),
                         UniformRows(kChurnKeys, kChurnDim, d));
      ASSERT_EQ(LedgerBytes(*alloc), released)
          << ToString(p) << " delta " << d << " allocated a block";
    }
  }
}

TEST(FeatureStoreDeltaTest, DeltaBootstrapsAnEmptyStoreAndAddsKeys) {
  // PublishDelta without a prior full Publish: only the touched pages
  // materialize; the rest of the chain stays unallocated.
  const numa::Topology topo = numa::Local2();
  auto alloc = std::make_shared<numa::NumaAllocator>(topo);
  obs::Registry reg;
  const Index dim = 4;
  FeatureStore store("f", alloc, &reg, 16, dim,
                     PagedStore(StorePlacement::kReplicated, 4));
  const StorePublishReport rep =
      store.PublishDelta({100, 200}, UniformRows(2, dim, 3.0));
  EXPECT_EQ(rep.version, 1u);
  EXPECT_EQ(rep.touched_pages, 1u);
  EXPECT_EQ(rep.live_rows, 2u);

  const auto snap = store.Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->live_rows(), 2u);
  const auto slot100 = snap->LookupSlot(100);
  const auto slot200 = snap->LookupSlot(200);
  ASSERT_TRUE(slot100.has_value());
  ASSERT_TRUE(slot200.has_value());
  EXPECT_TRUE(snap->SlotLive(*slot100));
  EXPECT_FALSE(snap->SlotLive(15));  // tail page never populated
  EXPECT_DOUBLE_EQ(snap->RowForNode(1, *slot100)[dim - 1], 3.0);
  EXPECT_TRUE(store.ContainsKey(200));
  EXPECT_FALSE(store.ContainsKey(300));
}

TEST(FeatureStoreDeltaTest, ShardedDeltaKeepsRowGranularInterleave) {
  // Sharding stays row-granular round-robin under pages: delta rows land
  // on the fragment their slot owns, and gathers agree from every node.
  const numa::Topology topo = numa::Local2();
  auto alloc = std::make_shared<numa::NumaAllocator>(topo);
  obs::Registry reg;
  const Index rows = 8;
  const Index dim = 3;
  FeatureStore store("f", alloc, &reg, rows, dim,
                     PagedStore(StorePlacement::kSharded, 4));
  store.Publish(CoordinateTable(rows, dim));
  store.PublishDelta({1, 2}, UniformRows(2, dim, 42.0));

  const auto snap = store.Acquire();
  ASSERT_NE(snap, nullptr);
  for (Index r = 0; r < rows; ++r) {
    const numa::NodeId owner = static_cast<numa::NodeId>(r % 2);
    EXPECT_EQ(snap->OwnerNodeFor(0, r), owner);
    EXPECT_EQ(snap->RowForNode(0, r), snap->RowForNode(1, r));
    const double expect = (r == 1 || r == 2) ? 42.0 : 1000.0 * r;
    EXPECT_DOUBLE_EQ(snap->RowForNode(0, r)[0], expect) << "row " << r;
  }
}

// --- key index: load factor, tombstones, balance --------------------------

TEST(FeatureStoreDeltaTest, IndexLoadFactorStaysUnderTheGrowKnee) {
  const numa::Topology topo = numa::Local2();
  auto alloc = std::make_shared<numa::NumaAllocator>(topo);
  obs::Registry reg;
  const Index rows = 256;
  const Index dim = 2;
  FeatureStore store("f", alloc, &reg, rows, dim,
                     PagedStore(StorePlacement::kReplicated, 16));
  store.Publish(CoordinateTable(rows, dim));
  Rng rng(7);
  uint64_t next_key = 1000;
  for (int round = 0; round < 20; ++round) {
    // Mixed churn: some fresh keys (forcing evictions once full), some
    // overwrites of the previous round's keys.
    std::vector<uint64_t> keys;
    for (int i = 0; i < 48; ++i) keys.push_back(next_key++);
    store.PublishDelta(keys, UniformRows(keys.size(), dim, round));
    uint64_t live_total = 0;
    for (const StoreIndexShardStats& st : store.Acquire()->IndexStats()) {
      ASSERT_GT(st.capacity, 0u);
      // Power-of-two capacity, occupancy bounded by the 0.7 grow knee.
      EXPECT_EQ(st.capacity & (st.capacity - 1), 0u);
      EXPECT_LE((st.live + st.tombstones) * 10, st.capacity * 7)
          << "round " << round << " shard " << st.node;
      live_total += st.live;
    }
    EXPECT_EQ(live_total, store.Acquire()->live_rows());
  }
}

TEST(FeatureStoreDeltaTest, EvictionTombstonesAreReusedOnReinsert) {
  const numa::Topology topo = numa::Local2();
  auto alloc = std::make_shared<numa::NumaAllocator>(topo);
  obs::Registry reg;
  const Index rows = 8;
  const Index dim = 2;
  FeatureStore store("f", alloc, &reg, rows, dim,
                     PagedStore(StorePlacement::kReplicated, 4));
  store.Publish(CoordinateTable(rows, dim));  // identity keys 0..7, full

  // One fresh key with every slot live: the clock must evict a page.
  const StorePublishReport rep =
      store.PublishDelta({100}, UniformRows(1, dim, 1.0));
  EXPECT_EQ(rep.evicted_keys, 4u);  // one page of 4 slots
  EXPECT_EQ(rep.live_rows, 5u);
  EXPECT_EQ(StoreCount(reg, "evictions", store), 4u);

  const auto after_evict = store.Acquire();
  uint64_t tombs_before = 0;
  for (const auto& st : after_evict->IndexStats()) {
    tombs_before += st.tombstones;
  }
  // 4 keys tombstoned; the new key may have reused one grave on its
  // probe path.
  EXPECT_GE(tombs_before, 3u);
  EXPECT_TRUE(store.ContainsKey(100));

  // Re-insert three of the evicted keys: each probe crosses its own
  // grave, so the tombstone count must drop by exactly 3 (no growth at
  // this occupancy).
  const std::vector<uint64_t> evicted = [&] {
    std::vector<uint64_t> out;
    for (uint64_t k = 0; k < 8 && out.size() < 3; ++k) {
      if (!store.ContainsKey(k)) out.push_back(k);
    }
    return out;
  }();
  ASSERT_EQ(evicted.size(), 3u);
  store.PublishDelta(evicted, UniformRows(3, dim, 2.0));
  uint64_t tombs_after = 0;
  for (const auto& st : store.Acquire()->IndexStats()) {
    tombs_after += st.tombstones;
  }
  EXPECT_EQ(tombs_after, tombs_before - 3);
  for (const uint64_t k : evicted) EXPECT_TRUE(store.ContainsKey(k));
}

TEST(FeatureStoreDeltaTest, IndexShardsBalanceAcrossNodes) {
  const numa::Topology topo = numa::Local8();
  auto alloc = std::make_shared<numa::NumaAllocator>(topo);
  obs::Registry reg;
  const Index rows = 4096;
  const Index dim = 2;
  FeatureStore store("f", alloc, &reg, rows, dim,
                     PagedStore(StorePlacement::kSharded, 64));
  store.Publish(CoordinateTable(rows, dim));
  const auto stats = store.Acquire()->IndexStats();
  ASSERT_EQ(stats.size(), 8u);
  const double mean = static_cast<double>(rows) / 8.0;
  uint64_t total = 0;
  for (const StoreIndexShardStats& st : stats) {
    // The mixed key stream spreads within +/-25% of the mean shard load
    // (identity keys through splitmix64; a lopsided shard means the
    // shard choice is reading unmixed bits).
    EXPECT_GT(st.live, mean * 0.75) << "shard " << st.node;
    EXPECT_LT(st.live, mean * 1.25) << "shard " << st.node;
    total += st.live;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(rows));
}

// --- eviction + misses -----------------------------------------------------

TEST(FeatureStoreDeltaTest, EvictedKeysMissAndTheirSlotsRecycle) {
  const numa::Topology topo = numa::Local2();
  auto alloc = std::make_shared<numa::NumaAllocator>(topo);
  obs::Registry reg;
  const Index rows = 8;
  const Index dim = 2;
  FeatureStore store("f", alloc, &reg, rows, dim,
                     PagedStore(StorePlacement::kReplicated, 4));
  store.Publish(CoordinateTable(rows, dim));

  // 5 fresh keys into a full 8-slot store: the first eviction frees one
  // page (4 slots), the fifth key forces a second.
  const StorePublishReport rep = store.PublishDelta(
      {100, 101, 102, 103, 104}, UniformRows(5, dim, 9.0));
  EXPECT_EQ(rep.evicted_keys, 8u);
  EXPECT_EQ(rep.live_rows, 5u);

  const auto snap = store.Acquire();
  for (uint64_t k = 0; k < 8; ++k) {
    EXPECT_EQ(snap->LookupSlot(k), std::nullopt) << "key " << k;
  }
  for (uint64_t k = 100; k < 105; ++k) {
    const auto slot = snap->LookupSlot(k);
    ASSERT_TRUE(slot.has_value()) << "key " << k;
    EXPECT_TRUE(snap->SlotLive(*slot));
    EXPECT_DOUBLE_EQ(snap->RowForNode(0, *slot)[0], 9.0);
  }
}

TEST(FeatureStoreDeltaTest, GatherTouchesSteerTheClockAwayFromHotPages) {
  const numa::Topology topo = numa::Local2();
  auto alloc = std::make_shared<numa::NumaAllocator>(topo);
  obs::Registry reg;
  const Index rows = 8;
  const Index dim = 2;
  FeatureStore store("f", alloc, &reg, rows, dim,
                     PagedStore(StorePlacement::kReplicated, 4));
  store.Publish(CoordinateTable(rows, dim));

  // Page 0 is hot (its rows were just gathered); the clock's second
  // chance must spend page 0's reference and evict page 1 instead.
  const auto snap = store.Acquire();
  for (Index r = 0; r < 4; ++r) snap->TouchRow(r);
  store.PublishDelta({100}, UniformRows(1, dim, 1.0));
  EXPECT_TRUE(store.ContainsKey(0));
  EXPECT_TRUE(store.ContainsKey(3));
  EXPECT_FALSE(store.ContainsKey(4));
  EXPECT_FALSE(store.ContainsKey(7));
}

// --- delta-aware Republish -------------------------------------------------

TEST(FeatureStoreDeltaTest, RepublishMovesOnlyResidentPagesAndSharesIndex) {
  const numa::Topology topo = numa::Local2();
  auto alloc = std::make_shared<numa::NumaAllocator>(topo);
  obs::Registry reg;
  const Index rows = 16;
  const Index dim = 4;
  FeatureStore store("f", alloc, &reg, rows, dim,
                     PagedStore(StorePlacement::kReplicated, 4));
  // Bootstrap by delta: 2 live keys in one page, 3 pages never exist.
  store.PublishDelta({7, 11}, UniformRows(2, dim, 5.0));
  const uint64_t delta_before = StoreCount(reg, "delta_bytes", store);

  const uint64_t v = store.Republish(StorePlacement::kSharded);
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(store.placement(), StorePlacement::kSharded);
  const uint64_t republish_bytes =
      StoreCount(reg, "delta_bytes", store) - delta_before;
  // One 4-row page re-laid once (sharded = single copy) -- strictly less
  // than any full-table rewrite under either placement.
  EXPECT_EQ(republish_bytes, 4u * dim * sizeof(double));
  EXPECT_LT(republish_bytes,
            static_cast<uint64_t>(rows) * dim * sizeof(double));

  const auto snap = store.Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->live_rows(), 2u);
  for (const uint64_t k : {uint64_t{7}, uint64_t{11}}) {
    const auto slot = snap->LookupSlot(k);
    ASSERT_TRUE(slot.has_value());
    for (Index j = 0; j < dim; ++j) {
      EXPECT_DOUBLE_EQ(snap->RowForNode(0, *slot)[j], 5.0) << "key " << k;
    }
  }
  // Same placement again: no new version, no bytes moved.
  const uint64_t bytes_now = StoreCount(reg, "delta_bytes", store);
  EXPECT_EQ(store.Republish(StorePlacement::kSharded), 2u);
  EXPECT_EQ(StoreCount(reg, "delta_bytes", store), bytes_now);
}

// --- shape/contract violations die -----------------------------------------

TEST(FeatureStoreDeltaDeathTest, ContractViolationsDie) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto alloc = std::make_shared<numa::NumaAllocator>(numa::Local2());
  obs::Registry reg;
  const Index dim = 2;
  FeatureStore store("f", alloc, &reg, 8, dim,
                     PagedStore(StorePlacement::kReplicated, 4));
  store.Publish(CoordinateTable(8, dim));
  // Dim mismatch: 2 keys need 2 * dim doubles.
  EXPECT_DEATH(store.PublishDelta({1, 2}, UniformRows(3, dim, 1.0)),
               "shape mismatch");
  // Duplicate key within one delta.
  EXPECT_DEATH(store.PublishDelta({3, 3}, UniformRows(2, dim, 1.0)),
               "duplicate key");
  // Empty delta.
  EXPECT_DEATH(store.PublishDelta({}, {}), "empty delta publish");
  // More keys than slots can ever hold.
  EXPECT_DEATH(
      store.PublishDelta(
          {1, 2, 3, 4, 5, 6, 7, 8, 9},
          UniformRows(9, dim, 1.0)),
      "exceeds the capacity");
  // Gathering from a page with no storage (bootstrap delta touched only
  // page 0; the tail page was never allocated) without the SlotLive
  // screen. NOTE: slots freed by EVICTION are reused by the very delta
  // that evicted them, so their pages stay resident -- an unbacked page
  // only arises on a never-published range.
  FeatureStore fresh("g", alloc, &reg, 8, dim,
                     PagedStore(StorePlacement::kReplicated, 4));
  fresh.PublishDelta({1, 2}, UniformRows(2, dim, 1.0));
  const auto snap = fresh.Acquire();
  ASSERT_FALSE(snap->SlotLive(6));
  EXPECT_DEATH(snap->RowForNode(0, 6), "evicted page");
}

// --- engine integration: ScoreKey ------------------------------------------

ServingFamilyOptions ServeFamily(Index dim) {
  ServingFamilyOptions o;
  o.traffic.dim = dim;
  o.replication_override = Replication::kPerNode;
  return o;
}

TEST(ScoreKeyServingTest, KeyAdmissionMatrixAndMissMetrics) {
  models::LeastSquaresSpec ls;
  const Index rows = 8;
  const Index dim = 4;
  ServingOptions opts;
  opts.topology = numa::Local2();
  ServingEngine server(opts);
  ASSERT_TRUE(server.RegisterFamily("ls", &ls, ServeFamily(dim)).ok());
  server.Publish("ls", std::vector<double>(dim, 1.0));

  // Unknown family / no store: same codes as the id form.
  EXPECT_EQ(server.ScoreKey("nope", uint64_t{0}).status().code(),
            Status::Code::kNotFound);
  EXPECT_EQ(server.ScoreKey("ls", uint64_t{0}).status().code(),
            Status::Code::kFailedPrecondition);

  ASSERT_TRUE(server
                  .RegisterStore("ls", rows, dim,
                                 PagedStore(StorePlacement::kReplicated, 4))
                  .ok());
  // Store registered but nothing published yet.
  EXPECT_EQ(server.ScoreKey("ls", uint64_t{0}).status().code(),
            Status::Code::kFailedPrecondition);
  server.PublishStore("ls", CoordinateTable(rows, dim));
  // A key the index has never seen: NotFound, counted as a miss.
  EXPECT_EQ(server.ScoreKey("ls", uint64_t{999}).status().code(),
            Status::Code::kNotFound);
  // Valid key, engine not started yet.
  EXPECT_EQ(server.ScoreKey("ls", uint64_t{3}).status().code(),
            Status::Code::kFailedPrecondition);

  ASSERT_TRUE(server.Start().ok());
  // A full publish installs identity keys: ScoreKey(r) == Score(row r),
  // bitwise (both gather the same snapshot row).
  for (Index r = 0; r < rows; ++r) {
    auto by_key = server.ScoreKeySync("ls", static_cast<uint64_t>(r));
    auto by_id = server.ScoreSync("ls", r);
    ASSERT_TRUE(by_key.ok());
    ASSERT_TRUE(by_id.ok());
    EXPECT_EQ(by_key.value(), by_id.value()) << "row " << r;
  }
  server.Stop();

  const obs::RegistrySnapshot snap = server.telemetry().Snapshot();
  const obs::Labels ls_family = {{"family", "ls"}};
  EXPECT_EQ(snap.CounterValue("store.key_rows", ls_family),
            static_cast<uint64_t>(rows));
  EXPECT_EQ(snap.CounterValue("store.key_misses", ls_family), 1u);
  EXPECT_EQ(server.FindStore("ls")->Acquire()->live_rows(),
            static_cast<uint64_t>(rows));
  // Full publishes write everything: delta bytes == full bytes so far.
  const uint64_t full_bytes = snap.CounterValue("store.full_bytes", ls_family);
  EXPECT_GT(full_bytes, 0u);
  EXPECT_GE(snap.CounterValue("store.delta_bytes", ls_family), full_bytes);
}

TEST(ScoreKeyServingTest, StringKeysRoundTripThroughTheHash) {
  models::LeastSquaresSpec ls;
  const Index dim = 4;
  ServingOptions opts;
  opts.topology = numa::Local2();
  ServingEngine server(opts);
  ASSERT_TRUE(server.RegisterFamily("kv", &ls, ServeFamily(dim)).ok());
  ASSERT_TRUE(server
                  .RegisterStore("kv", 8, dim,
                                 PagedStore(StorePlacement::kSharded, 4))
                  .ok());
  server.Publish("kv", std::vector<double>(dim, 1.0));
  // Entity rows keyed by name: publish and score under HashKey.
  const StorePublishReport rep = server.PublishStoreDelta(
      "kv", {FeatureStore::HashKey("alice"), FeatureStore::HashKey("bob")},
      {1, 1, 1, 1, 2, 2, 2, 2});
  EXPECT_EQ(rep.live_rows, 2u);
  ASSERT_TRUE(server.Start().ok());
  auto alice = server.ScoreKeySync("kv", FeatureStore::HashKey("alice"));
  auto bob = server.ScoreKeySync("kv", FeatureStore::HashKey("bob"));
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());
  EXPECT_DOUBLE_EQ(alice.value(), 4.0);
  EXPECT_DOUBLE_EQ(bob.value(), 8.0);
  EXPECT_EQ(server.ScoreKeySync("kv", FeatureStore::HashKey("carol"))
                .status()
                .code(),
            Status::Code::kNotFound);
  server.Stop();
}

TEST(ScoreKeyServingTest, EvictionSurfacesAsNotFoundWithMetrics) {
  models::LeastSquaresSpec ls;
  const Index rows = 8;
  const Index dim = 4;
  ServingOptions opts;
  opts.topology = numa::Local2();
  ServingEngine server(opts);
  ASSERT_TRUE(server.RegisterFamily("ls", &ls, ServeFamily(dim)).ok());
  ASSERT_TRUE(server
                  .RegisterStore("ls", rows, dim,
                                 PagedStore(StorePlacement::kReplicated, 4))
                  .ok());
  server.Publish("ls", std::vector<double>(dim, 1.0));
  server.PublishStore("ls", CoordinateTable(rows, dim));
  ASSERT_TRUE(server.Start().ok());

  // Refresh by delta while serving: 5 fresh entities overflow the 8-slot
  // store, evicting every original key.
  const StorePublishReport rep = server.PublishStoreDelta(
      "ls", {100, 101, 102, 103, 104}, UniformRows(5, dim, 2.0));
  EXPECT_EQ(rep.evicted_keys, 8u);
  // Evicted keys now miss with NotFound; survivors score.
  EXPECT_EQ(server.ScoreKeySync("ls", uint64_t{0}).status().code(),
            Status::Code::kNotFound);
  auto hit = server.ScoreKeySync("ls", uint64_t{102});
  ASSERT_TRUE(hit.ok());
  EXPECT_DOUBLE_EQ(hit.value(), 2.0 * dim);
  server.Stop();

  const obs::RegistrySnapshot snap = server.telemetry().Snapshot();
  const obs::Labels ls_family = {{"family", "ls"}};
  EXPECT_EQ(snap.CounterValue("store.evictions", ls_family), 8u);
  EXPECT_GE(snap.CounterValue("store.key_misses", ls_family), 1u);
  EXPECT_EQ(server.FindStore("ls")->Acquire()->live_rows(), 5u);
  // The delta moved O(churn) bytes while a full rewrite was accounted as
  // the alternative.
  EXPECT_GT(snap.CounterValue("store.full_bytes", ls_family), 0u);
}

TEST(ScoreKeyServingTest, RowIdsNameTheirKeysAfterScatteredDeltas) {
  // A delta moves churned rows to new positions but never moves a slot,
  // so after 20 scattered deltas the row id r still names key r: both
  // forms score the same row bitwise, and that row is key r's latest.
  for (const StorePlacement p :
       {StorePlacement::kSharded, StorePlacement::kReplicated}) {
    models::LeastSquaresSpec ls;
    const Index rows = 512;
    const Index dim = 16;
    ServingOptions opts;
    opts.topology = numa::Local2();
    opts.num_threads = 2;
    ServingEngine server(opts);
    ASSERT_TRUE(server.RegisterFamily("ls", &ls, ServeFamily(dim)).ok());
    ASSERT_TRUE(
        server.RegisterStore("ls", rows, dim, PagedStore(p, 64)).ok());
    Rng rng(21);
    std::vector<double> weights(dim);
    for (double& w : weights) w = rng.Gaussian(0.0, 1.0);
    server.Publish("ls", weights);
    std::vector<double> table(static_cast<size_t>(rows) * dim);
    for (double& v : table) v = rng.Gaussian(0.0, 1.0);
    server.PublishStore("ls", table);
    for (int d = 0; d < 20; ++d) {
      const std::vector<uint64_t> keys = ScatteredKeys(rng, rows, rows / 20);
      std::vector<double> block(keys.size() * dim);
      for (double& v : block) v = rng.Gaussian(0.0, 1.0);
      for (size_t i = 0; i < keys.size(); ++i) {
        std::copy(block.begin() + i * dim, block.begin() + (i + 1) * dim,
                  table.begin() + keys[i] * dim);
      }
      server.PublishStoreDelta("ls", keys, block);
    }
    ASSERT_TRUE(server.Start().ok());
    for (Index r = 0; r < rows; ++r) {
      const auto by_id = server.ScoreSync("ls", r);
      const auto by_key = server.ScoreKeySync("ls", static_cast<uint64_t>(r));
      ASSERT_TRUE(by_id.ok()) << by_id.status().ToString();
      ASSERT_TRUE(by_key.ok()) << by_key.status().ToString();
      EXPECT_EQ(by_id.value(), by_key.value()) << ToString(p) << " row " << r;
      double expect = 0.0;
      for (Index j = 0; j < dim; ++j) {
        expect += weights[j] * table[static_cast<size_t>(r) * dim + j];
      }
      EXPECT_NEAR(by_id.value(), expect, 1e-9) << ToString(p) << " row " << r;
    }
    server.Stop();
  }
}

// --- TSan stress: deltas + evictions under pipelined key scoring ----------

TEST(FeatureStoreDeltaStressTest, HostileDeltasNeverTearKeyedScores) {
  // Hostile publisher: a delta storm (fresh keys forcing evictions +
  // overwrites of the hot set) racing 4 pipelined producers scoring by
  // key. Every row of delta version v holds 2^(v mod 40) in all dim
  // cells, so a valid margin is exactly dim * 2^m -- and a TORN row
  // (cells from two versions) can never fake one: a*2^i + b*2^j with
  // a+b=dim and i != j always carries an odd factor > 1 (checked for
  // dim=16 below), while every untorn gather is bitwise one version.
  models::LeastSquaresSpec ls;
  const Index rows = 64;
  const Index dim = 16;
  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.num_threads = 4;
  opts.batch.max_batch_size = 16;
  opts.batch.max_delay = std::chrono::microseconds(50);
  ServingEngine server(opts);
  ASSERT_TRUE(server.RegisterFamily("kv", &ls, ServeFamily(dim)).ok());
  ASSERT_TRUE(server
                  .RegisterStore("kv", rows, dim,
                                 PagedStore(StorePlacement::kSharded, 8))
                  .ok());
  server.Publish("kv", std::vector<double>(dim, 1.0));
  // Version 1: every key holds 2^(1 % 40) = 2.
  {
    std::vector<uint64_t> keys(rows);
    for (Index r = 0; r < rows; ++r) keys[r] = r;
    server.PublishStoreDelta("kv", keys, UniformRows(rows, dim, 2.0));
  }
  ASSERT_TRUE(server.Start().ok());

  // The publisher storms deltas until every producer has drained its
  // fixed score budget -- so the race spans the whole producer run no
  // matter how the scheduler interleaves them.
  std::atomic<int> producers_done{0};
  std::thread publisher([&] {
    Rng rng(99);
    uint64_t fresh = 1000;
    for (int v = 2; producers_done.load(std::memory_order_acquire) < 4;
         ++v) {
      std::vector<uint64_t> keys;
      // Half overwrites of the resident range, half fresh keys that
      // force clock evictions.
      for (int i = 0; i < 4; ++i) {
        keys.push_back(rng.Below(static_cast<uint64_t>(rows) / 2));
      }
      for (int i = 0; i < 4; ++i) keys.push_back(fresh++);
      // Dedup (rng may repeat a resident key).
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      const double cell = std::ldexp(1.0, v % 40);
      server.PublishStoreDelta("kv", keys,
                               UniformRows(keys.size(), dim, cell));
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(17 + t);
      for (int iter = 0; iter < 400; ++iter) {
        // Mix resident row-range keys with recently-churned fresh keys.
        const uint64_t key = rng.Below(2) == 0
                                 ? rng.Below(static_cast<uint64_t>(rows))
                                 : 1000 + rng.Below(600);
        const auto score = server.ScoreKeySync("kv", key);
        if (!score.ok()) {
          ASSERT_EQ(score.status().code(), Status::Code::kNotFound);
          misses.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        hits.fetch_add(1, std::memory_order_relaxed);
        // Margin = dim * 2^m for some published version -- no torn rows,
        // no stale-beyond-published values.
        const double per_cell = score.value() / dim;
        const int m = std::ilogb(per_cell);
        ASSERT_EQ(std::ldexp(1.0, m), per_cell)
            << "torn margin " << score.value();
        ASSERT_GE(m, 0);
        ASSERT_LT(m, 40);
      }
      producers_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (auto& p : producers) p.join();
  publisher.join();
  server.Stop();
  // The stress must actually exercise every path: clean gathers, misses
  // (evicted or never-published keys), and clock evictions.
  EXPECT_GT(hits.load(), 100u);
  EXPECT_GT(misses.load(), 0u);
  EXPECT_GT(server.telemetry().Snapshot().CounterValue("store.evictions",
                                                       {{"family", "kv"}}),
            0u);
  EXPECT_GT(server.FindStore("kv")->current_version(), 1u);
}

TEST(FeatureStoreDeltaStressTest, ReadersPinningOldVersionsNeverSeeReusedRows) {
  // A writer publishes scattered overwrites while readers hold each
  // snapshot for 0-2 delta periods. Key k written at version v holds
  // k * 2^16 + v in every cell, so a reader can name the one write it
  // saw; after the run, each read must be its key's latest write at or
  // before the snapshot's version. A position reused while a reader
  // could still read it shows up as another key or a newer write (and
  // as a race under TSan).
  for (const StorePlacement p :
       {StorePlacement::kSharded, StorePlacement::kReplicated}) {
    const Index rows = 2048;
    const Index dim = 8;
    constexpr int kDeltas = 200;
    auto alloc = std::make_shared<numa::NumaAllocator>(numa::Local2());
    obs::Registry reg;
    FeatureStore store("f", alloc, &reg, rows, dim, PagedStore(p, 64));
    const auto cell = [](uint64_t key, uint64_t version) {
      return static_cast<double>(key * 65536 + version);
    };
    std::vector<double> base(static_cast<size_t>(rows) * dim);
    for (Index k = 0; k < rows; ++k) {
      std::fill(base.begin() + k * dim, base.begin() + (k + 1) * dim,
                cell(k, 1));
    }
    // writes[k]: the versions key k was written at, ascending.
    std::vector<std::vector<uint64_t>> writes(rows, {1});
    ASSERT_EQ(store.Publish(base), 1u);

    struct Read {
      uint64_t snapshot_version;
      uint64_t key;
      uint64_t written_at;
    };
    std::atomic<bool> done{false};
    std::vector<std::vector<Read>> reads(3);
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
      readers.emplace_back([&, t] {
        Rng rng(31 + t);
        while (!done.load(std::memory_order_acquire)) {
          const auto snap = store.Acquire();
          const uint64_t hold_until = snap->version() + rng.Below(3);
          do {
            const uint64_t key = rng.Below(rows);
            const auto slot = snap->LookupSlot(key);
            ASSERT_TRUE(slot.has_value()) << "key " << key;
            const double* row = snap->RowForNode(
                static_cast<numa::NodeId>(rng.Below(2)), *slot);
            for (Index j = 1; j < dim; ++j) {
              ASSERT_EQ(row[j], row[0]) << "torn row of key " << key;
            }
            const uint64_t v = static_cast<uint64_t>(row[0]);
            reads[t].push_back(Read{snap->version(), v >> 16, v & 0xffff});
            ASSERT_EQ(v >> 16, key) << "a reused position served another key";
          } while (store.current_version() < hold_until &&
                   !done.load(std::memory_order_acquire));
        }
      });
    }

    Rng rng(77);
    for (int d = 0; d < kDeltas; ++d) {
      const uint64_t version = store.current_version() + 1;
      const std::vector<uint64_t> keys = ScatteredKeys(rng, rows, rows / 50);
      std::vector<double> block(keys.size() * dim);
      for (size_t i = 0; i < keys.size(); ++i) {
        std::fill(block.begin() + i * dim, block.begin() + (i + 1) * dim,
                  cell(keys[i], version));
        writes[keys[i]].push_back(version);
      }
      ASSERT_EQ(store.PublishDelta(keys, block).version, version);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    done.store(true, std::memory_order_release);
    for (std::thread& r : readers) r.join();

    uint64_t checked = 0;
    for (const std::vector<Read>& log : reads) {
      for (const Read& r : log) {
        const std::vector<uint64_t>& w = writes[r.key];
        // The key's latest write at or before the snapshot's version.
        const uint64_t expect =
            *(std::upper_bound(w.begin(), w.end(), r.snapshot_version) - 1);
        ASSERT_EQ(r.written_at, expect)
            << ToString(p) << " key " << r.key << " at version "
            << r.snapshot_version;
        ++checked;
      }
    }
    EXPECT_GT(checked, 0u);
    // Without reuse the deltas would add 4x the table; readers holding a
    // few versions keep the store far below that.
    const size_t copies = p == StorePlacement::kReplicated ? 2 : 1;
    EXPECT_LT(LedgerBytes(*alloc), 3 * rows * dim * sizeof(double) * copies)
        << ToString(p);
  }
}

}  // namespace
}  // namespace dw::serve
