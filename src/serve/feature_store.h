// NUMA-placed, versioned, KV-grade feature tables for keyed serving.
//
// Carried-feature requests make the CLIENT the feature source: every
// Score(family, indices, values) ships the row over the wire and the
// worker streams it from wherever the request buffer landed. For wide
// models that is the anti-pattern the paper's Fig. 9 data-replication
// study warns about -- the serving path ignores the data/worker
// collocation that governs main-memory throughput. A FeatureStore flips
// the source: the table of feature rows is registered per model family,
// placed across sockets through the same numa::NumaAllocator machinery
// the trainer uses, and a request names only a row id or an entity key;
// the scoring worker gathers the features from its node's placement at
// scoring time.
//
// The table's slots are grouped into fixed-size PAGES. A version maps
// each slot to a POSITION in a row BLOCK: one 8-byte entry per slot, one
// row map per page. A block holds one NUMA fragment per node (a full copy
// of its positions under kReplicated; the positions with pos % nodes ==
// n, compacted, under kSharded, and a slot's row always sits on node
// slot % nodes -- so sharding stays row-granular round-robin). Publish
// lays block p out as page p, so a page whose rows have not moved needs
// no map. Three things ride on that:
//
//   Keys.   A per-node open-addressing key -> slot index (hash-sharded
//           across nodes like the rows) lets requests ship a uint64
//           entity key -- or a string, hashed through HashKey() --
//           instead of a dense row id. Lookups are lock-free reads
//           against the published snapshot.
//   Deltas. PublishDelta(keys, rows) writes each churned row once, into
//           a position no live version reads, clones only the row maps
//           of the pages it touches (and the index shards whose key set
//           changed), and hot-swaps exactly like a full Publish. Slots,
//           the key index and row ids do not move. Refresh bandwidth is
//           O(churned rows), not O(table) -- the bytes-moved win the
//           PIM literature chases, applied to the refresh path. The
//           position a delta retires is reused only once every version
//           that could read it has been destroyed, so memory stays near
//           the live table (plus what pinned old versions hold).
//   Eviction. When every slot is live and a delta brings new keys, a
//           clock sweep over pages (reference bits set by scoring-time
//           gathers) evicts a cold page: its keys tombstone out of the
//           index and later lookups miss (surfaced by the engine as a
//           per-family kNotFound + store.key_misses). Capacity is
//           bounded by the construction-time shape; churning entity
//           sets recycle slots instead of growing.
//
// Who writes which node's bytes. The publishing thread allocates every
// block fragment and index shard (one malloc arena, so a set-up's freed
// blocks are reused, not spread over per-thread arenas). A full Publish or
// Republish then writes the rows on LOADERS: threads pinned, node-major,
// to the host CPUs the topology maps each node to (Topology::WorkerCpus),
// each writing its own node's fragments of a contiguous range of pages;
// Publish's first loader of node n then fills index shard n. A copy that
// was bandwidth-bound on one core runs on every core, and on a host whose
// CPUs sit on the modeled nodes, a fresh page is first touched -- and so
// placed -- on the node whose ledger entry it is. Deltas stay on the
// publishing thread (a 1% delta is a few hundred rows).
//
// Placement is not passed in by the caller: it is chosen at construction
// by opt::ChooseStorePlacement() (opt/placement.h, the chooser model
// replicas share) from the calibrated memory model, the topology, and the
// store's traffic estimate (table shape, gathers per refresh, expected
// churn). Benches that need a fixed strategy set
// StoreOptions::placement_override.
//
// Hot-swap: every publish builds the new version entirely off to the
// side and installs it with one atomic pointer store, exactly like
// ModelFamily. Workers Acquire() one immutable FeatureStoreSnapshot per
// batch, so a refresh never tears the rows of an in-flight batch across
// versions. The table SHAPE (rows x dim) is fixed at construction so
// request admission can validate row ids once, ahead of whichever
// version eventually serves the batch.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "matrix/sparse_vector.h"
#include "numa/numa_allocator.h"
#include "serve/replication.h"
#include "util/logging.h"

namespace dw::obs {
class Counter;
class Gauge;
class Registry;
}  // namespace dw::obs

namespace dw::serve {

/// One row block's NUMA fragments, shared by every version of its block
/// generation (Publish and Republish start one). A position is written
/// only while no live version maps a slot to it.
struct StorePage {
  /// fragments[n] lives on node n. kReplicated: every position, so
  /// position q is row q of each fragment. kSharded: the positions with
  /// q % nodes == n, compacted (row q / nodes of fragment q % nodes).
  /// Exact spans: the block Publish lays out for a short last page holds
  /// only that page's rows.
  std::vector<numa::NodeArray<double>> fragments;
};

/// Where one slot's row sits: a block of the snapshot's block table and
/// a position in it.
struct StoreRowRef {
  uint32_t block;
  uint32_t pos;
};

struct StoreReleaseBoard;

/// One open-addressing key->slot shard (linear probing). Shard i is
/// allocated on node i through the store's index allocator; snapshots
/// share unchanged shards exactly like data pages.
struct StoreIndexShard {
  /// marker: 0 empty, UINT64_MAX tombstone, else slot + 1. The zeroed
  /// NodeArray allocation IS the empty table.
  struct Entry {
    uint64_t key;
    uint64_t marker;
  };
  static constexpr uint64_t kEmpty = 0;
  static constexpr uint64_t kTombstone = ~uint64_t{0};

  numa::NodeArray<Entry> entries;
  uint64_t capacity = 0;  ///< power of two (0 = never populated)
  uint64_t live = 0;
  uint64_t tombstones = 0;
};

/// Per-shard index occupancy, for load-factor/balance tests and stats.
struct StoreIndexShardStats {
  numa::NodeId node = 0;
  uint64_t capacity = 0;
  uint64_t live = 0;
  uint64_t tombstones = 0;
};

/// What one publish moved. delta_bytes / full_bytes is the observed
/// churn fraction the placement tuner re-costs on.
struct StorePublishReport {
  uint64_t version = 0;
  /// Bytes written: rows (once per copy), fresh blocks, row maps, index
  /// shards and the occupancy bitmap.
  uint64_t delta_bytes = 0;
  uint64_t full_bytes = 0;     ///< bytes a full rewrite would have written
  /// Pages whose block a full publish laid out, or whose row map a delta
  /// rewrote (evicted pages excluded).
  uint64_t touched_pages = 0;
  uint64_t evicted_keys = 0;   ///< keys tombstoned to make room
  uint64_t live_rows = 0;      ///< live slots after the publish
};

/// Avalanching mix for u64 entity keys (splitmix64 finalizer): the shard
/// choice and probe sequence both need high bits that move.
inline uint64_t MixKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One immutable, versioned feature table. Readers hold it via
/// shared_ptr, so a snapshot stays valid for as long as any in-flight
/// batch references it, even after newer versions are published.
class FeatureStoreSnapshot {
 public:
  /// Tells the store that this version's row positions are unread.
  ~FeatureStoreSnapshot();
  FeatureStoreSnapshot(const FeatureStoreSnapshot&) = delete;
  FeatureStoreSnapshot& operator=(const FeatureStoreSnapshot&) = delete;

  uint64_t version() const { return version_; }
  /// Family this table serves.
  const std::string& family() const { return family_; }
  /// Slot capacity (fixed shape), NOT the live-key count.
  matrix::Index rows() const { return rows_; }
  matrix::Index dim() const { return dim_; }
  StorePlacement placement() const { return placement_; }
  int num_shards() const { return num_nodes_; }
  /// Rows per page (a multiple of num_shards, so every page starts on
  /// the round-robin boundary).
  matrix::Index page_rows() const { return page_rows_; }
  size_t num_pages() const { return maps_.size(); }
  /// Live (key-addressable) slots in this version.
  uint64_t live_rows() const { return live_rows_; }

  /// Node owning row `row`'s bytes for a reader on `node`: the reader's
  /// own node under kReplicated (its local copy), the interleaved shard
  /// owner under kSharded. Drives the worker's local/remote gather
  /// accounting. Both indices are validated: an out-of-range row under
  /// kSharded would otherwise read past a shard (and silently serve a
  /// neighboring row's features, or worse).
  numa::NodeId OwnerNodeFor(numa::NodeId node, matrix::Index row) const {
    CheckIndices(node, row);
    if (placement_ == StorePlacement::kReplicated) return node;
    return static_cast<numa::NodeId>(row % static_cast<matrix::Index>(
                                               num_nodes_));
  }

  /// Feature row `row` (dim() doubles) for a reader on `node`: the
  /// node-local block fragment under kReplicated, the owner fragment
  /// (possibly remote) under kSharded. Same index validation as
  /// OwnerNodeFor. The slot must be live (or any slot of a full
  /// Publish); gathering a dead slot is a bug the caller screens with
  /// SlotLive(), and it dies on an evicted or never-populated page.
  const double* RowForNode(numa::NodeId node, matrix::Index row) const {
    CheckIndices(node, row);
    const StoreRowRef ref = RefFor(row);
    const StorePage* block =
        ref.block < blocks_.size() ? blocks_[ref.block].get() : nullptr;
    DW_CHECK(block != nullptr)
        << "row " << row << " gathered from an evicted page of store "
        << family_;
    if (placement_ == StorePlacement::kReplicated) {
      return block->fragments[node].data() +
             static_cast<size_t>(ref.pos) * dim_;
    }
    const uint32_t nodes = static_cast<uint32_t>(num_nodes_);
    return block->fragments[ref.pos % nodes].data() +
           static_cast<size_t>(ref.pos / nodes) * dim_;
  }

  /// Lock-free key lookup against this version's index: the slot holding
  /// `key`'s feature row, or nullopt (never published, or evicted).
  std::optional<matrix::Index> LookupSlot(uint64_t key) const {
    const uint64_t h = MixKey(key);
    const StoreIndexShard* shard =
        index_shards_[h % static_cast<uint64_t>(num_nodes_)].get();
    if (shard == nullptr || shard->capacity == 0) return std::nullopt;
    const uint64_t mask = shard->capacity - 1;
    uint64_t i = (h >> 17) & mask;
    for (uint64_t probes = 0; probes <= mask; ++probes) {
      const StoreIndexShard::Entry& e = shard->entries[i];
      if (e.marker == StoreIndexShard::kEmpty) return std::nullopt;
      if (e.marker != StoreIndexShard::kTombstone && e.key == key) {
        return static_cast<matrix::Index>(e.marker - 1);
      }
      i = (i + 1) & mask;
    }
    return std::nullopt;
  }

  /// Whether slot `row` holds a live feature row in this version. Id-
  /// keyed gathers screen with this so a row id whose entity was evicted
  /// misses (kNotFound) instead of reading a dropped page.
  bool SlotLive(matrix::Index row) const {
    CheckIndices(0, row);
    return ((*occupancy_)[row >> 6] >> (row & 63)) & 1u;
  }

  /// Marks row `row`'s page referenced for the store's clock eviction.
  /// Called by scoring workers on every gather; relaxed store, no
  /// ordering needed (a lost touch just ages the page faster).
  void TouchRow(matrix::Index row) const {
    (*ref_bits_)[row / page_rows_].store(1, std::memory_order_relaxed);
  }

  /// Per-shard index stats (capacity/live/tombstones), for balance and
  /// load-factor tests.
  std::vector<StoreIndexShardStats> IndexStats() const;

 private:
  friend class FeatureStore;
  FeatureStoreSnapshot() = default;

  void CheckIndices(numa::NodeId node, matrix::Index row) const {
    DW_CHECK_GE(node, 0) << "negative node for store " << family_;
    DW_CHECK_LT(node, num_nodes_) << "node out of range for store "
                                  << family_;
    DW_CHECK_LT(row, rows_) << "row out of range for store " << family_;
  }

  /// Slot `row`'s entry in its page's row map (identity when the page
  /// has none).
  StoreRowRef RefFor(matrix::Index row) const {
    const matrix::Index page = row / page_rows_;
    const matrix::Index in_page = row % page_rows_;
    const StoreRowRef* map = maps_[page].get();
    return map != nullptr ? map[in_page]
                          : StoreRowRef{static_cast<uint32_t>(page),
                                        static_cast<uint32_t>(in_page)};
  }

  uint64_t version_ = 0;
  std::string family_;
  matrix::Index rows_ = 0;
  matrix::Index dim_ = 0;
  StorePlacement placement_ = StorePlacement::kReplicated;
  int num_nodes_ = 1;
  matrix::Index page_rows_ = 64;
  uint64_t live_rows_ = 0;
  /// Keep the ledgers the blocks/index report into alive even if a
  /// reader outlives the store. Declared before the owning members so
  /// they are destroyed after them (their destructors post to the
  /// ledgers).
  std::shared_ptr<numa::NumaAllocator> allocator_;
  std::shared_ptr<numa::NumaAllocator> index_allocator_;
  /// Where the destructor posts this version; shared with the store, so
  /// a snapshot may outlive it.
  std::shared_ptr<StoreReleaseBoard> releases_;
  /// Block table of this version's generation, shared block by block
  /// with every version of it. Entries [0, num_pages) are the blocks a
  /// Publish/Republish laid out as pages (nullptr: the page held no
  /// live row); deltas append fresh blocks after them.
  std::vector<std::shared_ptr<const StorePage>> blocks_;
  /// One row map per slot page (page_rows entries). nullptr = identity:
  /// slot i of page p at position i of block p. A map entry naming no
  /// block marks a slot of an evicted page. Untouched maps are shared
  /// with the previous version.
  std::vector<std::shared_ptr<const StoreRowRef[]>> maps_;
  /// Key index, one shard per node; unchanged shards shared like maps.
  std::vector<std::shared_ptr<const StoreIndexShard>> index_shards_;
  /// Bitmap of live slots (one bit per slot), cloned per publish.
  std::shared_ptr<const std::vector<uint64_t>> occupancy_;
  /// Per-page reference bits for clock eviction. Shared with the store
  /// and ALL versions (capacity is fixed, so the page count is too).
  std::shared_ptr<std::vector<std::atomic<uint8_t>>> ref_bits_;
};

/// Construction-time description of a store. The traffic estimate feeds
/// the placement chooser (its rows/dim are filled in from the
/// constructor arguments, so only the read/refresh asymmetry and the
/// expected churn need stating).
struct StoreOptions {
  /// Expected row gathers per table refresh.
  double reads_per_refresh = 65536.0;
  /// Expected fraction of the table each refresh rewrites (1.0 = full
  /// rewrite, the pre-delta behavior). Scales the refresh cost in the
  /// placement chooser; the tuner later replaces it with the OBSERVED
  /// delta_bytes / full_bytes ratio.
  double churn_per_refresh = 1.0;
  /// Slots per page, which is also the positions per row block. Rounded
  /// up to a multiple of the node count. A delta clones the row map
  /// (8 bytes per slot) of each page it touches, so smaller pages shrink
  /// delta bytes; larger pages shrink the per-page and per-block
  /// overhead.
  matrix::Index page_rows = 64;
  /// Explicit placement for benches/ablations; leave unset in production
  /// so the cost model decides.
  std::optional<StorePlacement> placement_override;
};

/// One family's feature store: versioned immutable row maps over shared
/// row blocks, a hash-sharded key index, and the placement strategy
/// chosen at construction. Obtained from ServingEngine::RegisterStore
/// (or constructed directly for tests).
class FeatureStore {
 public:
  /// Chooses the placement through opt::ChooseStorePlacement over one
  /// refresh period of `options` unless options.placement_override pins
  /// it. `rows`/`dim` fix the slot capacity and row width for every
  /// future version. Every publish -- engine PublishStore, tuner
  /// Republish, direct PublishDelta -- adds its bytes and evictions to
  /// the store.{delta_bytes,full_bytes,evictions}{family=<family>}
  /// counters on `registry` (non-null; must outlive the store) and sets
  /// the store.{live_bytes,resident_bytes}{family=<family>} gauges: the
  /// live rows' bytes, and the row bytes of the new version's blocks,
  /// live or not.
  FeatureStore(std::string family,
               std::shared_ptr<numa::NumaAllocator> allocator,
               obs::Registry* registry, matrix::Index rows,
               matrix::Index dim, const StoreOptions& options);

  const std::string& family() const { return family_; }
  /// Slot capacity, fixed at construction. Lock-free; safe on the
  /// request admission hot path (row-id validation).
  matrix::Index rows() const { return rows_; }
  matrix::Index dim() const { return dim_; }
  /// The placement the NEXT publish builds under. Lock-free: chosen at
  /// construction, thereafter changed only by Republish (the placement
  /// tuner's live-migration path).
  StorePlacement placement() const {
    return placement_.load(std::memory_order_acquire);
  }
  /// Why the chooser picked the construction-time placement ("explicit
  /// override" when the caller pinned it instead).
  const std::string& rationale() const { return rationale_; }

  /// Stable hash for string entity keys; callers that key by string pass
  /// HashKey(name) everywhere a u64 key is taken (FNV-1a, then mixed at
  /// lookup -- collisions are a caller-namespace concern, as in any
  /// hashed KV front door).
  static uint64_t HashKey(std::string_view key);

  /// Threads a full Publish or Republish writes rows on: per node,
  /// max(1, host CPUs / nodes), at most one per page.
  int loaders() const { return static_cast<int>(loader_cpus_.size()); }

  /// Full rewrite: copies the row-major table (`rows() * dim()` doubles,
  /// row r at offset r * dim()) on the loaders into fresh blocks, one per
  /// page, under identity keys (key r -> slot r, all slots live) and
  /// installs it as the store's current version (monotonic from 1). The
  /// size must match the fixed shape: admission validates row ids against
  /// rows() once, which is only sound if every version agrees. Resets any
  /// prior key->slot state and starts a new block generation.
  uint64_t Publish(const std::vector<double>& row_major);

  /// Delta publish: upserts `keys[i] -> row_major[i*dim .. )`. Each row
  /// goes to a free position on its slot's owner node (a fresh block
  /// when none is free); only the touched pages' row maps and the index
  /// shards whose key set changed are cloned, everything else is shared
  /// with the previous version. An existing key keeps its slot. New keys
  /// take free slots; when none remain, a clock sweep evicts a cold page
  /// (its keys then miss). Dies on shape mismatch or a duplicate key
  /// within one delta.
  StorePublishReport PublishDelta(const std::vector<uint64_t>& keys,
                                  const std::vector<double>& row_major);

  /// Live migration: re-lays the CURRENT version's resident pages (those
  /// with a live slot) under `placement`, one block per page, on the
  /// loaders (each reads its own node's copy of the old rows), and
  /// installs the result as a new version through the regular hot-swap
  /// path -- in-flight batches keep the snapshot they gathered from and
  /// no row ever tears. Delta-aware: only live rows are copied (evicted
  /// pages stay evicted) and the key index and occupancy are SHARED with
  /// the previous version, so a tuner-driven flip pays O(live pages),
  /// never a full-table rebuild plus rehash.
  /// No-op (returns the current version) when the placement already
  /// matches. CHECKs that a version has been published.
  uint64_t Republish(StorePlacement placement);

  /// Acquires the current table (nullptr before the first publish).
  std::shared_ptr<const FeatureStoreSnapshot> Acquire() const;

  /// Version of the current table (0 before the first publish).
  /// Lock-free: admission gates id-keyed requests on it.
  uint64_t current_version() const {
    return current_version_.load(std::memory_order_acquire);
  }

  /// Whether `key` resolves in the CURRENT version (admission screen for
  /// key-keyed requests; the serving batch re-resolves against its own
  /// pinned snapshot).
  bool ContainsKey(uint64_t key) const {
    const auto snap = Acquire();
    return snap != nullptr && snap->LookupSlot(key).has_value();
  }

 private:
  struct DeltaRow {
    uint64_t key;
    matrix::Index slot;
    size_t src;      ///< row index into the delta's row_major block
    bool overwrite;  ///< the key was live before this delta
  };

  /// Positions a delta retired; batch `version`'s positions were last
  /// mapped by versions older than `version`.
  struct RetiredBatch {
    uint64_t version;
    std::vector<StoreRowRef> refs;
  };

  /// Fresh snapshot shell carrying the fixed shape, the allocators, and
  /// the shared ref bits (maps/index/occupancy filled by the caller).
  std::shared_ptr<FeatureStoreSnapshot> MakeShell(
      StorePlacement placement) const;
  /// Shared publish tail: stamps the next version into `snap` and
  /// `report`, gives it the generation's block table, adds its bytes to
  /// the store.* counters, sets the gauges, and installs (version
  /// counter first, then the pointer). publish_mu_ held.
  void InstallLocked(std::shared_ptr<FeatureStoreSnapshot> snap,
                     StorePublishReport* report);
  /// Drops every block, free and retired position of the current
  /// generation; the next installed version starts a new one (old
  /// versions keep their blocks alive). publish_mu_ held.
  void StartGenerationLocked();
  /// Writes the live rows of every block the caller laid out as a page
  /// (blocks_[p], allocated on this thread) on the loaders. Loader k of
  /// node n takes the k-th contiguous range of pages and writes node n's
  /// positions of each (pos % nodes == n under kSharded, its full copy
  /// under kReplicated), reading slot s's row from row_of(n, s). When
  /// `shards` is not empty, node n's first loader then fills shards[n]
  /// (allocated, not zeroed) with the identity keys k < rows() whose
  /// MixKey(k) % nodes == n, in ascending order. publish_mu_ held.
  template <typename RowOf>
  void LoadPagesLocked(
      StorePlacement placement, const RowOf& row_of,
      const std::vector<std::shared_ptr<StoreIndexShard>>& shards);
  /// Reads the versions destroyed since the last call and moves every
  /// retired batch that no live version of the generation can read to
  /// the free lists. publish_mu_ held.
  void CollectReleasedLocked();
  /// Clones (or grows) shard `s` of `base` and applies the upserts and
  /// tombstones recorded for it. Returns the new shard and adds the
  /// bytes it allocated to *delta_bytes. publish_mu_ held.
  std::shared_ptr<const StoreIndexShard> RebuildShard(
      const StoreIndexShard* base, int shard_id,
      const std::vector<std::pair<uint64_t, matrix::Index>>& upserts,
      const std::vector<uint64_t>& removals, uint64_t* delta_bytes);
  /// Evicts one cold page via the clock sweep (never one in
  /// `pinned_pages`), tombstoning its keys and freeing its slots.
  /// Returns the evicted page id. Dies if every page is pinned.
  /// publish_mu_ held.
  size_t EvictOnePage(const std::vector<uint8_t>& pinned_pages,
                      std::vector<uint64_t>* removed_keys,
                      uint64_t* evicted_keys);
  /// Bytes one full rewrite moves under `placement`.
  uint64_t FullRewriteBytes(StorePlacement placement) const;
  matrix::Index PageSpan(size_t page) const {
    const matrix::Index start =
        static_cast<matrix::Index>(page) * page_rows_;
    return std::min(page_rows_, rows_ - start);
  }
  /// Allocates a block of `span` positions under `placement` (exact
  /// span -- the ledger must stay byte-exact; not zeroed, every row read
  /// is written first) and adds its bytes to *delta_bytes and to the
  /// resident bytes.
  std::shared_ptr<StorePage> AllocateBlock(matrix::Index span,
                                           StorePlacement placement,
                                           uint64_t* delta_bytes);
  /// Takes a free position on `slot`'s owner node (any position when
  /// replicated), appending a fresh block to the generation when none is
  /// free. publish_mu_ held.
  StoreRowRef TakePosition(matrix::Index slot, StorePlacement placement,
                           uint64_t* delta_bytes);
  /// The free list for positions on `owner`'s node (a position q, or
  /// the owner slot, modulo the node count) under kSharded; list 0 under
  /// kReplicated, where a position spans every node.
  std::vector<StoreRowRef>& FreeList(uint64_t owner,
                                     StorePlacement placement) {
    return free_[placement == StorePlacement::kSharded
                     ? owner % free_.size()
                     : 0];
  }
  /// Writes `row` (dim_ doubles) at position `pos` of `block` under
  /// `placement` (all fragments when replicated, the owner when sharded).
  void WriteRow(StorePage* block, StorePlacement placement, uint32_t pos,
                const double* row);

  const std::string family_;
  std::shared_ptr<numa::NumaAllocator> allocator_;
  /// Key-index allocations go through a PRIVATE allocator over the same
  /// topology: index shards are NUMA-placed like data pages, but their
  /// bytes must not pollute the data ledger callers assert against.
  std::shared_ptr<numa::NumaAllocator> index_allocator_;
  const matrix::Index rows_;
  const matrix::Index dim_;
  matrix::Index page_rows_ = 64;
  size_t num_pages_ = 0;
  /// Construction choice, rewritten only by Republish (under
  /// publish_mu_); atomic so stats paths may read it lock-free
  /// mid-migration.
  std::atomic<StorePlacement> placement_{StorePlacement::kReplicated};
  std::string rationale_;
  /// Serializes publishers so installation order matches version order
  /// (same discipline as ModelFamily::publish_mu_).
  std::mutex publish_mu_;
  uint64_t next_version_ = 1;
  std::atomic<uint64_t> current_version_{0};
  /// Accessed only through std::atomic_load/atomic_store.
  std::shared_ptr<const FeatureStoreSnapshot> current_;

  /// Host CPU of each loader, node-major (the same count per node).
  std::vector<int> loader_cpus_;

  // --- publisher master state (publish_mu_ held) -------------------------
  // The key -> slot map is the current version's index shards
  // (LookupSlot); these two arrays are the slot -> key side.
  std::vector<uint64_t> slot_to_key_;
  std::vector<uint8_t> slot_live_;
  std::vector<matrix::Index> free_slots_;
  matrix::Index next_slot_ = 0;
  size_t clock_hand_ = 0;
  /// Shared with every snapshot (see FeatureStoreSnapshot::ref_bits_).
  std::shared_ptr<std::vector<std::atomic<uint8_t>>> ref_bits_;

  // --- row positions (publish_mu_ held) ---------------------------------
  /// Block table of the current generation; each of its versions holds
  /// a copy.
  std::vector<std::shared_ptr<StorePage>> blocks_;
  /// Row bytes of blocks_ (store.resident_bytes).
  uint64_t resident_bytes_ = 0;
  /// Free positions: one list per owner node under kSharded (a position
  /// q sits on node q % nodes), list 0 under kReplicated.
  std::vector<std::vector<StoreRowRef>> free_;
  /// Retired positions, oldest batch first.
  std::deque<RetiredBatch> retired_;
  /// First version of the current block generation.
  uint64_t generation_start_ = 1;
  /// Installed versions whose destruction has not been read yet.
  std::set<uint64_t> alive_;
  /// Where every snapshot's destructor posts its version. Shared with
  /// the snapshots, which may outlive the store.
  std::shared_ptr<StoreReleaseBoard> releases_;
  /// The map of an evicted page: every entry names no block.
  std::shared_ptr<const StoreRowRef[]> evicted_map_;

  // --- publish-bandwidth accounting (store.* counters) ------------------
  obs::Counter* delta_bytes_counter_ = nullptr;
  obs::Counter* full_bytes_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
  obs::Gauge* live_bytes_gauge_ = nullptr;
  obs::Gauge* resident_bytes_gauge_ = nullptr;
};

}  // namespace dw::serve
