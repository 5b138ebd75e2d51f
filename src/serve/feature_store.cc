#include "serve/feature_store.h"

#include <cstring>
#include <limits>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "opt/placement.h"
#include "util/thread_util.h"

namespace dw::serve {

/// Versions whose snapshot has been destroyed, posted by the destructor
/// and read by the publisher. A destructor runs after the final
/// reference drop (an acq_rel decrement that orders every reader's
/// reads before it), so a position read by that version is safe to
/// rewrite once the publisher has read the post under `mu`. Only this
/// small mutex is taken: dropping a snapshot never waits for a publish.
struct StoreReleaseBoard {
  std::mutex mu;
  std::vector<uint64_t> gone;
};

namespace {

/// A map entry naming no block: a slot of an evicted page.
constexpr StoreRowRef kNoRow = {std::numeric_limits<uint32_t>::max(), 0};

/// Capacity of a freshly built index shard holding `live` keys: a power
/// of two, at least 16, at most half full.
uint64_t FreshShardCapacity(uint64_t live) {
  const uint64_t want = std::max<uint64_t>(16, live * 2);
  uint64_t cap = 16;
  while (cap < want) cap <<= 1;
  return cap;
}

/// Puts `key` into the first empty entry on its linear probe path.
void PlaceFresh(StoreIndexShard* shard, uint64_t key, uint64_t marker) {
  const uint64_t mask = shard->capacity - 1;
  uint64_t i = (MixKey(key) >> 17) & mask;
  while (shard->entries[i].marker != StoreIndexShard::kEmpty) {
    i = (i + 1) & mask;
  }
  shard->entries[i].key = key;
  shard->entries[i].marker = marker;
}

}  // namespace

FeatureStoreSnapshot::~FeatureStoreSnapshot() {
  if (releases_ == nullptr) return;  // MakeShell threw before setting it
  std::lock_guard<std::mutex> lock(releases_->mu);
  releases_->gone.push_back(version_);
}

const char* ToString(StorePlacement p) {
  switch (p) {
    case StorePlacement::kReplicated:
      return "Replicated";
    case StorePlacement::kSharded:
      return "Sharded";
  }
  return "?";
}

std::vector<StoreIndexShardStats> FeatureStoreSnapshot::IndexStats() const {
  std::vector<StoreIndexShardStats> out;
  out.reserve(index_shards_.size());
  for (size_t s = 0; s < index_shards_.size(); ++s) {
    StoreIndexShardStats st;
    st.node = static_cast<numa::NodeId>(s);
    if (const StoreIndexShard* shard = index_shards_[s].get()) {
      st.capacity = shard->capacity;
      st.live = shard->live;
      st.tombstones = shard->tombstones;
    }
    out.push_back(st);
  }
  return out;
}

FeatureStore::FeatureStore(std::string family,
                           std::shared_ptr<numa::NumaAllocator> allocator,
                           obs::Registry* registry, matrix::Index rows,
                           matrix::Index dim, const StoreOptions& options)
    : family_(std::move(family)),
      allocator_(std::move(allocator)),
      rows_(rows),
      dim_(dim) {
  DW_CHECK(allocator_ != nullptr) << "store needs an allocator";
  DW_CHECK(registry != nullptr) << "store needs a registry";
  DW_CHECK_GT(rows_, 0u) << "store " << family_ << " needs rows";
  DW_CHECK_GT(dim_, 0u) << "store " << family_ << " needs dim";
  const obs::Labels labels = {{"family", family_}};
  delta_bytes_counter_ = registry->GetCounter("store.delta_bytes", labels);
  full_bytes_counter_ = registry->GetCounter("store.full_bytes", labels);
  evictions_counter_ = registry->GetCounter("store.evictions", labels);
  live_bytes_gauge_ = registry->GetGauge("store.live_bytes", labels);
  resident_bytes_gauge_ = registry->GetGauge("store.resident_bytes", labels);
  releases_ = std::make_shared<StoreReleaseBoard>();
  index_allocator_ =
      std::make_shared<numa::NumaAllocator>(allocator_->topology());
  const matrix::Index nodes =
      static_cast<matrix::Index>(allocator_->topology().num_nodes);
  // Pages start on round-robin boundaries so a page's slots split across
  // the node fragments without per-page phase arithmetic.
  matrix::Index pr = std::max<matrix::Index>(options.page_rows, 1);
  pr = ((pr + nodes - 1) / nodes) * nodes;
  page_rows_ = pr;
  num_pages_ = (static_cast<size_t>(rows_) + page_rows_ - 1) / page_rows_;
  loader_cpus_ = allocator_->topology().WorkerCpus(
      static_cast<int>(std::min<size_t>(
          std::max(1, NumOnlineCpus() / static_cast<int>(nodes)),
          num_pages_)),
      /*pin=*/true);
  ref_bits_ =
      std::make_shared<std::vector<std::atomic<uint8_t>>>(num_pages_);
  slot_to_key_.assign(rows_, 0);
  slot_live_.assign(rows_, 0);
  free_.resize(nodes);
  std::shared_ptr<StoreRowRef[]> evicted(new StoreRowRef[page_rows_]);
  std::fill(evicted.get(), evicted.get() + page_rows_, kNoRow);
  evicted_map_ = std::move(evicted);
  if (options.placement_override.has_value()) {
    placement_ = *options.placement_override;
    rationale_ = "explicit override";
  } else {
    const opt::PlacementChoice choice = opt::ChooseStorePlacement(
        allocator_->topology(), rows_, dim_, options.reads_per_refresh,
        /*refreshes=*/1.0, options.churn_per_refresh);
    placement_ = choice.replicate ? StorePlacement::kReplicated
                                  : StorePlacement::kSharded;
    rationale_ = choice.rationale;
  }
}

uint64_t FeatureStore::HashKey(std::string_view key) {
  uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

std::shared_ptr<FeatureStoreSnapshot> FeatureStore::MakeShell(
    StorePlacement placement) const {
  auto snap =
      std::shared_ptr<FeatureStoreSnapshot>(new FeatureStoreSnapshot());
  snap->family_ = family_;
  snap->rows_ = rows_;
  snap->dim_ = dim_;
  snap->placement_ = placement;
  snap->num_nodes_ = allocator_->topology().num_nodes;
  snap->page_rows_ = page_rows_;
  snap->allocator_ = allocator_;
  snap->index_allocator_ = index_allocator_;
  snap->ref_bits_ = ref_bits_;
  snap->releases_ = releases_;
  return snap;
}

uint64_t FeatureStore::FullRewriteBytes(StorePlacement placement) const {
  const uint64_t table =
      static_cast<uint64_t>(rows_) * dim_ * sizeof(double);
  return placement == StorePlacement::kReplicated
             ? table * allocator_->topology().num_nodes
             : table;
}

std::shared_ptr<StorePage> FeatureStore::AllocateBlock(
    matrix::Index span, StorePlacement placement, uint64_t* delta_bytes) {
  const int nodes = allocator_->topology().num_nodes;
  auto block = std::make_shared<StorePage>();
  block->fragments.reserve(nodes);
  for (int n = 0; n < nodes; ++n) {
    const size_t frag_rows =
        placement == StorePlacement::kReplicated
            ? static_cast<size_t>(span)
            : (static_cast<size_t>(span) + nodes - 1 - n) / nodes;
    const size_t doubles = frag_rows * static_cast<size_t>(dim_);
    block->fragments.push_back(
        allocator_->AllocateOnNodeForOverwrite<double>(n, doubles));
    *delta_bytes += doubles * sizeof(double);
    resident_bytes_ += doubles * sizeof(double);
  }
  return block;
}

StoreRowRef FeatureStore::TakePosition(matrix::Index slot,
                                       StorePlacement placement,
                                       uint64_t* delta_bytes) {
  std::vector<StoreRowRef>& list = FreeList(slot, placement);
  if (list.empty()) {
    // Every position of a fresh block joins the free lists, the last
    // first, so a run of takes fills the block in order.
    const uint32_t id = static_cast<uint32_t>(blocks_.size());
    blocks_.push_back(AllocateBlock(page_rows_, placement, delta_bytes));
    for (uint32_t q = static_cast<uint32_t>(page_rows_); q-- > 0;) {
      FreeList(q, placement).push_back(StoreRowRef{id, q});
    }
  }
  const StoreRowRef ref = list.back();
  list.pop_back();
  return ref;
}

void FeatureStore::WriteRow(StorePage* block, StorePlacement placement,
                            uint32_t pos, const double* row) {
  const size_t bytes = static_cast<size_t>(dim_) * sizeof(double);
  if (placement == StorePlacement::kReplicated) {
    for (numa::NodeArray<double>& frag : block->fragments) {
      std::memcpy(frag.data() + static_cast<size_t>(pos) * dim_, row, bytes);
    }
    return;
  }
  const uint32_t nodes = static_cast<uint32_t>(block->fragments.size());
  std::memcpy(block->fragments[pos % nodes].data() +
                  static_cast<size_t>(pos / nodes) * dim_,
              row, bytes);
}

void FeatureStore::StartGenerationLocked() {
  blocks_.assign(num_pages_, nullptr);
  resident_bytes_ = 0;
  for (std::vector<StoreRowRef>& list : free_) list.clear();
  retired_.clear();
  generation_start_ = next_version_;
}

void FeatureStore::CollectReleasedLocked() {
  std::vector<uint64_t> gone;
  {
    std::lock_guard<std::mutex> lock(releases_->mu);
    gone.swap(releases_->gone);
  }
  for (const uint64_t v : gone) alive_.erase(v);
  // Batch v's positions were last mapped by versions older than v: they
  // are free once no version of this generation older than v is alive.
  const auto oldest = alive_.lower_bound(generation_start_);
  const uint64_t floor = oldest == alive_.end()
                             ? std::numeric_limits<uint64_t>::max()
                             : *oldest;
  const StorePlacement placement = placement_.load(std::memory_order_relaxed);
  while (!retired_.empty() && retired_.front().version <= floor) {
    for (const StoreRowRef& ref : retired_.front().refs) {
      FreeList(ref.pos, placement).push_back(ref);
    }
    retired_.pop_front();
  }
}

std::shared_ptr<const StoreIndexShard> FeatureStore::RebuildShard(
    const StoreIndexShard* base, int shard_id,
    const std::vector<std::pair<uint64_t, matrix::Index>>& upserts,
    const std::vector<uint64_t>& removals, uint64_t* delta_bytes) {
  const uint64_t base_live = base != nullptr ? base->live : 0;
  const uint64_t base_tomb = base != nullptr ? base->tombstones : 0;
  uint64_t cap = base != nullptr ? base->capacity : 0;
  // Grow (rehash, dropping tombstones) when the projected occupancy
  // passes the probe-length knee; otherwise clone bytes and upsert in
  // place, reusing tombstones -- the O(shard bytes) fast path.
  const uint64_t projected = base_live + base_tomb + upserts.size();
  const bool grow = cap == 0 || projected * 10 > cap * 7;
  if (grow) cap = FreshShardCapacity(base_live + upserts.size());
  auto shard = std::make_shared<StoreIndexShard>();
  shard->capacity = cap;
  shard->entries = index_allocator_->AllocateOnNode<StoreIndexShard::Entry>(
      shard_id, cap);
  *delta_bytes += cap * sizeof(StoreIndexShard::Entry);
  const uint64_t mask = cap - 1;
  if (grow) {
    if (base != nullptr) {
      for (uint64_t i = 0; i < base->capacity; ++i) {
        const StoreIndexShard::Entry& e = base->entries[i];
        if (e.marker != StoreIndexShard::kEmpty &&
            e.marker != StoreIndexShard::kTombstone) {
          PlaceFresh(shard.get(), e.key, e.marker);
        }
      }
    }
    shard->live = base_live;
    shard->tombstones = 0;
  } else {
    std::memcpy(shard->entries.data(), base->entries.data(),
                cap * sizeof(StoreIndexShard::Entry));
    shard->live = base_live;
    shard->tombstones = base_tomb;
  }
  for (const uint64_t key : removals) {
    uint64_t i = (MixKey(key) >> 17) & mask;
    for (uint64_t probes = 0; probes <= mask; ++probes) {
      StoreIndexShard::Entry& e = shard->entries[i];
      DW_CHECK(e.marker != StoreIndexShard::kEmpty)
          << "evicted key " << key << " missing from index of store "
          << family_;
      if (e.marker != StoreIndexShard::kTombstone && e.key == key) {
        e.marker = StoreIndexShard::kTombstone;
        --shard->live;
        ++shard->tombstones;
        break;
      }
      i = (i + 1) & mask;
    }
  }
  for (const auto& [key, slot] : upserts) {
    uint64_t i = (MixKey(key) >> 17) & mask;
    uint64_t tombstone = cap;  // first reusable grave on the probe path
    for (;;) {
      StoreIndexShard::Entry& e = shard->entries[i];
      if (e.marker == StoreIndexShard::kEmpty) break;
      if (e.marker == StoreIndexShard::kTombstone) {
        if (tombstone == cap) tombstone = i;
      } else if (e.key == key) {
        // Re-inserted within the window that evicted it, or an update
        // racing the same slot: overwrite in place.
        e.marker = static_cast<uint64_t>(slot) + 1;
        i = cap;
        break;
      }
      i = (i + 1) & mask;
    }
    if (i == cap) continue;  // updated in place above
    const uint64_t target = tombstone != cap ? tombstone : i;
    if (tombstone != cap) --shard->tombstones;
    shard->entries[target].key = key;
    shard->entries[target].marker = static_cast<uint64_t>(slot) + 1;
    ++shard->live;
  }
  return shard;
}

size_t FeatureStore::EvictOnePage(const std::vector<uint8_t>& pinned_pages,
                                  std::vector<uint64_t>* removed_keys,
                                  uint64_t* evicted_keys) {
  std::vector<std::atomic<uint8_t>>& refs = *ref_bits_;
  const auto resident = [&](size_t p) {
    if (pinned_pages[p] != 0) return false;
    const matrix::Index start =
        static_cast<matrix::Index>(p) * page_rows_;
    const matrix::Index span = PageSpan(p);
    for (matrix::Index i = 0; i < span; ++i) {
      if (slot_live_[start + i] != 0) return true;
    }
    return false;
  };
  size_t victim = num_pages_;
  // Clock with second chance: a referenced page survives one sweep (its
  // bit clears); an unreferenced one is the victim. 2N steps guarantee
  // every page gets its chance spent before the forced pass below.
  for (size_t step = 0; step < 2 * num_pages_ && victim == num_pages_;
       ++step) {
    const size_t p = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % num_pages_;
    if (!resident(p)) continue;
    if (refs[p].exchange(0, std::memory_order_relaxed) != 0) continue;
    victim = p;
  }
  if (victim == num_pages_) {
    // Gathers kept re-touching everything mid-sweep; take the first
    // evictable page regardless of reference.
    for (size_t p = 0; p < num_pages_ && victim == num_pages_; ++p) {
      if (resident(p)) victim = p;
    }
  }
  DW_CHECK_LT(victim, num_pages_)
      << "store " << family_
      << " cannot evict: every page is pinned by the in-flight delta";
  const matrix::Index start =
      static_cast<matrix::Index>(victim) * page_rows_;
  const matrix::Index span = PageSpan(victim);
  for (matrix::Index i = 0; i < span; ++i) {
    const matrix::Index slot = start + i;
    if (slot_live_[slot] == 0) continue;
    removed_keys->push_back(slot_to_key_[slot]);
    slot_live_[slot] = 0;
    free_slots_.push_back(slot);
    ++*evicted_keys;
  }
  refs[victim].store(0, std::memory_order_relaxed);
  return victim;
}

template <typename RowOf>
void FeatureStore::LoadPagesLocked(
    StorePlacement placement, const RowOf& row_of,
    const std::vector<std::shared_ptr<StoreIndexShard>>& shards) {
  const int nodes = allocator_->topology().num_nodes;
  const bool sharded = placement == StorePlacement::kSharded;
  const size_t row_bytes = static_cast<size_t>(dim_) * sizeof(double);
  const int per_node = loaders() / nodes;
  RunOnNewThreads(loaders(), [&](int t) {
    (void)PinCurrentThreadToCpu(loader_cpus_[t]);
    const int n = t / per_node;
    const size_t k = static_cast<size_t>(t % per_node);
    // Page p starts on a round-robin boundary, so its position i holds
    // slot start + i, owned by node i % nodes.
    const matrix::Index first = sharded ? n : 0;
    const matrix::Index step = sharded ? nodes : 1;
    for (size_t p = num_pages_ * k / per_node;
         p < num_pages_ * (k + 1) / per_node; ++p) {
      StorePage* block = blocks_[p].get();
      if (block == nullptr) continue;
      double* frag = block->fragments[n].data();
      const matrix::Index start = static_cast<matrix::Index>(p) * page_rows_;
      const matrix::Index span = PageSpan(p);
      for (matrix::Index i = first; i < span; i += step) {
        if (slot_live_[start + i] == 0) continue;
        std::memcpy(frag + static_cast<size_t>(i / step) * dim_,
                    row_of(n, start + i), row_bytes);
      }
    }
    if (k != 0 || shards.empty()) return;
    StoreIndexShard* shard = shards[n].get();
    std::memset(shard->entries.data(), 0,
                shard->capacity * sizeof(StoreIndexShard::Entry));
    for (matrix::Index r = 0; r < rows_; ++r) {
      if (MixKey(r) % static_cast<uint64_t>(nodes) ==
          static_cast<uint64_t>(n)) {
        PlaceFresh(shard, r, static_cast<uint64_t>(r) + 1);
      }
    }
  });
}

uint64_t FeatureStore::Publish(const std::vector<double>& row_major) {
  DW_CHECK_EQ(row_major.size(),
              static_cast<size_t>(rows_) * static_cast<size_t>(dim_))
      << "feature table shape mismatch for store " << family_;
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  const StorePlacement placement =
      placement_.load(std::memory_order_relaxed);
  const int nodes = allocator_->topology().num_nodes;
  CollectReleasedLocked();
  StartGenerationLocked();

  // A full rewrite resets the key space to the identity map (key r ->
  // slot r, all slots live) -- the legacy dense-row-id contract.
  free_slots_.clear();
  next_slot_ = rows_;
  std::iota(slot_to_key_.begin(), slot_to_key_.end(), uint64_t{0});
  std::fill(slot_live_.begin(), slot_live_.end(), uint8_t{1});

  StorePublishReport report;
  report.full_bytes = FullRewriteBytes(placement);
  report.live_rows = rows_;

  // Block p is page p, so every page maps by identity (no row maps).
  auto snap = MakeShell(placement);
  snap->maps_.resize(num_pages_);
  for (size_t p = 0; p < num_pages_; ++p) {
    blocks_[p] = AllocateBlock(PageSpan(p), placement, &report.delta_bytes);
    ++report.touched_pages;
  }
  std::vector<uint64_t> shard_keys(nodes, 0);
  for (matrix::Index r = 0; r < rows_; ++r) {
    ++shard_keys[MixKey(r) % static_cast<uint64_t>(nodes)];
  }
  std::vector<std::shared_ptr<StoreIndexShard>> shards(nodes);
  for (int s = 0; s < nodes; ++s) {
    shards[s] = std::make_shared<StoreIndexShard>();
    shards[s]->capacity = FreshShardCapacity(shard_keys[s]);
    shards[s]->live = shard_keys[s];
    shards[s]->entries =
        index_allocator_
            ->AllocateOnNodeForOverwrite<StoreIndexShard::Entry>(
                s, shards[s]->capacity);
    report.delta_bytes +=
        shards[s]->capacity * sizeof(StoreIndexShard::Entry);
  }
  LoadPagesLocked(
      placement,
      [&](numa::NodeId, matrix::Index slot) {
        return row_major.data() + static_cast<size_t>(slot) * dim_;
      },
      shards);
  snap->index_shards_.assign(shards.begin(), shards.end());

  auto occ = std::make_shared<std::vector<uint64_t>>(
      (static_cast<size_t>(rows_) + 63) / 64, ~uint64_t{0});
  if (rows_ % 64 != 0) occ->back() = (uint64_t{1} << (rows_ % 64)) - 1;
  report.delta_bytes += occ->size() * sizeof(uint64_t);
  snap->occupancy_ = std::move(occ);
  snap->live_rows_ = rows_;

  InstallLocked(std::move(snap), &report);
  return report.version;
}

StorePublishReport FeatureStore::PublishDelta(
    const std::vector<uint64_t>& keys,
    const std::vector<double>& row_major) {
  DW_CHECK(!keys.empty()) << "empty delta publish for store " << family_;
  DW_CHECK_EQ(row_major.size(), keys.size() * static_cast<size_t>(dim_))
      << "feature table shape mismatch for store " << family_ << " (delta of "
      << keys.size() << " keys x dim " << dim_ << ")";
  DW_CHECK_LE(keys.size(), static_cast<size_t>(rows_))
      << "delta exceeds the capacity of store " << family_;
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  const StorePlacement placement =
      placement_.load(std::memory_order_relaxed);
  const int nodes = allocator_->topology().num_nodes;
  const auto prev =
      std::atomic_load_explicit(&current_, std::memory_order_acquire);
  CollectReleasedLocked();
  if (prev == nullptr) StartGenerationLocked();  // bootstrap: no blocks yet

  StorePublishReport report;
  report.full_bytes = FullRewriteBytes(placement);

  // 1. Slot assignment. Existing keys keep their slot (the index does
  //    not change for them); new keys pull from the free list, then the
  //    never-used tail, then a clock eviction. Pages this delta writes
  //    are pinned against eviction.
  std::vector<DeltaRow> delta_rows;
  delta_rows.reserve(keys.size());
  std::unordered_set<uint64_t> seen;
  seen.reserve(keys.size());
  std::vector<uint8_t> pinned(num_pages_, 0);
  std::vector<std::vector<std::pair<uint64_t, matrix::Index>>> upserts(
      nodes);
  std::vector<uint64_t> removed_keys;
  std::vector<size_t> evicted_pages;
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t key = keys[i];
    DW_CHECK(seen.insert(key).second)
        << "duplicate key " << key << " in one delta publish for store "
        << family_;
    // A key exists when the previous version maps it to a slot that
    // still holds it: a key evicted earlier in this delta fails the test
    // (its slot is dead, or already holds a newer key).
    std::optional<matrix::Index> slot =
        prev != nullptr ? prev->LookupSlot(key) : std::nullopt;
    const bool overwrite = slot.has_value() && slot_live_[*slot] != 0 &&
                           slot_to_key_[*slot] == key;
    if (!overwrite) {
      if (free_slots_.empty() && next_slot_ < rows_) {
        slot = next_slot_++;
      } else {
        if (free_slots_.empty()) {
          evicted_pages.push_back(
              EvictOnePage(pinned, &removed_keys, &report.evicted_keys));
        }
        DW_CHECK(!free_slots_.empty())
            << "store " << family_ << " has no evictable slots";
        slot = free_slots_.back();
        free_slots_.pop_back();
      }
      upserts[MixKey(key) % static_cast<uint64_t>(nodes)].emplace_back(
          key, *slot);
    }
    slot_to_key_[*slot] = key;
    slot_live_[*slot] = 1;
    pinned[*slot / page_rows_] = 1;
    delta_rows.push_back(DeltaRow{key, *slot, i, overwrite});
  }
  std::vector<std::vector<uint64_t>> removals(nodes);
  for (const uint64_t key : removed_keys) {
    removals[MixKey(key) % static_cast<uint64_t>(nodes)].push_back(key);
  }

  // 2. Retire the positions the previous version maps and this one does
  //    not: overwritten rows and the rows of evicted pages. An evicted
  //    page's slots that later keys reuse are not overwrites, so no
  //    position is retired twice.
  std::vector<StoreRowRef> retired;
  if (prev != nullptr) {
    for (const DeltaRow& dr : delta_rows) {
      if (dr.overwrite) retired.push_back(prev->RefFor(dr.slot));
    }
    for (const size_t p : evicted_pages) {
      const matrix::Index start = static_cast<matrix::Index>(p) * page_rows_;
      for (matrix::Index i = 0; i < PageSpan(p); ++i) {
        if (prev->SlotLive(start + i)) {
          retired.push_back(prev->RefFor(start + i));
        }
      }
    }
  }

  // 3. Row maps: clone the touched pages' maps (dead slots name no
  //    block), point evicted pages at the evicted map, SHARE the rest.
  auto snap = MakeShell(placement);
  if (prev != nullptr) {
    snap->maps_ = prev->maps_;
  } else {
    snap->maps_.resize(num_pages_);
  }
  for (const size_t p : evicted_pages) snap->maps_[p] = evicted_map_;
  std::vector<StoreRowRef*> writable(num_pages_);
  for (size_t p = 0; p < num_pages_; ++p) {
    if (pinned[p] == 0) continue;
    std::shared_ptr<StoreRowRef[]> map(new StoreRowRef[page_rows_]);
    const matrix::Index start = static_cast<matrix::Index>(p) * page_rows_;
    const matrix::Index span = PageSpan(p);
    for (matrix::Index i = 0; i < page_rows_; ++i) {
      // Live slots keep their entry (step 4 replaces the written ones).
      const bool live = i < span && slot_live_[start + i] != 0;
      map[i] = live && prev != nullptr ? prev->RefFor(start + i) : kNoRow;
    }
    report.delta_bytes += page_rows_ * sizeof(StoreRowRef);
    ++report.touched_pages;
    writable[p] = map.get();
    snap->maps_[p] = std::move(map);
  }

  // 4. Rows: each lands once, at a position no live version reads.
  const uint64_t row_bytes =
      static_cast<uint64_t>(dim_) * sizeof(double) *
      (placement == StorePlacement::kReplicated ? nodes : 1);
  for (const DeltaRow& dr : delta_rows) {
    const StoreRowRef ref =
        TakePosition(dr.slot, placement, &report.delta_bytes);
    WriteRow(blocks_[ref.block].get(), placement, ref.pos,
             row_major.data() + dr.src * static_cast<size_t>(dim_));
    writable[dr.slot / page_rows_][dr.slot % page_rows_] = ref;
    report.delta_bytes += row_bytes;
  }

  // 5. Key index: only shards whose key SET changed rebuild (pure
  //    overwrites ride the shared shard).
  snap->index_shards_.resize(nodes);
  for (int s = 0; s < nodes; ++s) {
    const StoreIndexShard* base =
        prev != nullptr ? prev->index_shards_[s].get() : nullptr;
    if (upserts[s].empty() && removals[s].empty() && base != nullptr) {
      snap->index_shards_[s] = prev->index_shards_[s];
    } else {
      snap->index_shards_[s] = RebuildShard(base, s, upserts[s],
                                            removals[s],
                                            &report.delta_bytes);
    }
  }

  // 6. Occupancy, rebuilt from the master liveness bytes (O(capacity)
  //    bits -- noise next to the rows).
  auto occ = std::make_shared<std::vector<uint64_t>>(
      (static_cast<size_t>(rows_) + 63) / 64, 0);
  uint64_t live = 0;
  for (matrix::Index r = 0; r < rows_; ++r) {
    if (slot_live_[r] != 0) {
      (*occ)[r >> 6] |= uint64_t{1} << (r & 63);
      ++live;
    }
  }
  report.delta_bytes += occ->size() * sizeof(uint64_t);
  report.live_rows = live;
  snap->occupancy_ = std::move(occ);
  snap->live_rows_ = live;

  InstallLocked(std::move(snap), &report);
  if (!retired.empty()) {
    retired_.push_back(RetiredBatch{report.version, std::move(retired)});
  }
  return report;
}

uint64_t FeatureStore::Republish(StorePlacement placement) {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  const auto prev =
      std::atomic_load_explicit(&current_, std::memory_order_acquire);
  DW_CHECK(prev != nullptr)
      << "republishing store " << family_ << " before any publish";
  if (placement == placement_.load(std::memory_order_relaxed)) {
    return prev->version_;
  }
  // Delta-aware migration: re-lay ONLY the live rows, page p into a
  // fresh block p of a new generation -- no dense materialization, no
  // index rehash (slots do not move, so the key index and occupancy are
  // shared with the previous version).
  CollectReleasedLocked();
  placement_.store(placement, std::memory_order_release);
  StartGenerationLocked();
  StorePublishReport report;
  report.full_bytes = FullRewriteBytes(placement);
  auto snap = MakeShell(placement);
  snap->maps_.resize(num_pages_);
  for (size_t p = 0; p < num_pages_; ++p) {
    const matrix::Index start = static_cast<matrix::Index>(p) * page_rows_;
    const matrix::Index span = PageSpan(p);
    if (std::none_of(slot_live_.begin() + start,
                     slot_live_.begin() + start + span,
                     [](uint8_t live) { return live != 0; })) {
      continue;  // evicted or never populated: stays without a block
    }
    blocks_[p] = AllocateBlock(span, placement, &report.delta_bytes);
    ++report.touched_pages;
  }
  LoadPagesLocked(
      placement,
      [&](numa::NodeId node, matrix::Index slot) {
        return prev->RowForNode(node, slot);
      },
      {});
  snap->index_shards_ = prev->index_shards_;
  snap->occupancy_ = prev->occupancy_;
  snap->live_rows_ = prev->live_rows_;
  report.live_rows = prev->live_rows_;
  InstallLocked(std::move(snap), &report);
  return report.version;
}

void FeatureStore::InstallLocked(std::shared_ptr<FeatureStoreSnapshot> snap,
                                 StorePublishReport* report) {
  const uint64_t version = next_version_++;
  snap->version_ = version;
  report->version = version;
  snap->blocks_.assign(blocks_.begin(), blocks_.end());
  alive_.insert(version);
  delta_bytes_counter_->Add(report->delta_bytes);
  full_bytes_counter_->Add(report->full_bytes);
  evictions_counter_->Add(report->evicted_keys);
  const uint64_t copies = snap->placement_ == StorePlacement::kReplicated
                              ? static_cast<uint64_t>(snap->num_nodes_)
                              : 1;
  live_bytes_gauge_->Set(static_cast<double>(
      snap->live_rows_ * dim_ * sizeof(double) * copies));
  resident_bytes_gauge_->Set(static_cast<double>(resident_bytes_));
  // Counter first, pointer second, mirroring ModelFamily::Publish: a
  // worker that acquires the NEW snapshot must never see a
  // current_version() older than it.
  current_version_.store(version, std::memory_order_release);
  std::atomic_store_explicit(
      &current_,
      std::shared_ptr<const FeatureStoreSnapshot>(std::move(snap)),
      std::memory_order_release);
}

std::shared_ptr<const FeatureStoreSnapshot> FeatureStore::Acquire() const {
  return std::atomic_load_explicit(&current_, std::memory_order_acquire);
}

}  // namespace dw::serve
