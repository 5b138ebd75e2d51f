// Microbench for the feature store's sharded key index and delta publish
// path (ISSUE: KV-grade feature store).
//
//   1. Load-factor sweep -- probe cost of LookupSlot hits and misses as
//      the open-addressing shards fill toward the 0.7 grow knee.
//   2. Delta publish vs churn -- wall time and bytes written per refresh
//      for churn fractions 0.1%..100%, against the full-rewrite baseline
//      (the tentpole claim: refresh cost scales with churn, not rows).
//   3. Eviction + tombstone reuse -- index health (live/tombstones/
//      capacity) and probe cost across churn rounds that overflow the
//      store and recycle graves.
//   4. Soak -- 400 deltas of 1% scattered overwrites at a fixed period,
//      with and without a reader that holds each snapshot for one
//      period: delta ratio, publish time, and the resident and live
//      bytes gauges every 50 deltas. Resident bytes must stay flat.
//   5. Full publish -- Publish and Republish (kSharded -> kReplicated)
//      wall time at serve-kv-churn's table shape (65,536 x 128, 64-row
//      pages, local2), median of 21, with the number of loader threads
//      that write the rows.
//
// Knobs: DW_BENCH_ROWS (default 32768; tables 1-4), DW_BENCH_LOOKUPS
// (default 1000000). No google-benchmark dependency; plain tables like
// the other paper benches.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "numa/numa_allocator.h"
#include "numa/topology.h"
#include "obs/metrics.h"
#include "serve/feature_store.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace dw::serve {
namespace {

using matrix::Index;

std::unique_ptr<FeatureStore> MakeStore(
    const std::shared_ptr<numa::NumaAllocator>& alloc,
    obs::Registry* registry, Index rows, Index dim, Index page_rows) {
  StoreOptions o;
  o.placement_override = StorePlacement::kSharded;
  o.page_rows = page_rows;
  return std::make_unique<FeatureStore>("bench", alloc, registry, rows, dim,
                                        o);
}

/// Bootstraps `count` keys drawn from [base, base + count) in one delta.
void SeedKeys(FeatureStore& store, uint64_t base, size_t count, Index dim) {
  std::vector<uint64_t> keys(count);
  for (size_t i = 0; i < count; ++i) keys[i] = base + i;
  store.PublishDelta(keys, std::vector<double>(count * dim, 1.0));
}

/// ns/op over `lookups` random LookupSlot calls; keys drawn from
/// [base, base + span). `sink` defeats dead-code elimination.
double LookupNs(const FeatureStoreSnapshot& snap, uint64_t base,
                uint64_t span, int lookups, uint64_t* sink) {
  Rng rng(42);
  WallTimer timer;
  uint64_t found = 0;
  for (int i = 0; i < lookups; ++i) {
    const auto slot = snap.LookupSlot(base + rng.Below(span));
    found += slot.has_value() ? *slot + 1 : 0;
  }
  *sink += found;
  return timer.Seconds() * 1e9 / lookups;
}

void RunLoadFactorSweep(Index rows, int lookups) {
  auto alloc = std::make_shared<numa::NumaAllocator>(numa::Local2());
  obs::Registry registry;
  const Index dim = 8;
  Table t("key index: load-factor sweep");
  t.SetHeader({"fill", "live", "capacity", "load", "hit ns/op",
               "miss ns/op"});
  uint64_t sink = 0;
  for (const double fill : {0.1, 0.25, 0.5, 0.75, 1.0}) {
    auto store = MakeStore(alloc, &registry, rows, dim, 256);
    const size_t live = static_cast<size_t>(fill * rows);
    SeedKeys(*store, 0, live, dim);
    const auto snap = store->Acquire();
    uint64_t capacity = 0;
    for (const auto& st : snap->IndexStats()) capacity += st.capacity;
    const double hit_ns = LookupNs(*snap, 0, live, lookups, &sink);
    // Misses probe the full chain (to an empty cell) -- the worst case.
    const double miss_ns =
        LookupNs(*snap, 1u << 30, rows, lookups, &sink);
    t.AddRow({Table::Num(fill, 2), std::to_string(snap->live_rows()),
              std::to_string(capacity),
              Table::Num(static_cast<double>(live) / capacity, 2),
              Table::Num(hit_ns, 1), Table::Num(miss_ns, 1)});
  }
  t.Print();
  std::printf("(sink %llu)\n\n", static_cast<unsigned long long>(sink));
}

void RunChurnSweep(Index rows) {
  auto alloc = std::make_shared<numa::NumaAllocator>(numa::Local2());
  obs::Registry registry;
  const Index dim = 16;
  Table t("delta publish: bytes + wall time vs churn");
  t.SetHeader({"churn", "keys", "delta MB", "full MB", "ratio",
               "publish ms"});
  for (const double churn : {0.001, 0.01, 0.1, 1.0}) {
    auto store = MakeStore(alloc, &registry, rows, dim, 64);
    SeedKeys(*store, 0, rows, dim);  // resident at capacity
    const size_t n = std::max<size_t>(1, static_cast<size_t>(churn * rows));
    // Overwrite a random resident subset: pure churn, no evictions.
    Rng rng(7);
    std::vector<uint64_t> keys;
    std::vector<bool> picked(rows, false);
    while (keys.size() < n) {
      const uint64_t k = rng.Below(rows);
      if (!picked[k]) {
        picked[k] = true;
        keys.push_back(k);
      }
    }
    const std::vector<double> block(n * dim, 2.0);
    WallTimer timer;
    const StorePublishReport rep = store->PublishDelta(keys, block);
    const double ms = timer.Seconds() * 1e3;
    t.AddRow({Table::Num(churn, 3), std::to_string(n),
              Table::Num(rep.delta_bytes / 1e6, 3),
              Table::Num(rep.full_bytes / 1e6, 3),
              Table::Num(static_cast<double>(rep.delta_bytes) /
                             rep.full_bytes,
                         4),
              Table::Num(ms, 3)});
  }
  t.Print();
  std::printf("\n");
}

void RunEvictionRounds(Index rows, int lookups) {
  auto alloc = std::make_shared<numa::NumaAllocator>(numa::Local2());
  obs::Registry registry;
  const Index dim = 8;
  auto store = MakeStore(alloc, &registry, rows, dim, 64);
  SeedKeys(*store, 0, rows, dim);
  Table t("eviction churn: tombstone reuse + probe cost");
  t.SetHeader({"round", "live", "tombstones", "capacity", "evicted",
               "hit ns/op"});
  uint64_t sink = 0;
  uint64_t fresh = 1u << 20;
  const size_t per_round = rows / 8;
  for (int round = 1; round <= 8; ++round) {
    // Fresh keys overflow the full store: the clock evicts pages, the
    // index tombstones the victims, and the next round's probes must
    // step over (and reuse) the graves.
    SeedKeys(*store, fresh, per_round, dim);
    fresh += per_round;
    const auto snap = store->Acquire();
    uint64_t live = 0, tombs = 0, capacity = 0;
    for (const auto& st : snap->IndexStats()) {
      live += st.live;
      tombs += st.tombstones;
      capacity += st.capacity;
    }
    const double hit_ns =
        LookupNs(*snap, fresh - per_round, per_round, lookups / 4, &sink);
    t.AddRow({std::to_string(round), std::to_string(live),
              std::to_string(tombs), std::to_string(capacity),
              std::to_string(registry.Snapshot().CounterValue(
                  "store.evictions", {{"family", "bench"}})),
              Table::Num(hit_ns, 1)});
  }
  t.Print();
  std::printf("(sink %llu)\n", static_cast<unsigned long long>(sink));
}

void RunSoak(Index rows, bool reader) {
  auto alloc = std::make_shared<numa::NumaAllocator>(numa::Local2());
  obs::Registry registry;
  const Index dim = 128;
  auto store = MakeStore(alloc, &registry, rows, dim, 64);
  SeedKeys(*store, 0, rows, dim);
  const size_t n = std::max<size_t>(1, rows / 100);
  const std::vector<double> block(n * dim, 2.0);
  const auto period = std::chrono::milliseconds(2);
  std::atomic<bool> done{false};
  std::thread holder;
  if (reader) {
    // Holds each snapshot it acquires for one delta period.
    holder = std::thread([&] {
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = store->Acquire();
        std::this_thread::sleep_for(period);
      }
    });
  }
  Table t(std::string("soak: 1% scattered deltas every 2 ms, ") +
          (reader ? "a reader holding each snapshot one period"
                  : "no reader"));
  t.SetHeader({"deltas", "ratio", "publish ms", "resident MB", "live MB"});
  const obs::Labels family = {{"family", "bench"}};
  Rng rng(9);
  std::vector<uint64_t> perm(rows);
  for (Index k = 0; k < rows; ++k) perm[k] = k;
  auto next = std::chrono::steady_clock::now();
  double ratio_sum = 0.0;
  double ms_sum = 0.0;
  for (int d = 1; d <= 400; ++d) {
    next += period;
    std::this_thread::sleep_until(next);
    for (size_t i = 0; i < n; ++i) {
      std::swap(perm[i], perm[i + rng.Below(rows - i)]);
    }
    const std::vector<uint64_t> keys(perm.begin(), perm.begin() + n);
    WallTimer timer;
    const StorePublishReport rep = store->PublishDelta(keys, block);
    ms_sum += timer.Seconds() * 1e3;
    ratio_sum += static_cast<double>(rep.delta_bytes) / rep.full_bytes;
    if (d % 50 != 0) continue;
    const obs::RegistrySnapshot snap = registry.Snapshot();
    t.AddRow({std::to_string(d), Table::Num(ratio_sum / 50, 4),
              Table::Num(ms_sum / 50, 3),
              Table::Num(snap.GaugeValue("store.resident_bytes", family) / 1e6,
                         2),
              Table::Num(snap.GaugeValue("store.live_bytes", family) / 1e6,
                         2)});
    ratio_sum = 0.0;
    ms_sum = 0.0;
  }
  done.store(true, std::memory_order_release);
  if (holder.joinable()) holder.join();
  t.Print();
  std::printf("\n");
}

void RunFullPublish() {
  const Index rows = 65536;
  const Index dim = 128;
  auto alloc = std::make_shared<numa::NumaAllocator>(numa::Local2());
  obs::Registry registry;
  Rng rng(11);
  std::vector<double> table(static_cast<size_t>(rows) * dim);
  for (double& v : table) v = rng.Gaussian(0.0, 1.0);
  // One store throughout, like a serving process: a generation's blocks
  // reuse the heap an earlier one freed, so the rows' copy is timed, not
  // the kernel's page faults.
  auto store = MakeStore(alloc, &registry, rows, dim, 64);  // kSharded
  std::vector<double> publish_ms, republish_ms;
  for (int i = 0; i < 21; ++i) {
    WallTimer publish;
    store->Publish(table);
    publish_ms.push_back(publish.Seconds() * 1e3);
  }
  for (int i = 0; i < 21; ++i) {
    WallTimer republish;
    store->Republish(StorePlacement::kReplicated);
    republish_ms.push_back(republish.Seconds() * 1e3);
    store->Republish(StorePlacement::kSharded);  // back, untimed
  }
  const double table_mb = table.size() * sizeof(double) / 1e6;
  const double pub = Percentile(publish_ms, 50);
  const double repub = Percentile(republish_ms, 50);
  Table t("full publish: 65536 x 128, 64-row pages, local2, median of 21");
  t.SetHeader({"loaders", "publish ms", "publish GB/s", "republish ms",
               "republish GB/s"});
  // Republish to kReplicated writes one copy per node (2 on local2).
  t.AddRow({std::to_string(store->loaders()), Table::Num(pub, 2),
            Table::Num(table_mb / pub, 2), Table::Num(repub, 2),
            Table::Num(2 * table_mb / repub, 2)});
  t.Print();
}

}  // namespace
}  // namespace dw::serve

int main() {
  const dw::matrix::Index rows = dw::bench::EnvInt("DW_BENCH_ROWS", 32768);
  const int lookups = dw::bench::EnvInt("DW_BENCH_LOOKUPS", 1000000);
  dw::serve::RunLoadFactorSweep(rows, lookups);
  dw::serve::RunChurnSweep(rows);
  dw::serve::RunEvictionRounds(rows, lookups);
  std::printf("\n");
  dw::serve::RunSoak(rows, /*reader=*/false);
  dw::serve::RunSoak(rows, /*reader=*/true);
  dw::serve::RunFullPublish();
  return 0;
}
