// Tests for src/serve: per-family model placement, cost-model-chosen
// replication, hot-swap safety, per-family batcher flush semantics and
// admission counters, the async snapshot exporter, end-to-end serving
// correctness against single-threaded reference scores, and the
// memory-model ordering of PerNode over PerMachine serving throughput.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/paper_datasets.h"
#include "data/synthetic.h"
#include "kernels/dispatch.h"
#include "models/glm.h"
#include "numa/memory_model.h"
#include "serve/model_family.h"
#include "serve/request_batcher.h"
#include "serve/serving_engine.h"
#include "serve/snapshot_exporter.h"
#include "util/rng.h"
#include "util/timer.h"

namespace dw::serve {
namespace {

using matrix::Index;

std::vector<double> ConstantWeights(size_t dim, double v) {
  return std::vector<double>(dim, v);
}

/// Family options with an explicit replication (placement tests pin the
/// strategy; the chooser has its own tests).
FamilyOptions PinnedFamily(Index dim, Replication rep) {
  FamilyOptions o;
  o.traffic.dim = dim;
  o.replication_override = rep;
  return o;
}

/// Family options that let the cost model decide.
FamilyOptions AutoFamily(Index dim, double reads_per_publish) {
  FamilyOptions o;
  o.traffic.dim = dim;
  o.traffic.reads_per_publish = reads_per_publish;
  return o;
}

ServingFamilyOptions ServePinned(Index dim, Replication rep) {
  ServingFamilyOptions o;
  o.traffic.dim = dim;
  o.replication_override = rep;
  return o;
}

ServingFamilyOptions ServeAuto(Index dim, double reads_per_publish = 1024.0,
                               double batch_rows = 64.0) {
  ServingFamilyOptions o;
  o.traffic.dim = dim;
  o.traffic.reads_per_publish = reads_per_publish;
  o.traffic.expected_batch_rows = batch_rows;
  return o;
}

// --- model families ------------------------------------------------------

/// A fresh allocator for one test's families; ledger checks read it.
std::shared_ptr<numa::NumaAllocator> AllocatorOn(const numa::Topology& topo) {
  return std::make_shared<numa::NumaAllocator>(topo);
}

TEST(ModelRegistryTest, EmptyUntilFirstPublish) {
  ModelFamily m("m", AllocatorOn(numa::Local2()),
                PinnedFamily(16, Replication::kPerNode));
  EXPECT_EQ(m.current_version(), 0u);
  EXPECT_EQ(m.Acquire(), nullptr);
}

TEST(ModelRegistryTest, PerNodePlacesOneReplicaPerNode) {
  const numa::Topology topo = numa::Local2();
  const auto alloc = AllocatorOn(topo);
  ModelFamily m("m", alloc, PinnedFamily(128, Replication::kPerNode));
  const uint64_t v = m.Publish(ConstantWeights(128, 1.5));
  EXPECT_EQ(v, 1u);

  const auto snap = m.Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->num_replicas(), topo.num_nodes);
  EXPECT_EQ(snap->dim(), 128u);
  EXPECT_EQ(snap->family(), "m");
  EXPECT_EQ(m.dim(), 128u);
  for (int n = 0; n < topo.num_nodes; ++n) {
    EXPECT_EQ(snap->ReplicaNodeFor(n), n);
    EXPECT_DOUBLE_EQ(snap->WeightsForNode(n)[127], 1.5);
    // Every node holds a full copy of the model bytes.
    EXPECT_EQ(alloc->ledger().BytesOnNode(n), 128 * sizeof(double));
  }
}

TEST(ModelRegistryTest, PerMachineKeepsOneCopyOnNodeZero) {
  const numa::Topology topo = numa::Local2();
  const auto alloc = AllocatorOn(topo);
  ModelFamily m("m", alloc, PinnedFamily(64, Replication::kPerMachine));
  m.Publish(ConstantWeights(64, 2.0));

  const auto snap = m.Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->num_replicas(), 1);
  // Readers on every node route to the node-0 copy.
  EXPECT_EQ(snap->ReplicaNodeFor(0), 0);
  EXPECT_EQ(snap->ReplicaNodeFor(1), 0);
  EXPECT_EQ(snap->WeightsForNode(0), snap->WeightsForNode(1));
  EXPECT_EQ(alloc->ledger().BytesOnNode(0), 64 * sizeof(double));
  EXPECT_EQ(alloc->ledger().BytesOnNode(1), 0u);
}

TEST(ModelRegistryTest, CostModelChoosesReplicationPerFamily) {
  // The acceptance shape: two families on one allocator whose
  // replication the opt:: cost model chooses INDEPENDENTLY. On the
  // paper's 8-socket local8, a read-heavy family must come out kPerNode
  // (remote reads would saturate the interconnect), while a
  // republish-dominated family (every publish serves almost no reads)
  // must come out kPerMachine (replicating 8x buys nothing).
  const numa::Topology topo = numa::Local8();
  const auto alloc = AllocatorOn(topo);
  ModelFamily wide("wide-lr", alloc,
                   AutoFamily(4096, /*reads_per_publish=*/4096));
  ModelFamily refresh("hot-refresh", alloc,
                      AutoFamily(4096, /*reads_per_publish=*/0));
  EXPECT_EQ(wide.replication(), Replication::kPerNode);
  EXPECT_EQ(refresh.replication(), Replication::kPerMachine);
  EXPECT_FALSE(wide.rationale().empty());
  EXPECT_FALSE(refresh.rationale().empty());

  // Both families publish and serve concurrently; placement follows each
  // family's own strategy.
  wide.Publish(ConstantWeights(4096, 1.0));
  refresh.Publish(ConstantWeights(4096, 2.0));
  EXPECT_EQ(wide.Acquire()->num_replicas(), topo.num_nodes);
  EXPECT_EQ(refresh.Acquire()->num_replicas(), 1);
  // Node 0 holds one replica of each; node 1..7 only the wide family's.
  EXPECT_EQ(alloc->ledger().BytesOnNode(0), 2 * 4096 * sizeof(double));
  EXPECT_EQ(alloc->ledger().BytesOnNode(7), 4096 * sizeof(double));
}

TEST(ModelRegistryTest, RepublishSwapsVersionAndFreesOldReplicas) {
  const auto alloc = AllocatorOn(numa::Local2());
  ModelFamily m("m", alloc, PinnedFamily(32, Replication::kPerNode));
  m.Publish(ConstantWeights(32, 1.0));
  const auto old_snap = m.Acquire();
  EXPECT_EQ(m.Publish(ConstantWeights(32, 2.0)), 2u);
  EXPECT_EQ(m.current_version(), 2u);
  // The old snapshot stays valid while referenced...
  EXPECT_DOUBLE_EQ(old_snap->WeightsForNode(0)[0], 1.0);
  EXPECT_DOUBLE_EQ(m.Acquire()->WeightsForNode(0)[0], 2.0);
  // ...and both versions' bytes are live until the old one is released.
  EXPECT_EQ(alloc->ledger().BytesOnNode(0), 2 * 32 * sizeof(double));
}

TEST(ModelRegistryTest, PublishRejectsDimensionMismatch) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  ModelFamily m("m", AllocatorOn(numa::Local2()),
                PinnedFamily(32, Replication::kPerNode));
  EXPECT_DEATH(m.Publish(ConstantWeights(16, 1.0)), "dimension mismatch");
}

TEST(ModelRegistryTest, SnapshotOutlivesRegistry) {
  std::shared_ptr<const ModelSnapshot> snap;
  {
    ModelFamily m("m", AllocatorOn(numa::Local2()),
                  PinnedFamily(16, Replication::kPerNode));
    m.Publish(ConstantWeights(16, 3.0));
    snap = m.Acquire();
  }
  // The snapshot keeps its allocator (and ledger) alive.
  EXPECT_DOUBLE_EQ(snap->WeightsForNode(1)[15], 3.0);
}

TEST(ModelRegistryTest, ReplicaAccessorsValidateNodeIndex) {
  // Regression: an out-of-range NodeId under kPerNode used to index past
  // replicas_ silently. Both accessors must refuse it loudly.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  ModelFamily m("m", AllocatorOn(numa::Local2()),
                PinnedFamily(8, Replication::kPerNode));
  m.Publish(ConstantWeights(8, 1.0));
  const auto snap = m.Acquire();
  ASSERT_EQ(snap->num_replicas(), 2);
  // In-range nodes work.
  EXPECT_DOUBLE_EQ(snap->WeightsForNode(1)[0], 1.0);
  EXPECT_EQ(snap->ReplicaNodeFor(1), 1);
  // Out-of-range and negative nodes die instead of reading past the end.
  EXPECT_DEATH(snap->WeightsForNode(2), "out of range");
  EXPECT_DEATH(snap->ReplicaNodeFor(7), "out of range");
  EXPECT_DEATH(snap->WeightsForNode(-1), "negative node");
}

TEST(ModelRegistryTest, HotSwapUnderConcurrentReadersHasNoTornReads) {
  // The publisher writes snapshots whose entries all equal the version
  // number; a torn read would surface as a snapshot mixing two values.
  const size_t dim = 512;
  ModelFamily m("m", AllocatorOn(numa::Local8()),
                PinnedFamily(dim, Replication::kPerNode));
  m.Publish(ConstantWeights(dim, 1.0));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto snap = m.Acquire();
        const int node = t % 8;
        const double* w = snap->WeightsForNode(node);
        const double first = w[0];
        for (size_t k = 0; k < dim; ++k) {
          if (w[k] != first) {
            torn.fetch_add(1);
            break;
          }
        }
        if (first != static_cast<double>(snap->version())) torn.fetch_add(1);
        if (snap->version() < last_version) torn.fetch_add(1);
        last_version = snap->version();
      }
    });
  }
  for (int v = 2; v <= 60; ++v) {
    m.Publish(ConstantWeights(dim, static_cast<double>(v)));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(m.current_version(), 60u);
}

TEST(ModelRegistryTest, PublishAcquireStressHoldsSnapshotsAcrossSwaps) {
  // TSan-facing stress (the serve suites run unsuppressed in CI): one
  // thread hammers republish while reader threads HOLD acquired
  // snapshots across many swaps, then verify them after the publisher
  // has moved on. Asserts version monotonicity per reader and that every
  // held snapshot is internally consistent (no torn weights), including
  // long after newer versions replaced it.
  const size_t dim = 256;
  constexpr int kPublishes = 400;
  ModelFamily m("m", AllocatorOn(numa::Local2()),
                PinnedFamily(dim, Replication::kPerNode));
  m.Publish(ConstantWeights(dim, 1.0));

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (int v = 2; v <= kPublishes; ++v) {
      m.Publish(ConstantWeights(dim, static_cast<double>(v)));
    }
    stop.store(true, std::memory_order_release);
  });

  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::vector<std::shared_ptr<const ModelSnapshot>> held;
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto snap = m.Acquire();
        if (snap->version() < last_version) violations.fetch_add(1);
        last_version = snap->version();
        // Keep a window of old snapshots alive across future swaps.
        held.push_back(std::move(snap));
        if (held.size() > 8) held.erase(held.begin());
        // Score against the OLDEST held snapshot: its weights must still
        // all equal its own version number.
        const auto& old = held.front();
        const double* w = old->WeightsForNode(t % 2);
        const double want = static_cast<double>(old->version());
        for (size_t k = 0; k < dim; ++k) {
          if (w[k] != want) {
            violations.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  publisher.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(m.current_version(), static_cast<uint64_t>(kPublishes));
}

TEST(ModelRegistryTest, ConcurrentPublishersKeepVersionsMonotonic) {
  ModelFamily m("m", AllocatorOn(numa::Local2()),
                PinnedFamily(8, Replication::kPerNode));
  std::vector<std::thread> publishers;
  for (int t = 0; t < 4; ++t) {
    publishers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const uint64_t v = m.Publish(ConstantWeights(8, 1.0));
        // Installs are serialized in version order, so once Publish
        // returns, the current version can only be at or past it.
        EXPECT_GE(m.current_version(), v);
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!stop.load()) {
      const uint64_t v = m.current_version();
      EXPECT_GE(v, last) << "version went backwards";
      last = v;
    }
  });
  for (auto& t : publishers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(m.current_version(), 200u);
}

// --- batcher --------------------------------------------------------------

RequestBatcher::Options BatchOpts(size_t max_batch,
                                  std::chrono::microseconds delay,
                                  size_t max_rows = 1 << 16) {
  RequestBatcher::Options o;
  o.max_batch_size = max_batch;
  o.max_delay = delay;
  o.max_queue_rows = max_rows;
  return o;
}

std::future<double> MustSubmit(RequestBatcher& b, FamilyId f, double value) {
  auto fut = b.Submit(f, ScoreRequest::Carried({0}, {value}));
  EXPECT_TRUE(fut.ok()) << fut.status().ToString();
  return std::move(fut).value();
}

TEST(RequestBatcherTest, FlushesOnSizeWithoutWaitingForDeadline) {
  RequestBatcher b;
  const FamilyId f = b.AddQueue(BatchOpts(4, std::chrono::seconds(10)));
  for (int i = 0; i < 4; ++i) MustSubmit(b, f, i);
  WallTimer timer;
  Batch batch;
  ASSERT_TRUE(b.NextBatch(&batch));
  EXPECT_EQ(batch.rows(), 4u);
  EXPECT_EQ(batch.family, f);
  EXPECT_EQ(batch.reason, FlushReason::kSize);
  // Released by the size trigger, not the 10 s deadline.
  EXPECT_LT(timer.Seconds(), 1.0);
  EXPECT_EQ(b.pending(), 0u);
  EXPECT_EQ(b.queue_stats(f).flush_size, 1u);
}

TEST(RequestBatcherTest, FlushesPartialBatchOnDeadline) {
  const auto delay = std::chrono::milliseconds(25);
  RequestBatcher b;
  const FamilyId f = b.AddQueue(BatchOpts(1000, delay));
  MustSubmit(b, f, 1.0);
  WallTimer timer;
  Batch batch;
  ASSERT_TRUE(b.NextBatch(&batch));
  const double waited = timer.Seconds();
  EXPECT_EQ(batch.rows(), 1u);
  EXPECT_EQ(batch.reason, FlushReason::kDeadline);
  // The wait is bounded by the deadline on both sides (generous upper
  // bound for slow CI).
  EXPECT_GE(waited, 0.015);
  EXPECT_LT(waited, 5.0);
  EXPECT_EQ(b.queue_stats(f).flush_deadline, 1u);
}

TEST(RequestBatcherTest, ShutdownDrainsRemainderThenStops) {
  RequestBatcher b;
  const FamilyId f = b.AddQueue(BatchOpts(1000, std::chrono::seconds(10)));
  for (int i = 0; i < 3; ++i) MustSubmit(b, f, i);
  b.Shutdown();
  Batch batch;
  ASSERT_TRUE(b.NextBatch(&batch));
  EXPECT_EQ(batch.rows(), 3u);
  EXPECT_EQ(batch.reason, FlushReason::kDrain);
  EXPECT_FALSE(b.NextBatch(&batch));
  // Admission is closed.
  EXPECT_EQ(b.Submit(f, ScoreRequest::Carried({0}, {1.0})).status().code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(b.queue_stats(f).flush_drain, 1u);
}

TEST(RequestBatcherTest, QueueBoundsAndRejectionsArePerFamily) {
  RequestBatcher b;
  const FamilyId tiny =
      b.AddQueue(BatchOpts(1000, std::chrono::seconds(10), /*max_rows=*/2));
  const FamilyId roomy =
      b.AddQueue(BatchOpts(1000, std::chrono::seconds(10)));
  MustSubmit(b, tiny, 1.0);
  MustSubmit(b, tiny, 2.0);
  // The tiny family back-pressures...
  EXPECT_EQ(b.Submit(tiny, ScoreRequest::Carried({0}, {3.0})).status().code(),
            Status::Code::kResourceExhausted);
  // ...without starving its neighbor.
  MustSubmit(b, roomy, 4.0);
  const auto ts = b.queue_stats(tiny);
  EXPECT_EQ(ts.accepted, 2u);
  EXPECT_EQ(ts.rejected_full, 1u);
  EXPECT_EQ(ts.depth, 2u);
  const auto rs = b.queue_stats(roomy);
  EXPECT_EQ(rs.accepted, 1u);
  EXPECT_EQ(rs.rejected_full, 0u);
}

TEST(RequestBatcherTest, RejectsMismatchedRow) {
  RequestBatcher b;
  const FamilyId f = b.AddQueue(BatchOpts(8, std::chrono::milliseconds(1)));
  EXPECT_EQ(b.Submit(f, ScoreRequest::Carried({0, 1}, {1.0})).status().code(),
            Status::Code::kInvalidArgument);
}

constexpr RequestKind kAllKinds[] = {RequestKind::kCarried,
                                     RequestKind::kRowId, RequestKind::kKey};

/// A well-formed request of `kind` (the batcher does not look up rows or
/// keys; the engine screens them before Submit).
ScoreRequest RequestOfKind(RequestKind kind) {
  switch (kind) {
    case RequestKind::kRowId:
      return ScoreRequest::RowId(0);
    case RequestKind::kKey:
      return ScoreRequest::Key(0);
    case RequestKind::kCarried:
      break;
  }
  return ScoreRequest::Carried({0}, {1.0});
}

TEST(RequestBatcherTest, CarriedAndIdFormsShareAdmissionCodes) {
  // Admission parity, batcher side: every request form goes through the
  // one Submit, so back-pressure and shutdown refusals must carry
  // identical Status codes whichever form hits them.
  RequestBatcher b;
  const FamilyId f =
      b.AddQueue(BatchOpts(1000, std::chrono::seconds(10), /*max_rows=*/1));
  MustSubmit(b, f, 1.0);  // fills the one-row queue
  for (const RequestKind kind : kAllKinds) {
    EXPECT_EQ(b.Submit(f, RequestOfKind(kind)).status().code(),
              Status::Code::kResourceExhausted)
        << ToString(kind);
  }
  const auto qs = b.queue_stats(f);
  EXPECT_EQ(qs.accepted, 1u);
  EXPECT_EQ(qs.rejected_full, 3u);  // every refusal counted alike
  b.Shutdown();
  for (const RequestKind kind : kAllKinds) {
    EXPECT_EQ(b.Submit(f, RequestOfKind(kind)).status().code(),
              Status::Code::kFailedPrecondition)
        << ToString(kind);
  }
}

TEST(RequestBatcherTest, IdRequestsBatchWithCarriedNeighbors) {
  // All forms interleave FIFO in one family queue; a flushed batch
  // preserves order, each request's kind, and the keyed forms' ids.
  RequestBatcher b;
  const FamilyId f = b.AddQueue(BatchOpts(4, std::chrono::seconds(10)));
  MustSubmit(b, f, 1.0);
  ASSERT_TRUE(b.Submit(f, ScoreRequest::RowId(7)).ok());
  MustSubmit(b, f, 2.0);
  ASSERT_TRUE(b.Submit(f, ScoreRequest::Key(9)).ok());
  Batch batch;
  ASSERT_TRUE(b.NextBatch(&batch));
  ASSERT_EQ(batch.rows(), 4u);
  EXPECT_EQ(batch.requests[0].kind, RequestKind::kCarried);
  EXPECT_EQ(batch.requests[1].kind, RequestKind::kRowId);
  EXPECT_EQ(batch.requests[1].row_id, 7u);
  EXPECT_EQ(batch.requests[2].kind, RequestKind::kCarried);
  EXPECT_EQ(batch.requests[3].kind, RequestKind::kKey);
  EXPECT_EQ(batch.requests[3].key, 9u);
}

TEST(RequestBatcherTest, OversizedBurstSplitsIntoFullBatches) {
  RequestBatcher b;
  const FamilyId f = b.AddQueue(BatchOpts(4, std::chrono::seconds(10)));
  for (int i = 0; i < 10; ++i) MustSubmit(b, f, i);
  b.Shutdown();
  Batch batch;
  size_t total = 0;
  std::vector<size_t> sizes;
  while (b.NextBatch(&batch)) {
    sizes.push_back(batch.rows());
    total += batch.rows();
  }
  EXPECT_EQ(total, 10u);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 4u);
  EXPECT_EQ(sizes[1], 4u);
  EXPECT_EQ(sizes[2], 2u);
}

TEST(RequestBatcherTest, ReadyBatchesRotateAcrossFamilies) {
  // Two families, both with full batches queued: workers must take them
  // round-robin, not drain one family first.
  RequestBatcher b;
  const FamilyId a = b.AddQueue(BatchOpts(2, std::chrono::seconds(10)));
  const FamilyId c = b.AddQueue(BatchOpts(2, std::chrono::seconds(10)));
  for (int i = 0; i < 4; ++i) MustSubmit(b, a, i);
  for (int i = 0; i < 4; ++i) MustSubmit(b, c, i);
  std::vector<FamilyId> order;
  Batch batch;
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(b.NextBatch(&batch));
    order.push_back(batch.family);
  }
  EXPECT_EQ(order, (std::vector<FamilyId>{a, c, a, c}));
}

TEST(RequestBatcherTest, ExpiredDeadlineOutranksSizeReadyNeighbor) {
  // A hot family that is ALWAYS size-ready must not starve a quiet
  // family whose lone request has aged past its deadline: the expired
  // deadline wins the next flush.
  RequestBatcher b;
  const FamilyId hot = b.AddQueue(BatchOpts(2, std::chrono::seconds(10)));
  const FamilyId quiet =
      b.AddQueue(BatchOpts(64, std::chrono::milliseconds(1)));
  for (int i = 0; i < 8; ++i) MustSubmit(b, hot, i);  // 4 full batches
  MustSubmit(b, quiet, 99.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // expire it
  Batch batch;
  ASSERT_TRUE(b.NextBatch(&batch));
  EXPECT_EQ(batch.family, quiet);
  EXPECT_EQ(batch.reason, FlushReason::kDeadline);
  // The hot family's full batches still drain afterwards.
  ASSERT_TRUE(b.NextBatch(&batch));
  EXPECT_EQ(batch.family, hot);
  EXPECT_EQ(batch.reason, FlushReason::kSize);
}

TEST(RequestBatcherTest, ExpiredDeadlineWinsEvenWhenCursorPointsElsewhere) {
  // Regression for the flush-ordering hole: the round-robin cursor is
  // parked on a size-ready hot family (by draining a first batch from
  // it), a SECOND hot family is also size-ready, and a quiet family far
  // from the cursor holds one expired request. The expired queue must be
  // drained before EITHER size-ready neighbor, cursor position be
  // damned.
  RequestBatcher b;
  const FamilyId hot_a = b.AddQueue(BatchOpts(2, std::chrono::seconds(10)));
  const FamilyId hot_b = b.AddQueue(BatchOpts(2, std::chrono::seconds(10)));
  const FamilyId quiet =
      b.AddQueue(BatchOpts(64, std::chrono::milliseconds(1)));
  for (int i = 0; i < 6; ++i) MustSubmit(b, hot_a, i);
  for (int i = 0; i < 6; ++i) MustSubmit(b, hot_b, i);
  Batch batch;
  // Park the cursor past hot_a: the next size scan would start at hot_b.
  ASSERT_TRUE(b.NextBatch(&batch));
  EXPECT_EQ(batch.family, hot_a);
  EXPECT_EQ(batch.reason, FlushReason::kSize);
  MustSubmit(b, quiet, 99.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // expire it
  ASSERT_TRUE(b.NextBatch(&batch));
  EXPECT_EQ(batch.family, quiet);
  EXPECT_EQ(batch.reason, FlushReason::kDeadline);
  // Both hot families still drain their full batches afterwards.
  ASSERT_TRUE(b.NextBatch(&batch));
  EXPECT_EQ(batch.reason, FlushReason::kSize);
}

TEST(RequestBatcherTest, MultipleExpiredQueuesDrainInExpiryOrder) {
  // Two expired families: the one whose request aged FIRST flushes
  // first, not the one the cursor happens to reach first.
  RequestBatcher b;
  const FamilyId hot = b.AddQueue(BatchOpts(2, std::chrono::seconds(10)));
  const FamilyId late =
      b.AddQueue(BatchOpts(64, std::chrono::milliseconds(1)));
  const FamilyId early =
      b.AddQueue(BatchOpts(64, std::chrono::milliseconds(1)));
  for (int i = 0; i < 4; ++i) MustSubmit(b, hot, i);
  // `early`'s request is older than `late`'s even though `late` sits
  // earlier in cursor order.
  MustSubmit(b, early, 1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  MustSubmit(b, late, 2.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // expire both
  Batch batch;
  ASSERT_TRUE(b.NextBatch(&batch));
  EXPECT_EQ(batch.family, early);
  EXPECT_EQ(batch.reason, FlushReason::kDeadline);
  ASSERT_TRUE(b.NextBatch(&batch));
  EXPECT_EQ(batch.family, late);
  EXPECT_EQ(batch.reason, FlushReason::kDeadline);
  ASSERT_TRUE(b.NextBatch(&batch));
  EXPECT_EQ(batch.family, hot);
  EXPECT_EQ(batch.reason, FlushReason::kSize);
}

TEST(RequestBatcherTest, DeadlineRespectsEachFamilysDelay) {
  // Family `slow` has a long delay, family `fast` a short one; a row in
  // each: the fast family's deadline must release first.
  RequestBatcher b;
  const FamilyId slow =
      b.AddQueue(BatchOpts(1000, std::chrono::milliseconds(250)));
  const FamilyId fast =
      b.AddQueue(BatchOpts(1000, std::chrono::milliseconds(5)));
  MustSubmit(b, slow, 1.0);
  MustSubmit(b, fast, 2.0);
  Batch batch;
  ASSERT_TRUE(b.NextBatch(&batch));
  EXPECT_EQ(batch.family, fast);
  EXPECT_EQ(batch.reason, FlushReason::kDeadline);
}

// --- serving engine -------------------------------------------------------

// A row view over dataset row i, copied into the Submit format.
void RowOf(const data::Dataset& d, Index i, std::vector<Index>* idx,
           std::vector<double>* vals) {
  const auto row = d.a.Row(i);
  idx->assign(row.indices, row.indices + row.nnz);
  vals->assign(row.values, row.values + row.nnz);
}

data::Dataset ServeDataset(Index rows, Index cols, uint64_t seed) {
  data::Dataset d;
  d.name = "serve";
  d.a = data::MakeDenseTable({.rows = rows, .cols = cols,
                              .feature_correlation = 0.2, .seed = seed});
  d.b = data::PlantClassificationLabels(d.a, cols, 0.0, seed + 1);
  return d;
}

TEST(ServingEngineTest, StartRequiresRegisteredPublishedFamilies) {
  models::LogisticSpec lr;
  ServingOptions opts;
  opts.topology = numa::Local2();
  ServingEngine server(opts);
  // Nothing registered.
  EXPECT_EQ(server.Start().code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(server.Score("lr", {0}, {1.0}).status().code(),
            Status::Code::kNotFound);
  // Registered but unpublished.
  ASSERT_TRUE(server
                  .RegisterFamily("lr", &lr,
                                  ServePinned(24, Replication::kPerNode))
                  .ok());
  EXPECT_EQ(server.Start().code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(server.Score("lr", {0}, {1.0}).status().code(),
            Status::Code::kFailedPrecondition);
}

TEST(ServingEngineTest, RegisterFamilyValidatesInput) {
  models::LogisticSpec lr;
  ServingOptions opts;
  opts.topology = numa::Local2();
  ServingEngine server(opts);
  EXPECT_EQ(server.RegisterFamily("lr", nullptr,
                                  ServePinned(8, Replication::kPerNode))
                .code(),
            Status::Code::kInvalidArgument);
  ServingFamilyOptions no_dim;
  EXPECT_EQ(server.RegisterFamily("lr", &lr, no_dim).code(),
            Status::Code::kInvalidArgument);
  ASSERT_TRUE(
      server.RegisterFamily("lr", &lr, ServePinned(8, Replication::kPerNode))
          .ok());
  // Duplicate name.
  EXPECT_EQ(server
                .RegisterFamily("lr", &lr,
                                ServePinned(8, Replication::kPerNode))
                .code(),
            Status::Code::kInvalidArgument);
}

TEST(ServingEngineTest, ConcurrentRegistrationIsSafe) {
  // Registration is rare but may race (e.g. two services booting): the
  // COW family table must stay consistent, and exactly one registration
  // of each name is accepted.
  models::LogisticSpec lr;
  ServingOptions opts;
  opts.topology = numa::Local2();
  ServingEngine server(opts);
  std::vector<std::thread> threads;
  std::atomic<int> accepted{0};
  std::atomic<int> duplicates{0};
  std::atomic<int> found{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 32; ++i) {
        const std::string name = "fam-" + std::to_string(i % 8);
        const Status st = server.RegisterFamily(
            name, &lr, ServePinned(16, Replication::kPerNode));
        if (st.ok()) accepted.fetch_add(1);
        if (st.code() == Status::Code::kInvalidArgument) {
          duplicates.fetch_add(1);
        }
        if (server.FindFamily(name) != nullptr) found.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(accepted.load(), 8);
  EXPECT_EQ(duplicates.load(), 4 * 32 - 8);
  EXPECT_EQ(found.load(), 4 * 32);
  EXPECT_EQ(server.num_families(), 8);
}

TEST(ServingEngineTest, ServedScoresMatchSingleThreadedReference) {
  // Multi-threaded smoke test: every score served by the pool must equal
  // the single-threaded ModelSpec::Predict of the same row.
  const data::Dataset d = ServeDataset(400, 24, 91);
  models::LogisticSpec lr;
  Rng rng(7);
  std::vector<double> weights(24);
  for (auto& w : weights) w = rng.Gaussian(0.0, 0.5);

  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.batch.max_batch_size = 32;
  opts.batch.max_delay = std::chrono::microseconds(200);
  ServingEngine server(opts);
  ASSERT_TRUE(
      server.RegisterFamily("lr", &lr, ServePinned(24, Replication::kPerNode))
          .ok());
  server.Publish("lr", weights);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::future<double>> futures(d.a.rows());
  std::vector<std::thread> producers;
  const int kProducers = 4;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<Index> idx;
      std::vector<double> vals;
      for (Index i = p; i < d.a.rows(); i += kProducers) {
        RowOf(d, i, &idx, &vals);
        auto fut = server.Score("lr", idx, vals);
        ASSERT_TRUE(fut.ok()) << fut.status().ToString();
        futures[i] = std::move(fut).value();
      }
    });
  }
  for (auto& t : producers) t.join();

  for (Index i = 0; i < d.a.rows(); ++i) {
    const double served = futures[i].get();
    const double reference = lr.Predict(weights.data(), d.a.Row(i));
    // These dense identity-indexed rows take the tiled batched kernel,
    // which reassociates the dot -- within-epsilon, not bitwise.
    EXPECT_NEAR(served, reference, 1e-12) << "row " << i;
    EXPECT_GE(served, 0.0);
    EXPECT_LE(served, 1.0);
  }

  server.Stop();
  const obs::RegistrySnapshot snap = server.telemetry().Snapshot();
  const obs::Labels lr_family = {{"family", "lr"}};
  const uint64_t batches = snap.CounterValue("serve.batches", lr_family);
  EXPECT_EQ(snap.CounterValue("serve.rows", lr_family),
            static_cast<uint64_t>(d.a.rows()));
  EXPECT_GT(batches, 0u);
  const obs::HistogramSnapshot& latency =
      snap.HistogramValue("serve.latency_ms", lr_family);
  EXPECT_GE(latency.Percentile(99.0), latency.Percentile(50.0));
  EXPECT_GT(latency.Percentile(50.0), 0.0);
  // PerNode routing never crosses the interconnect.
  EXPECT_EQ(snap.CounterValue("serve.remote_replica_batches", lr_family), 0u);
  const numa::AccessCounters traffic = server.SimInput().traffic.Total();
  EXPECT_EQ(traffic.remote_read_bytes, 0u);
  EXPECT_EQ(traffic.updates, static_cast<uint64_t>(d.a.rows()));
  EXPECT_EQ(snap.CounterValue("queue.accepted", lr_family),
            static_cast<uint64_t>(d.a.rows()));
  EXPECT_DOUBLE_EQ(snap.GaugeValue("queue.depth", lr_family), 0.0);
  const ServingStats stats = server.Stats();
  ASSERT_EQ(stats.families.size(), 1u);
  const FamilyServingStats& fam = stats.families[0];
  EXPECT_EQ(fam.family, "lr");
  EXPECT_EQ(fam.rejected, 0u);
  EXPECT_EQ(fam.flush_size + fam.flush_deadline + fam.flush_drain, batches);
  EXPECT_EQ(server.FindFamily("lr")->current_version(), 1u);
}

TEST(ServingEngineTest, TwoFamiliesServeIndependently) {
  // The tentpole end-to-end: a wide read-heavy LR and a narrow
  // republish-dominated SVM registered on one engine, replication chosen
  // per family by the cost model, scored concurrently, accounted apart.
  const Index wide_dim = 512;
  const Index narrow_dim = 8;
  models::LogisticSpec lr;
  models::SvmSpec svm;
  Rng rng(11);
  std::vector<double> wide_w(wide_dim);
  for (auto& w : wide_w) w = rng.Gaussian(0.0, 0.3);
  std::vector<double> narrow_w(narrow_dim, 0.5);

  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.batch.max_batch_size = 16;
  opts.batch.max_delay = std::chrono::microseconds(150);
  ServingEngine server(opts);
  // The wide estimate mirrors the engine's real batch width (16): on two
  // sockets a much wider batch would be compute-bound, and the chooser
  // would (rightly) call replication pointless.
  ASSERT_TRUE(server
                  .RegisterFamily("wide-lr", &lr,
                                  ServeAuto(wide_dim, /*reads_per_publish=*/4096,
                                            /*batch_rows=*/16))
                  .ok());
  ASSERT_TRUE(server
                  .RegisterFamily("narrow-svm", &svm,
                                  ServeAuto(narrow_dim, /*reads_per_publish=*/0))
                  .ok());
  server.Publish("wide-lr", wide_w);
  server.Publish("narrow-svm", narrow_w);
  ASSERT_TRUE(server.Start().ok());

  // The cost model chose independently: read-heavy wide family is
  // replicated, republish-dominated narrow family keeps one copy.
  EXPECT_EQ(server.FindFamily("wide-lr")->replication(), Replication::kPerNode);
  EXPECT_EQ(server.FindFamily("narrow-svm")->replication(),
            Replication::kPerMachine);

  const data::Dataset d = ServeDataset(200, wide_dim, 17);
  constexpr int kNarrowRows = 300;
  std::thread narrow_producer([&] {
    for (int i = 0; i < kNarrowRows; ++i) {
      auto s = server.ScoreSync("narrow-svm",
                                {static_cast<Index>(i % narrow_dim)}, {2.0});
      ASSERT_TRUE(s.ok());
      EXPECT_DOUBLE_EQ(s.value(), 1.0);  // 2.0 * 0.5
    }
  });
  std::vector<Index> idx;
  std::vector<double> vals;
  for (Index i = 0; i < d.a.rows(); ++i) {
    RowOf(d, i, &idx, &vals);
    auto s = server.ScoreSync("wide-lr", idx, vals);
    ASSERT_TRUE(s.ok());
    EXPECT_NEAR(s.value(), lr.Predict(wide_w.data(), d.a.Row(i)), 1e-12);
  }
  narrow_producer.join();
  server.Stop();

  const ServingStats stats = server.Stats();
  ASSERT_EQ(stats.families.size(), 2u);
  EXPECT_EQ(stats.families[0].family, "wide-lr");
  EXPECT_EQ(stats.families[1].family, "narrow-svm");
  EXPECT_EQ(server.FindFamily("wide-lr")->replication(), Replication::kPerNode);
  EXPECT_EQ(server.FindFamily("narrow-svm")->replication(),
            Replication::kPerMachine);
  const obs::RegistrySnapshot snap = server.telemetry().Snapshot();
  const obs::Labels wide = {{"family", "wide-lr"}};
  EXPECT_EQ(snap.CounterValue("serve.rows", wide),
            static_cast<uint64_t>(d.a.rows()));
  EXPECT_EQ(snap.CounterValue("serve.rows", {{"family", "narrow-svm"}}),
            static_cast<uint64_t>(kNarrowRows));
  // Rows scored across both families: the per-node numa.updates totals.
  EXPECT_EQ(server.SimInput().traffic.Total().updates,
            static_cast<uint64_t>(d.a.rows()) + kNarrowRows);
  // A PerNode family never crosses the interconnect.
  EXPECT_EQ(snap.CounterValue("serve.remote_replica_batches", wide), 0u);
}

TEST(ServingEngineTest, PerMachineRoutingCrossesTheInterconnect) {
  models::LeastSquaresSpec ls;
  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.num_threads = 2;  // one worker per node (round-robin assignment)
  opts.batch.max_batch_size = 8;
  opts.batch.max_delay = std::chrono::microseconds(100);
  ServingEngine server(opts);
  ASSERT_TRUE(server
                  .RegisterFamily("ls", &ls,
                                  ServePinned(8, Replication::kPerMachine))
                  .ok());
  server.Publish("ls", ConstantWeights(8, 0.5));
  ASSERT_TRUE(server.Start().ok());

  for (int i = 0; i < 256; ++i) {
    auto fut = server.Score("ls", {static_cast<Index>(i % 8)}, {2.0});
    ASSERT_TRUE(fut.ok());
    EXPECT_DOUBLE_EQ(std::move(fut).value().get(), 1.0);
  }
  server.Stop();

  const obs::RegistrySnapshot snap = server.telemetry().Snapshot();
  const obs::Labels ls_family = {{"family", "ls"}};
  EXPECT_EQ(snap.CounterValue("serve.rows", ls_family), 256u);
  // The node-1 worker reads the node-0 replica: remote traffic appears
  // whenever it served at least one batch (scheduling-dependent, so only
  // the consistency of the counters is asserted).
  EXPECT_EQ(snap.CounterValue("serve.local_replica_batches", ls_family) +
                snap.CounterValue("serve.remote_replica_batches", ls_family),
            snap.CounterValue("serve.batches", ls_family));
  const numa::SimulationInput sim = server.SimInput();
  EXPECT_EQ(sim.model_sharing_sockets, 2);
  EXPECT_EQ(sim.traffic.Total().remote_read_bytes,
            snap.CounterValue("numa.remote_read_bytes", {{"node", "0"}}) +
                snap.CounterValue("numa.remote_read_bytes", {{"node", "1"}}));
}

/// The memory-model input for a run's total traffic under BALANCED
/// routing: every active node serves an equal share of the rows. Which
/// worker happens to drain the queue is scheduling noise on a small host;
/// a production load balancer -- like the trainer's per-epoch partitioning
/// -- hands each node an equal share, and that is the regime the
/// Fig. 8-style comparison is about. Under kPerMachine the canonical share
/// of model reads from nodes other than the replica's crosses the
/// interconnect.
numa::SimulationInput BalancedSimInput(const numa::AccessCounters& t,
                                       const numa::Topology& topo,
                                       Replication rep, int threads,
                                       uint64_t model_bytes) {
  const int nodes_used = std::min(threads, topo.num_nodes);
  numa::SimulationInput in(topo.num_nodes);
  const uint64_t model_total = t.model_read_bytes + t.remote_read_bytes;
  for (int n = 0; n < nodes_used; ++n) {
    numa::AccessCounters c;
    c.local_read_bytes = t.local_read_bytes / nodes_used;
    c.flops = t.flops / nodes_used;
    c.updates = t.updates / nodes_used;
    if (rep == Replication::kPerNode || n == 0) {
      c.model_read_bytes = model_total / nodes_used;
    } else {
      c.remote_read_bytes = model_total / nodes_used;
    }
    in.traffic.per_node[n] = c;
    in.active_workers[n] = std::max(1, threads / nodes_used);
  }
  in.model_sharing_sockets = rep == Replication::kPerMachine ? nodes_used : 1;
  in.model_bytes = model_bytes;
  return in;
}

/// Memory-model rows/s for `total_rows` carried rows of `d` (cycling)
/// scored on every core of `topo` under `rep`. Scalar scoring on purpose:
/// the Fig. 8 analogue is about what model REPLICATION costs when every row
/// re-reads the replica; batched scoring streams each replica tile once
/// per batch, which collapses most of the gap. Every counter the model
/// reads is a per-row byte count, so the result is deterministic.
double ModelRowsPerSec(const data::Dataset& d, const numa::Topology& topo,
                       Replication rep, int total_rows) {
  models::LogisticSpec lr;
  const Index dim = d.a.cols();
  ServingOptions opts;
  opts.topology = topo;
  opts.num_threads = topo.total_cores();
  opts.batch.max_batch_size = 64;
  opts.batch.max_delay = std::chrono::microseconds(200);
  opts.scoring = ScoringMode::kScalar;
  ServingEngine server(opts);
  EXPECT_TRUE(server.RegisterFamily("lr", &lr, ServePinned(dim, rep)).ok());
  server.Publish("lr", ConstantWeights(dim, 0.01));
  EXPECT_TRUE(server.Start().ok());

  std::vector<std::future<double>> futures;
  futures.reserve(total_rows);
  for (int r = 0; r < total_rows; ++r) {
    const auto row = d.a.Row(static_cast<Index>(r % d.a.rows()));
    for (;;) {
      auto fut = server.Score(
          "lr", std::vector<Index>(row.indices, row.indices + row.nnz),
          std::vector<double>(row.values, row.values + row.nnz));
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
                                                        {{"family", "lr"}}),
            static_cast<uint64_t>(total_rows));
  const double sim_sec =
      numa::MemoryModel(topo)
          .SimulateEpoch(BalancedSimInput(server.SimInput().traffic.Total(),
                                          topo, rep,
                                          topo.total_cores(),
                                          dim * sizeof(double)))
          .total_sec;
  return sim_sec > 0.0 ? total_rows / sim_sec : 0.0;
}

TEST(ServingEngineTest, PerNodeModelsAtLeastPerMachineThroughput) {
  // Fig. 8 for serving: with readers on both sockets, a replica per node
  // must model at least the throughput of one shared replica.
  const data::Dataset d = data::Rcv1(0.004);
  const numa::Topology topo = numa::Local2();
  for (const int rows : {4000, 2000}) {
    const double per_node =
        ModelRowsPerSec(d, topo, Replication::kPerNode, rows);
    const double per_machine =
        ModelRowsPerSec(d, topo, Replication::kPerMachine, rows);
    EXPECT_GE(per_node, per_machine) << rows << " requests";
    EXPECT_GT(per_machine, 0.0);
  }
}

TEST(ServingEngineTest, HotSwapWhileServingNeverMixesVersions) {
  // Weights are all-1.0 (v1) then all-2.0 (v2); a row of k ones must score
  // exactly k or 2k -- any other value means a batch saw a mix.
  models::LeastSquaresSpec ls;
  const size_t dim = 64;
  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.batch.max_batch_size = 16;
  opts.batch.max_delay = std::chrono::microseconds(100);
  ServingEngine server(opts);
  ASSERT_TRUE(
      server.RegisterFamily("m", &ls, ServePinned(dim, Replication::kPerNode))
          .ok());
  server.Publish("m", ConstantWeights(dim, 1.0));
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (int v = 0; v < 40 && !stop.load(); ++v) {
      server.Publish("m", ConstantWeights(dim, (v % 2 == 0) ? 2.0 : 1.0));
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  std::vector<Index> idx(dim);
  std::vector<double> vals(dim, 1.0);
  for (size_t k = 0; k < dim; ++k) idx[k] = static_cast<Index>(k);
  const double k = static_cast<double>(dim);
  for (int i = 0; i < 600; ++i) {
    auto score = server.ScoreSync("m", idx, vals);
    ASSERT_TRUE(score.ok());
    const double s = score.value();
    EXPECT_TRUE(s == k || s == 2.0 * k) << "mixed-version score " << s;
  }
  stop.store(true);
  publisher.join();
  server.Stop();
  // Batches that scored against a just-replaced snapshot show up as
  // versions-behind staleness, never as mixed weights -- and the count
  // is bounded by the number of publishes (40 + the initial one), so an
  // accounting underflow (2^64-ish values) fails loudly here.
  const obs::HistogramSnapshot behind =
      server.telemetry().Snapshot().HistogramValue("serve.versions_behind",
                                                   {{"family", "m"}});
  EXPECT_LE(behind.max, 41.0);
  EXPECT_LE(behind.Mean(), 41.0);
}

TEST(ServingEngineTest, RejectsOutOfRangeFeatureIndex) {
  models::LogisticSpec lr;
  ServingOptions opts;
  opts.topology = numa::Local2();
  ServingEngine server(opts);
  ASSERT_TRUE(
      server.RegisterFamily("lr", &lr, ServePinned(24, Replication::kPerNode))
          .ok());
  server.Publish("lr", ConstantWeights(24, 0.1));
  // Untrusted request input must never index past the replica.
  EXPECT_EQ(server.Score("lr", {24}, {1.0}).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(server.Score("lr", {1000}, {1.0}).status().code(),
            Status::Code::kInvalidArgument);
  // A valid row is still refused until workers exist to resolve it.
  EXPECT_EQ(server.Score("lr", {23}, {1.0}).status().code(),
            Status::Code::kFailedPrecondition);
  ASSERT_TRUE(server.Start().ok());
  auto ok = server.ScoreSync("lr", {23}, {1.0});
  EXPECT_TRUE(ok.ok());
  server.Stop();
}

TEST(ServingEngineTest, BothRequestFormsReportSameAdmissionCodes) {
  // Admission parity, engine side: for every admission failure the row-id
  // (Score(family, row_id)) and key (ScoreKey(family, key)) forms must
  // report the SAME Status code as the analogous carried failure, checked
  // in the same order.
  models::LeastSquaresSpec ls;
  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.num_threads = 1;
  ServingFamilyOptions fam = ServePinned(8, Replication::kPerNode);
  RequestBatcher::Options q;
  q.max_batch_size = 4;
  q.max_delay = std::chrono::microseconds(50);
  q.max_queue_rows = 1;
  fam.batch = q;
  ServingEngine server(opts);
  ASSERT_TRUE(server.RegisterFamily("ls", &ls, fam).ok());

  // One admission attempt per form, as {carried, row id, key}: `feature`
  // is the carried row's one index, `row` the row id and the key.
  using Codes = std::array<Status::Code, 3>;
  const auto codes = [&server](const std::string& family, Index feature,
                               Index row) {
    return Codes{server.Score(family, {feature}, {1.0}).status().code(),
                 server.Score(family, row).status().code(),
                 server.ScoreKey(family, row).status().code()};
  };
  const auto key_misses = [&server] {
    return server.telemetry().Snapshot().CounterValue("store.key_misses",
                                                      {{"family", "ls"}});
  };
  constexpr auto kNotFound = Status::Code::kNotFound;
  constexpr auto kInvalid = Status::Code::kInvalidArgument;
  constexpr auto kPrecondition = Status::Code::kFailedPrecondition;
  const Codes all_precondition = {kPrecondition, kPrecondition,
                                  kPrecondition};

  EXPECT_EQ(codes("nope", 0, 0), (Codes{kNotFound, kNotFound, kNotFound}));
  // Unpublished model; the keyed forms also lack a store.
  EXPECT_EQ(codes("ls", 0, 0), all_precondition);
  server.Publish("ls", ConstantWeights(8, 0.5));
  // Published model, no store: the keyed forms cannot be served.
  EXPECT_EQ(codes("ls", 0, 0), all_precondition);
  ASSERT_TRUE(server.RegisterStore("ls", 16, 8).ok());
  // Registered but unpublished table. A row id is range-checked BEFORE
  // the table version, a key is looked up only AFTER it: an unpublished
  // table is no key miss.
  EXPECT_EQ(codes("ls", 0, 0), all_precondition);
  EXPECT_EQ(codes("ls", 8, 16), (Codes{kInvalid, kInvalid, kPrecondition}));
  EXPECT_EQ(key_misses(), 0u);
  server.PublishStore("ls", std::vector<double>(16 * 8, 1.0));
  // Out of range: a feature index past the model dim and a row id past
  // the store bound are the same trust-boundary breach -- one code. A key
  // the index does not hold is NotFound, counted as a key miss.
  EXPECT_EQ(codes("ls", 8, 16), (Codes{kInvalid, kInvalid, kNotFound}));
  EXPECT_EQ(key_misses(), 1u);
  // Valid but not started: FailedPrecondition in every form.
  EXPECT_EQ(codes("ls", 0, 0), all_precondition);

  ASSERT_TRUE(server.Start().ok());
  auto carried = server.ScoreSync("ls", {3}, {1.0});
  auto by_row = server.ScoreSync("ls", 3);
  auto by_key = server.ScoreKeySync("ls", 3);
  ASSERT_TRUE(carried.ok());
  ASSERT_TRUE(by_row.ok());
  ASSERT_TRUE(by_key.ok());
  EXPECT_DOUBLE_EQ(carried.value(), 0.5);
  EXPECT_DOUBLE_EQ(by_row.value(), 4.0);
  EXPECT_DOUBLE_EQ(by_key.value(), 4.0);

  // Back-pressure under a live flood: every refusal of every form is
  // kResourceExhausted (the one-row queue makes refusals certain).
  std::array<uint64_t, 3> rejected{};
  std::vector<std::future<double>> futures;
  for (int i = 0; i < 600; ++i) {
    const Index row = static_cast<Index>(i % 16);
    StatusOr<std::future<double>> fut =
        i % 3 == 0   ? server.Score("ls", {0}, {1.0})
        : i % 3 == 1 ? server.Score("ls", row)
                     : server.ScoreKey("ls", row);
    if (fut.ok()) {
      futures.push_back(std::move(fut).value());
    } else {
      EXPECT_EQ(fut.status().code(), Status::Code::kResourceExhausted)
          << ToString(kAllKinds[i % 3]) << " form";
      ++rejected[i % 3];
    }
  }
  for (auto& f : futures) f.get();
  server.Stop();
  for (int k = 0; k < 3; ++k) {
    EXPECT_GT(rejected[k], 0u) << ToString(kAllKinds[k]) << " form";
  }
  const ServingStats stats = server.Stats();
  ASSERT_EQ(stats.families.size(), 1u);
  EXPECT_EQ(stats.families[0].rejected,
            rejected[0] + rejected[1] + rejected[2]);
  // A stopped engine refuses every form alike.
  EXPECT_EQ(codes("ls", 0, 0), all_precondition);
}

TEST(ServingEngineTest, SpansRecordEachRequestKind) {
  models::LeastSquaresSpec ls;
  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.trace_sample_every = 1;
  ServingEngine server(opts);
  ASSERT_TRUE(
      server.RegisterFamily("ls", &ls, ServePinned(8, Replication::kPerNode))
          .ok());
  ASSERT_TRUE(server.RegisterStore("ls", 4, 8).ok());
  server.Publish("ls", ConstantWeights(8, 0.5));
  server.PublishStore("ls", std::vector<double>(4 * 8, 1.0));
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.ScoreSync("ls", {0}, {1.0}).ok());
  ASSERT_TRUE(server.ScoreSync("ls", 1).ok());
  ASSERT_TRUE(server.ScoreKeySync("ls", 2).ok());
  server.Stop();  // joins the workers, so every span is recorded
  std::set<std::string> kinds;
  for (const obs::SpanRecord& rec : server.spans().Snapshot()) {
    kinds.insert(rec.kind);
  }
  EXPECT_EQ(kinds, (std::set<std::string>{"carried", "key", "row_id"}));
}

TEST(ServingEngineTest, DenseRequestsScoreValidateAndDensify) {
  models::LeastSquaresSpec ls;
  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.batch.max_batch_size = 4;
  opts.batch.max_delay = std::chrono::microseconds(100);
  ServingEngine server(opts);
  ASSERT_TRUE(
      server.RegisterFamily("ls", &ls, ServePinned(16, Replication::kPerNode))
          .ok());
  server.Publish("ls", ConstantWeights(16, 0.5));
  ASSERT_TRUE(server.Start().ok());

  // Explicit dense form: empty indices, value k at coordinate k. A row
  // shorter than the model is an identity prefix.
  auto dense = server.ScoreSync("ls", {}, {1.0, 1.0, 1.0, 1.0});
  ASSERT_TRUE(dense.ok());
  EXPECT_DOUBLE_EQ(dense.value(), 2.0);
  // Wider than the model: rejected at admission.
  EXPECT_EQ(
      server.Score("ls", {}, std::vector<double>(17, 1.0)).status().code(),
      Status::Code::kInvalidArgument);
  // An identity-indexed request is rewritten to the dense form during the
  // admission scan and must score identically.
  auto densified = server.ScoreSync("ls", {0, 1, 2}, {2.0, 2.0, 2.0});
  ASSERT_TRUE(densified.ok());
  EXPECT_DOUBLE_EQ(densified.value(), 3.0);
  // Non-identity sparse requests still take the gather path.
  auto sparse = server.ScoreSync("ls", {3, 15}, {4.0, 4.0});
  ASSERT_TRUE(sparse.ok());
  EXPECT_DOUBLE_EQ(sparse.value(), 4.0);
  server.Stop();
}

TEST(ServingEngineTest, StoppedEngineCannotRestartOrRegister) {
  models::SvmSpec svm;
  ServingOptions opts;
  opts.topology = numa::Local2();
  ServingEngine server(opts);
  ASSERT_TRUE(
      server.RegisterFamily("svm", &svm, ServePinned(4, Replication::kPerNode))
          .ok());
  server.Publish("svm", ConstantWeights(4, 1.0));
  ASSERT_TRUE(server.Start().ok());
  // The family set is frozen while serving.
  EXPECT_EQ(server
                .RegisterFamily("late", &svm,
                                ServePinned(4, Replication::kPerNode))
                .code(),
            Status::Code::kFailedPrecondition);
  server.Stop();
  // The batcher's shutdown is final; a second Start must refuse rather
  // than hand back a pool whose workers exit immediately.
  EXPECT_EQ(server.Start().code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(server
                .RegisterFamily("late", &svm,
                                ServePinned(4, Replication::kPerNode))
                .code(),
            Status::Code::kFailedPrecondition);
}

TEST(ServingEngineTest, ScalarAndBatchedModesAgreeWithinEpsilon) {
  // The sparse batched kernel preserves accumulation order (bitwise); the
  // dense kernel reassociates across accumulator lanes, so the two modes
  // must agree to reassociation epsilon on these dense requests.
  const data::Dataset d = ServeDataset(200, 48, 131);
  models::LogisticSpec lr;
  Rng rng(5);
  std::vector<double> weights(48);
  for (auto& w : weights) w = rng.Gaussian(0.0, 0.7);

  std::vector<std::vector<double>> results;
  for (const ScoringMode mode : {ScoringMode::kScalar, ScoringMode::kBatched}) {
    ServingOptions opts;
    opts.topology = numa::Local2();
    opts.scoring = mode;
    opts.batch.max_batch_size = 16;
    opts.batch.max_delay = std::chrono::microseconds(100);
    ServingEngine server(opts);
    ASSERT_TRUE(server
                    .RegisterFamily("lr", &lr,
                                    ServePinned(48, Replication::kPerNode))
                    .ok());
    server.Publish("lr", weights);
    ASSERT_TRUE(server.Start().ok());
    std::vector<double> scores;
    std::vector<Index> idx;
    std::vector<double> vals;
    for (Index i = 0; i < d.a.rows(); ++i) {
      RowOf(d, i, &idx, &vals);
      auto s = server.ScoreSync("lr", idx, vals);
      ASSERT_TRUE(s.ok());
      scores.push_back(s.value());
    }
    server.Stop();
    results.push_back(std::move(scores));
  }
  for (size_t i = 0; i < results[0].size(); ++i) {
    EXPECT_NEAR(results[0][i], results[1][i], 1e-12) << "row " << i;
  }
}

TEST(ServingEngineTest, BatchedServingOfWideModelCrossesColumnBlocks) {
  // A model wider than one kernel tile: batched serving must still equal
  // the scalar reference (end-to-end check of the blocked serving path).
  const Index dim = kernels::Tuning().block_cols + 333;
  models::LeastSquaresSpec ls;
  Rng rng(77);
  std::vector<double> weights(dim);
  for (auto& w : weights) w = rng.Gaussian(0.0, 0.3);

  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.batch.max_batch_size = 8;
  opts.batch.max_delay = std::chrono::microseconds(100);
  ServingEngine server(opts);
  ASSERT_TRUE(
      server.RegisterFamily("ls", &ls, ServePinned(dim, Replication::kPerNode))
          .ok());
  server.Publish("ls", weights);
  ASSERT_TRUE(server.Start().ok());

  Rng row_rng(78);
  for (int r = 0; r < 64; ++r) {
    // A sorted sparse row spanning the full width.
    std::vector<Index> idx;
    std::vector<double> vals;
    for (Index j = static_cast<Index>(row_rng.Below(200)); j < dim;
         j += 150 + static_cast<Index>(row_rng.Below(200))) {
      idx.push_back(j);
      vals.push_back(row_rng.Gaussian(0.0, 1.0));
    }
    const matrix::SparseVectorView view{idx.data(), vals.data(), idx.size()};
    const double reference = ls.Predict(weights.data(), view);
    auto served = server.ScoreSync("ls", idx, vals);
    ASSERT_TRUE(served.ok());
    EXPECT_DOUBLE_EQ(served.value(), reference) << "row " << r;
  }
  server.Stop();
  const obs::RegistrySnapshot snap = server.telemetry().Snapshot();
  EXPECT_EQ(snap.CounterValue("serve.rows", {{"family", "ls"}}), 64u);
  const obs::HistogramSnapshot& latency =
      snap.HistogramValue("serve.latency_ms", {{"family", "ls"}});
  EXPECT_GE(latency.max, latency.Percentile(99.0));
}

TEST(ServingEngineTest, StopDrainsAcceptedRequests) {
  models::SvmSpec svm;
  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.batch.max_batch_size = 64;
  opts.batch.max_delay = std::chrono::seconds(10);  // only drain can flush
  ServingEngine server(opts);
  ASSERT_TRUE(
      server.RegisterFamily("svm", &svm, ServePinned(4, Replication::kPerNode))
          .ok());
  server.Publish("svm", ConstantWeights(4, 1.0));
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::future<double>> futures;
  for (int i = 0; i < 10; ++i) {
    auto fut = server.Score("svm", {0, 2}, {1.0, 1.0});
    ASSERT_TRUE(fut.ok());
    futures.push_back(std::move(fut).value());
  }
  server.Stop();  // must flush the never-full batch
  for (auto& f : futures) {
    EXPECT_DOUBLE_EQ(f.get(), 2.0);
  }
  const ServingStats stats = server.Stats();
  ASSERT_EQ(stats.families.size(), 1u);
  EXPECT_EQ(stats.families[0].flush_drain, 1u);
}

TEST(ServingEngineTest, AdmissionCountersSurfaceBackpressure) {
  // A one-row queue under burst load: rejects must be counted per family
  // and the accepted/rejected split must reconcile with scored rows.
  models::SvmSpec svm;
  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.num_threads = 1;
  ServingFamilyOptions fam = ServePinned(4, Replication::kPerNode);
  RequestBatcher::Options q;
  q.max_batch_size = 4;
  q.max_delay = std::chrono::microseconds(50);
  q.max_queue_rows = 1;
  fam.batch = q;
  ServingEngine server(opts);
  ASSERT_TRUE(server.RegisterFamily("svm", &svm, fam).ok());
  server.Publish("svm", ConstantWeights(4, 1.0));
  ASSERT_TRUE(server.Start().ok());

  uint64_t accepted = 0;
  uint64_t rejected = 0;
  std::vector<std::future<double>> futures;
  for (int i = 0; i < 400; ++i) {
    auto fut = server.Score("svm", {0}, {1.0});
    if (fut.ok()) {
      futures.push_back(std::move(fut).value());
      ++accepted;
    } else {
      ASSERT_EQ(fut.status().code(), Status::Code::kResourceExhausted);
      ++rejected;
    }
  }
  for (auto& f : futures) f.get();
  server.Stop();

  const ServingStats stats = server.Stats();
  ASSERT_EQ(stats.families.size(), 1u);
  const FamilyServingStats& f = stats.families[0];
  const obs::RegistrySnapshot snap = server.telemetry().Snapshot();
  const obs::Labels svm_family = {{"family", "svm"}};
  EXPECT_EQ(snap.CounterValue("queue.accepted", svm_family), accepted);
  EXPECT_EQ(f.rejected, rejected);
  EXPECT_EQ(snap.CounterValue("serve.rows", svm_family), accepted);
  EXPECT_DOUBLE_EQ(snap.GaugeValue("queue.depth", svm_family), 0.0);
  EXPECT_EQ(f.flush_size + f.flush_deadline + f.flush_drain,
            snap.CounterValue("serve.batches", svm_family));
  EXPECT_GT(accepted, 0u);
}

TEST(ServingEngineTest, StalenessReflectsExportAge) {
  // A snapshot whose export timestamp lies 80ms in the past must surface
  // >= 80ms of staleness on every batch scored against it.
  models::LeastSquaresSpec ls;
  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.batch.max_batch_size = 4;
  opts.batch.max_delay = std::chrono::microseconds(100);
  ServingEngine server(opts);
  ASSERT_TRUE(
      server.RegisterFamily("ls", &ls, ServePinned(8, Replication::kPerNode))
          .ok());
  engine::ModelExport exported;
  exported.spec_name = "ls";
  exported.weights = ConstantWeights(8, 1.0);
  exported.exported_at =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(80);
  server.Publish("ls", exported);
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(server.ScoreSync("ls", {0}, {1.0}).ok());
  }
  server.Stop();
  const obs::RegistrySnapshot snap = server.telemetry().Snapshot();
  const obs::HistogramSnapshot& staleness =
      snap.HistogramValue("serve.staleness_ms", {{"family", "ls"}});
  EXPECT_GE(staleness.Mean(), 80.0);
  EXPECT_GE(staleness.max, staleness.Mean());
  EXPECT_EQ(snap.HistogramValue("serve.versions_behind", {{"family", "ls"}}).max,
            0.0);
}

TEST(ServingEngineTest, StatsFieldsEqualTheRegistryMetricsTheyReport) {
  // A benchmark report reads the ten FamilyServingStats numbers, a
  // scraper reads the registry: they must be the same numbers. "mix"
  // serves carried, row-id and key traffic from a sharded store; "held"
  // keeps its rows until Stop() drains them, under a 1 us delay budget
  // and a one-client roster, so it refuses on both grounds.
  models::LeastSquaresSpec ls;
  constexpr Index kDim = 8;
  constexpr Index kRows = 16;
  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.num_threads = 2;  // one worker per node
  opts.batch.max_batch_size = 4;
  opts.batch.max_delay = std::chrono::microseconds(100);
  ServingEngine server(opts);
  ASSERT_TRUE(
      server.RegisterFamily("mix", &ls, ServePinned(kDim, Replication::kPerNode))
          .ok());
  StoreOptions sopts;
  sopts.placement_override = StorePlacement::kSharded;
  ASSERT_TRUE(server.RegisterStore("mix", kRows, kDim, sopts).ok());
  ServingFamilyOptions held = ServePinned(1 << 16, Replication::kPerNode);
  held.batch = opts.batch;
  held.batch->max_batch_size = 64;
  held.batch->max_delay = std::chrono::seconds(10);
  held.batch->queue_delay_budget = std::chrono::microseconds(1);
  held.batch->max_clients = 1;
  ASSERT_TRUE(server.RegisterFamily("held", &ls, held).ok());
  // The premise of the over-budget refusal: one queued row costs more.
  ASSERT_GT(server.admission().EstimatedDrainSeconds(1, 1), 1e-6);
  server.Publish("mix", ConstantWeights(kDim, 1.0));
  server.Publish("held", ConstantWeights(1 << 16, 1.0));
  server.PublishStore("mix", std::vector<double>(kRows * kDim, 1.0));
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::future<double>> carried;
  for (int i = 0; i < 32; ++i) {
    carried.push_back(server.Score("mix", {Index(i % kDim)}, {1.0}).value());
  }
  for (Index r = 0; r < kRows; ++r) {
    EXPECT_DOUBLE_EQ(server.ScoreSync("mix", r).value(), 8.0);
    EXPECT_DOUBLE_EQ(server.ScoreKeySync("mix", uint64_t{r}).value(), 8.0);
  }
  for (auto& f : carried) EXPECT_DOUBLE_EQ(f.get(), 1.0);
  std::future<double> first = server.Score("held", {0}, {1.0}).value();
  EXPECT_EQ(server.Score("held", {1}, {1.0}).status().code(),
            Status::Code::kResourceExhausted);  // over the delay budget
  EXPECT_EQ(server.Score("held", {1}, {1.0}, ClientId("late")).status().code(),
            Status::Code::kResourceExhausted);  // roster full
  server.Stop();
  EXPECT_DOUBLE_EQ(first.get(), 1.0);

  const ServingStats stats = server.Stats();
  const obs::RegistrySnapshot snap = server.telemetry().Snapshot();
  ASSERT_EQ(stats.families.size(), 2u);
  for (const FamilyServingStats& f : stats.families) {
    SCOPED_TRACE(f.family);
    const obs::Labels fam = {{"family", f.family}};
    const auto counter = [&](const char* name) {
      return snap.CounterValue(name, fam);
    };
    EXPECT_EQ(f.mean_batch_rows, static_cast<double>(counter("serve.rows")) /
                                     counter("serve.batches"));
    EXPECT_EQ(f.flush_size, counter("queue.flush_size"));
    EXPECT_EQ(f.flush_deadline, counter("queue.flush_deadline"));
    EXPECT_EQ(f.flush_drain, counter("queue.flush_drain"));
    EXPECT_EQ(f.rejected,
              counter("queue.rejected_full") + counter("queue.rejected_cost"));
    EXPECT_EQ(f.rejected_cost, counter("queue.rejected_cost"));
    EXPECT_EQ(f.est_row_us, snap.GaugeValue("admission.est_row_us", fam));
    EXPECT_EQ(f.measured_row_us_ewma,
              snap.GaugeValue("admission.measured_row_us", fam));
    EXPECT_EQ(f.local_store_rows, counter("store.local_gather_rows"));
    EXPECT_EQ(f.remote_store_rows, counter("store.remote_gather_rows"));
    EXPECT_GT(f.measured_row_us_ewma, 0.0);
  }
  // The traffic reached the fields it should.
  const FamilyServingStats& mix = stats.families[0];
  EXPECT_EQ(snap.CounterValue("serve.rows", {{"family", "mix"}}),
            32u + 2u * kRows);
  EXPECT_EQ(mix.local_store_rows + mix.remote_store_rows, 2u * kRows);
  EXPECT_GT(mix.flush_deadline, 0u);  // lone synchronous rows time out
  EXPECT_EQ(mix.rejected, 0u);
  const FamilyServingStats& h = stats.families[1];
  EXPECT_EQ(h.rejected, 2u);
  EXPECT_EQ(h.rejected_cost, 1u);
  EXPECT_EQ(h.flush_drain, 1u);
  EXPECT_EQ(h.flush_size + h.flush_deadline, 0u);
  EXPECT_EQ(h.mean_batch_rows, 1.0);
}

// --- snapshot exporter ----------------------------------------------------

TEST(SnapshotExporterTest, PublishesMidTrainingWithoutBlockingEpochs) {
  // Train for a while with the exporter publishing every few ms while a
  // producer scores concurrently: versions must advance well past the
  // initial publish, epochs must keep completing (training finishes),
  // and every served score must be finite and from SOME published
  // version. This is the satellite TSan target: trainer workers,
  // averager, exporter, serving workers, and a producer all live at once.
  const data::Dataset d = ServeDataset(300, 16, 201);
  models::LogisticSpec lr;
  engine::EngineOptions topts;
  topts.topology = numa::Local2();
  engine::Engine trainer(&d, &lr, topts);
  ASSERT_TRUE(trainer.Init().ok());

  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.num_threads = 2;
  opts.batch.max_batch_size = 8;
  opts.batch.max_delay = std::chrono::microseconds(100);
  ServingEngine server(opts);
  ASSERT_TRUE(
      server.RegisterFamily("lr", &lr, ServePinned(16, Replication::kPerNode))
          .ok());

  SnapshotExporter::Options eopts;
  eopts.period = std::chrono::milliseconds(2);
  SnapshotExporter exporter(&trainer, &server, "lr", eopts);
  exporter.Start();  // its first publish makes the family servable
  ASSERT_GE(server.FindFamily("lr")->current_version(), 1u);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::thread producer([&] {
    std::vector<Index> idx;
    std::vector<double> vals;
    Index i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      RowOf(d, i++ % d.a.rows(), &idx, &vals);
      auto s = server.ScoreSync("lr", idx, vals);
      ASSERT_TRUE(s.ok()) << s.status().ToString();
      ASSERT_TRUE(std::isfinite(s.value()));
      ASSERT_GE(s.value(), 0.0);
      ASSERT_LE(s.value(), 1.0);
    }
  });

  engine::RunConfig cfg;
  cfg.max_epochs = 40;
  const engine::RunResult result = trainer.Run(cfg);
  EXPECT_EQ(result.epochs.size(), 40u);  // epochs never blocked

  stop.store(true, std::memory_order_release);
  producer.join();
  exporter.Stop();
  server.Stop();

  const SnapshotExporter::Stats es = exporter.stats();
  EXPECT_GE(es.publishes, 2u) << "exporter never republished mid-training";
  EXPECT_EQ(es.last_version,
            server.FindFamily("lr")->current_version());
  EXPECT_GT(es.mean_publish_ms, 0.0);
  EXPECT_GE(es.max_publish_ms, es.mean_publish_ms);

  // Serving-side staleness was measured and bounded: a 2ms export period
  // cannot leave minutes of staleness behind.
  const obs::RegistrySnapshot snap = server.telemetry().Snapshot();
  EXPECT_GT(snap.CounterValue("serve.rows", {{"family", "lr"}}), 0u);
  const double mean_staleness_ms =
      snap.HistogramValue("serve.staleness_ms", {{"family", "lr"}}).Mean();
  EXPECT_GT(mean_staleness_ms, 0.0);
  EXPECT_LT(mean_staleness_ms, 60e3);
}

TEST(SnapshotExporterTest, StopIsIdempotentAndLastSnapshotStaysServed) {
  const data::Dataset d = ServeDataset(60, 8, 77);
  models::LeastSquaresSpec ls;
  engine::EngineOptions topts;
  topts.topology = numa::Local2();
  engine::Engine trainer(&d, &ls, topts);
  ASSERT_TRUE(trainer.Init().ok());

  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.num_threads = 1;
  ServingEngine server(opts);
  ASSERT_TRUE(
      server.RegisterFamily("ls", &ls, ServePinned(8, Replication::kPerNode))
          .ok());
  SnapshotExporter::Options eopts;
  eopts.period = std::chrono::milliseconds(1);
  SnapshotExporter exporter(&trainer, &server, "ls", eopts);
  exporter.Start();
  engine::RunConfig cfg;
  cfg.max_epochs = 3;
  trainer.Run(cfg);
  exporter.Stop();
  exporter.Stop();  // idempotent
  const uint64_t v = server.FindFamily("ls")->current_version();
  EXPECT_GE(v, 1u);

  ASSERT_TRUE(server.Start().ok());
  auto s = server.ScoreSync("ls", {0}, {1.0});
  EXPECT_TRUE(s.ok());
  server.Stop();
  // No publishes after Stop().
  EXPECT_EQ(server.FindFamily("ls")->current_version(), v);
}

TEST(SnapshotExporterTest, PacingDerivesPeriodFromPublishLatency) {
  // The ROADMAP pacing satellite: with a publish-time ceiling far below
  // what Export()+Publish() actually costs, the exporter must stretch
  // its effective period instead of busy-publishing on the 1ms floor.
  const data::Dataset d = ServeDataset(60, 8, 55);
  models::LeastSquaresSpec ls;
  engine::EngineOptions topts;
  topts.topology = numa::Local2();
  engine::Engine trainer(&d, &ls, topts);
  ASSERT_TRUE(trainer.Init().ok());

  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.num_threads = 1;
  ServingEngine server(opts);
  ASSERT_TRUE(
      server.RegisterFamily("ls", &ls, ServePinned(8, Replication::kPerNode))
          .ok());
  SnapshotExporter::Options eopts;
  eopts.period = std::chrono::milliseconds(1);
  // Effectively "at most one millionth of wall time publishing": even a
  // microsecond-scale publish forces a multi-second effective period, so
  // the 150ms window below can fit at most the on-start publish plus the
  // first paced one.
  eopts.max_publish_fraction = 1e-6;
  SnapshotExporter exporter(&trainer, &server, "ls", eopts);
  exporter.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  exporter.Stop();

  const SnapshotExporter::Stats es = exporter.stats();
  // The Start() publish + at most one loop publish + the Stop() flush: far
  // fewer than the ~150 publishes the raw 1ms period would have run.
  EXPECT_LE(es.publishes, 4u);
  EXPECT_GE(es.paced_periods, 1u);
  EXPECT_GT(es.effective_period_ms, 1.0);
  EXPECT_GT(es.ewma_publish_ms, 0.0);

  // The default fraction leaves a cheap publish on its configured floor:
  // same setup, default ceiling, expect many publishes in the window.
  engine::Engine trainer2(&d, &ls, topts);
  ASSERT_TRUE(trainer2.Init().ok());
  ServingEngine server2(opts);
  ASSERT_TRUE(
      server2
          .RegisterFamily("ls", &ls, ServePinned(8, Replication::kPerNode))
          .ok());
  SnapshotExporter::Options fast;
  fast.period = std::chrono::milliseconds(1);
  SnapshotExporter exporter2(&trainer2, &server2, "ls", fast);
  exporter2.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  exporter2.Stop();
  EXPECT_GT(exporter2.stats().publishes, 10u);
}

TEST(SnapshotExporterTest, SetPeriodOverridesAndRestoresTheFloor) {
  // The placement tuner's control surface: SetPeriod overrides the
  // configured pacing floor at runtime (the staleness-SLO controller
  // tightens/stretches through it) and a non-positive period hands the
  // floor back to the configuration.
  const data::Dataset d = ServeDataset(60, 8, 58);
  models::LeastSquaresSpec ls;
  engine::EngineOptions topts;
  topts.topology = numa::Local2();
  engine::Engine trainer(&d, &ls, topts);
  ASSERT_TRUE(trainer.Init().ok());
  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.num_threads = 1;
  ServingEngine server(opts);
  ASSERT_TRUE(
      server.RegisterFamily("ls", &ls, ServePinned(8, Replication::kPerNode))
          .ok());
  SnapshotExporter::Options eopts;
  eopts.period = std::chrono::milliseconds(50);
  SnapshotExporter exporter(&trainer, &server, "ls", eopts);

  EXPECT_DOUBLE_EQ(exporter.period_floor_ms(), 50.0);
  exporter.SetPeriod(std::chrono::milliseconds(5));
  EXPECT_DOUBLE_EQ(exporter.period_floor_ms(), 5.0);
  exporter.SetPeriod(std::chrono::milliseconds(0));  // restore configured
  EXPECT_DOUBLE_EQ(exporter.period_floor_ms(), 50.0);

  // The override steers a RUNNING exporter too: a 1ms override against a
  // 10s configured period turns near-zero publishes into many.
  SnapshotExporter::Options slow;
  slow.period = std::chrono::seconds(10);
  engine::Engine trainer2(&d, &ls, topts);
  ASSERT_TRUE(trainer2.Init().ok());
  ServingEngine server2(opts);
  ASSERT_TRUE(
      server2
          .RegisterFamily("ls", &ls, ServePinned(8, Replication::kPerNode))
          .ok());
  SnapshotExporter exporter2(&trainer2, &server2, "ls", slow);
  exporter2.Start();
  exporter2.SetPeriod(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  exporter2.Stop();
  EXPECT_GT(exporter2.stats().publishes, 5u);
}

}  // namespace
}  // namespace dw::serve
