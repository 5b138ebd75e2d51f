// Tests for cost-aware admission control and per-client fair queuing:
// opt::AdmissionController (memory-model prior, EWMA calibration, drain
// and budget estimates), RequestBatcher's per-client DRR queues and
// delay-budget admission, ClientId validation, and the end-to-end
// hog-vs-mice fairness property through ServingEngine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "models/glm.h"
#include "opt/admission_controller.h"
#include "serve/request_batcher.h"
#include "serve/serving_engine.h"
#include "util/rng.h"

namespace dw::serve {
namespace {

using matrix::Index;

// --- AdmissionController --------------------------------------------------

opt::AdmissionFamilyProfile Profile(Index dim, int sharing_sockets = 1,
                                    double batch_rows = 64.0) {
  opt::AdmissionFamilyProfile p;
  p.dim = dim;
  p.model_sharing_sockets = sharing_sockets;
  p.expected_batch_rows = batch_rows;
  return p;
}

TEST(AdmissionControllerTest, PriorScalesWithRowWidthAndPlacement) {
  opt::AdmissionController ctl(numa::Local2());
  const int narrow = ctl.AddFamily(Profile(64));
  const int wide = ctl.AddFamily(Profile(16384));
  const int wide_shared =
      ctl.AddFamily(Profile(16384, /*sharing_sockets=*/2));
  EXPECT_EQ(ctl.num_families(), 3);
  // A 256x wider row streams more bytes and more flops per row: the
  // memory-model prior must order the families before any traffic runs.
  EXPECT_GT(ctl.EstimatedRowSeconds(wide), ctl.EstimatedRowSeconds(narrow));
  // A replica shared across sockets serves most model reads over the
  // interconnect; the prior can only get slower, never faster.
  EXPECT_GE(ctl.EstimatedRowSeconds(wide_shared),
            ctl.EstimatedRowSeconds(wide));
  const opt::AdmissionEstimate est = ctl.Estimate(narrow);
  EXPECT_GT(est.prior_row_sec, 0.0);
  EXPECT_DOUBLE_EQ(est.est_row_sec, est.prior_row_sec);  // no reports yet
  EXPECT_EQ(est.reported_batches, 0u);
}

TEST(AdmissionControllerTest, EwmaCalibratesEstimateTowardMeasured) {
  opt::AdmissionController ctl(numa::Local2());
  const int f = ctl.AddFamily(Profile(128));
  const double measured_row_sec = 5e-6;
  for (int i = 0; i < 32; ++i) {
    ctl.ReportBatch(f, 32, 32 * measured_row_sec);
  }
  const opt::AdmissionEstimate est = ctl.Estimate(f);
  EXPECT_EQ(est.reported_batches, 32u);
  EXPECT_NEAR(est.measured_row_sec_ewma, measured_row_sec,
              1e-9 * measured_row_sec);
  // The acceptance-criterion shape: the calibrated estimate converges to
  // within 2x of the measured EWMA (here it lands exactly on it because
  // the measured/prior ratio is inside the clamp).
  EXPECT_GE(est.est_row_sec, 0.5 * est.measured_row_sec_ewma);
  EXPECT_LE(est.est_row_sec, 2.0 * est.measured_row_sec_ewma);
}

TEST(AdmissionControllerTest, CalibrationIsClampedAgainstGarbage) {
  opt::AdmissionControllerOptions opts;
  opts.max_calibration = 4.0;
  opt::AdmissionController ctl(numa::Local2(), opts);
  const int f = ctl.AddFamily(Profile(128));
  const double prior = ctl.Estimate(f).prior_row_sec;
  // One absurd measurement (a descheduled batch billed a full second).
  ctl.ReportBatch(f, 1, 1.0);
  EXPECT_LE(ctl.EstimatedRowSeconds(f), 4.0 * prior + 1e-15);
  // And an absurdly fast one cannot drop the estimate below prior/clamp.
  for (int i = 0; i < 64; ++i) ctl.ReportBatch(f, 1 << 20, 1e-9);
  EXPECT_GE(ctl.EstimatedRowSeconds(f), prior / 4.0 - 1e-15);
}

TEST(AdmissionControllerTest, DegenerateReportsAreDropped) {
  opt::AdmissionController ctl(numa::Local2());
  const int f = ctl.AddFamily(Profile(32));
  ctl.ReportBatch(f, 0, 1.0);    // no rows
  ctl.ReportBatch(f, 16, 0.0);   // clock-granularity zero
  ctl.ReportBatch(f, 16, -1.0);  // impossible
  EXPECT_EQ(ctl.Estimate(f).reported_batches, 0u);
}

TEST(AdmissionControllerTest, DrainScalesWithBacklogAndWorkers) {
  opt::AdmissionControllerOptions one;
  one.drain_workers = 1;
  opt::AdmissionControllerOptions four;
  four.drain_workers = 4;
  opt::AdmissionController ctl1(numa::Local2(), one);
  opt::AdmissionController ctl4(numa::Local2(), four);
  const int f1 = ctl1.AddFamily(Profile(256));
  const int f4 = ctl4.AddFamily(Profile(256));
  EXPECT_DOUBLE_EQ(ctl1.EstimatedDrainSeconds(f1, 0), 0.0);
  EXPECT_GT(ctl1.EstimatedDrainSeconds(f1, 100),
            ctl1.EstimatedDrainSeconds(f1, 10));
  // Four workers retire the same backlog four times faster.
  EXPECT_NEAR(ctl4.EstimatedDrainSeconds(f4, 100),
              ctl1.EstimatedDrainSeconds(f1, 100) / 4.0, 1e-15);
}

TEST(AdmissionControllerTest, UpdateModelSharingRepricesPriorAndResetsEwma) {
  // The placement tuner's re-pricing hook: after a replication
  // migration, the family's prior must reflect the NEW placement and the
  // EWMA window must restart -- every batch time in it measured the old
  // byte path.
  opt::AdmissionController ctl(numa::Local2());
  const int f = ctl.AddFamily(Profile(128, /*sharing_sockets=*/2));
  for (int i = 0; i < 4; ++i) ctl.ReportBatch(f, 64, 64 * 3e-6);
  const opt::AdmissionEstimate before = ctl.Estimate(f);
  EXPECT_EQ(before.reported_batches, 4u);

  // kPerMachine -> kPerNode: model reads go local, the prior can only
  // get cheaper; calibration restarts from the fresh prior.
  ctl.UpdateModelSharing(f, 1);
  const opt::AdmissionEstimate after = ctl.Estimate(f);
  EXPECT_LT(after.prior_row_sec, before.prior_row_sec);
  EXPECT_EQ(after.reported_batches, 0u);
  EXPECT_DOUBLE_EQ(after.est_row_sec, after.prior_row_sec);
  EXPECT_DOUBLE_EQ(after.measured_row_sec_ewma, 0.0);

  // Same-value update is a no-op: an unflipped scan must not keep
  // throwing away calibration.
  ctl.ReportBatch(f, 64, 64 * 3e-6);
  ctl.UpdateModelSharing(f, 1);
  EXPECT_EQ(ctl.Estimate(f).reported_batches, 1u);
}

TEST(AdmissionControllerDeathTest, RejectsInvalidProfiles) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  opt::AdmissionController ctl(numa::Local2());
  EXPECT_DEATH(ctl.AddFamily(Profile(0)), "dim");
  const int f = ctl.AddFamily(Profile(8));
  (void)f;
  EXPECT_DEATH(ctl.EstimatedRowSeconds(3), "");
}

// --- ClientId validation --------------------------------------------------

TEST(ClientIdTest, ValidationBoundsTheIdentifier) {
  EXPECT_TRUE(ValidateClientId(ClientId("tenant-a")).ok());
  EXPECT_TRUE(
      ValidateClientId(ClientId(std::string(kMaxClientIdBytes, 'x'))).ok());
  EXPECT_EQ(ValidateClientId(ClientId()).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(ValidateClientId(ClientId("")).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(
      ValidateClientId(ClientId(std::string(kMaxClientIdBytes + 1, 'x')))
          .code(),
      Status::Code::kInvalidArgument);
}

TEST(ClientIdTest, BatcherRejectsBadClientsOnBothRequestForms) {
  RequestBatcher b;
  RequestBatcher::Options o;
  o.max_batch_size = 8;
  o.max_delay = std::chrono::seconds(10);
  const FamilyId f = b.AddQueue(o);
  // Every form shares the one Submit validation: identical codes.
  const ClientId oversized(std::string(kMaxClientIdBytes + 1, 'c'));
  for (const ClientId& bad : {ClientId(""), oversized}) {
    EXPECT_EQ(b.Submit(f, ScoreRequest::Carried({0}, {1.0}, bad))
                  .status()
                  .code(),
              Status::Code::kInvalidArgument);
    EXPECT_EQ(b.Submit(f, ScoreRequest::RowId(0, bad)).status().code(),
              Status::Code::kInvalidArgument);
    EXPECT_EQ(b.Submit(f, ScoreRequest::Key(0, bad)).status().code(),
              Status::Code::kInvalidArgument);
  }
  // Nothing was admitted or counted.
  EXPECT_EQ(b.queue_stats(f).accepted, 0u);
  EXPECT_TRUE(b.queue_stats(f).clients.empty());
}

TEST(ClientIdDeathTest, OperatorConfigDiesOnInvalidClientOrWeight) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  RequestBatcher b;
  RequestBatcher::Options o;
  const FamilyId f = b.AddQueue(o);
  // SetClientWeight is operator configuration, not request input: an
  // empty or oversized id and a non-positive weight die loudly.
  EXPECT_DEATH(b.SetClientWeight(f, ClientId(""), 1.0), "client id");
  EXPECT_DEATH(
      b.SetClientWeight(f, ClientId(std::string(65, 'x')), 1.0),
      "client id");
  EXPECT_DEATH(b.SetClientWeight(f, ClientId("ok"), 0.0), "weight");
  EXPECT_DEATH(b.SetClientWeight(f, ClientId("ok"), -1.0), "weight");
}

// --- per-client queues in the batcher -------------------------------------

RequestBatcher::Options FairOpts(size_t max_batch, size_t quantum,
                                 size_t max_rows = 1 << 16) {
  RequestBatcher::Options o;
  o.max_batch_size = max_batch;
  o.max_delay = std::chrono::seconds(10);
  o.max_queue_rows = max_rows;
  o.drr_quantum_rows = quantum;
  return o;
}

void MustSubmitAs(RequestBatcher& b, FamilyId f, const ClientId& c,
                  double v) {
  auto fut = b.Submit(f, ScoreRequest::Carried({0}, {v}, c));
  ASSERT_TRUE(fut.ok()) << fut.status().ToString();
}

TEST(FairQueuingTest, SizeFlushInterleavesClientsByDeficitRoundRobin) {
  RequestBatcher b;
  const FamilyId f = b.AddQueue(FairOpts(/*max_batch=*/8, /*quantum=*/4));
  const ClientId hog("hog");
  const ClientId mouse("mouse");
  for (int i = 0; i < 100; ++i) MustSubmitAs(b, f, hog, i);
  for (int i = 0; i < 4; ++i) MustSubmitAs(b, f, mouse, i);
  Batch batch;
  ASSERT_TRUE(b.NextBatch(&batch));
  ASSERT_EQ(batch.rows(), 8u);
  EXPECT_EQ(batch.reason, FlushReason::kSize);
  // DRR with quantum 4 and equal weights: the hog contributes its 4-row
  // quantum, then the mouse spends its own -- the hog's 100-row backlog
  // cannot squeeze the mouse out of the batch.
  size_t hog_rows = 0;
  size_t mouse_rows = 0;
  for (const ScoreRequest& r : batch.requests) {
    (r.client == hog ? hog_rows : mouse_rows) += 1;
  }
  EXPECT_EQ(hog_rows, 4u);
  EXPECT_EQ(mouse_rows, 4u);
}

TEST(FairQueuingTest, WeightsScaleTheClientsBatchShare) {
  RequestBatcher b;
  const FamilyId f = b.AddQueue(FairOpts(/*max_batch=*/12, /*quantum=*/2));
  const ClientId heavy("heavy");
  const ClientId light("light");
  b.SetClientWeight(f, heavy, 2.0);
  b.SetClientWeight(f, light, 1.0);
  for (int i = 0; i < 64; ++i) MustSubmitAs(b, f, heavy, i);
  for (int i = 0; i < 64; ++i) MustSubmitAs(b, f, light, i);
  Batch batch;
  ASSERT_TRUE(b.NextBatch(&batch));
  ASSERT_EQ(batch.rows(), 12u);
  size_t heavy_rows = 0;
  for (const ScoreRequest& r : batch.requests) {
    if (r.client == heavy) ++heavy_rows;
  }
  // quantum*weight = 4 vs 2 per rotation: a 2:1 split of every batch.
  EXPECT_EQ(heavy_rows, 8u);
}

TEST(FairQueuingTest, FifoModePreservesArrivalOrderAcrossClients) {
  RequestBatcher b;
  RequestBatcher::Options o = FairOpts(/*max_batch=*/6, /*quantum=*/1);
  o.fair_queuing = false;
  const FamilyId f = b.AddQueue(o);
  const ClientId a("a");
  const ClientId c("c");
  const std::vector<const ClientId*> arrivals = {&a, &c, &c, &a, &c, &a};
  for (size_t i = 0; i < arrivals.size(); ++i) {
    MustSubmitAs(b, f, *arrivals[i], static_cast<double>(i));
  }
  Batch batch;
  ASSERT_TRUE(b.NextBatch(&batch));
  ASSERT_EQ(batch.rows(), 6u);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(batch.requests[i].client, *arrivals[i]) << "slot " << i;
    EXPECT_DOUBLE_EQ(batch.requests[i].values[0], static_cast<double>(i));
  }
}

TEST(FairQueuingTest, PerClientSharesSplitTheRowCap) {
  // Family cap 8, two equal clients: each may hold 4 queued rows. The
  // hog's 5th submit is refused while the mouse's slots stay open.
  RequestBatcher b;
  const FamilyId f =
      b.AddQueue(FairOpts(/*max_batch=*/64, /*quantum=*/4, /*max_rows=*/8));
  const ClientId hog("hog");
  const ClientId mouse("mouse");
  b.SetClientWeight(f, hog, 1.0);
  b.SetClientWeight(f, mouse, 1.0);
  for (int i = 0; i < 4; ++i) MustSubmitAs(b, f, hog, i);
  EXPECT_EQ(b.Submit(f, ScoreRequest::Carried({0}, {9.0}, hog)).status().code(),
            Status::Code::kResourceExhausted);
  for (int i = 0; i < 4; ++i) MustSubmitAs(b, f, mouse, i);
  const RequestBatcher::QueueStats qs = b.queue_stats(f);
  EXPECT_EQ(qs.accepted, 8u);
  EXPECT_EQ(qs.rejected_full, 1u);
  ASSERT_EQ(qs.clients.size(), 2u);
  EXPECT_EQ(qs.clients[0].client, hog);
  EXPECT_EQ(qs.clients[0].rejected, 1u);
  EXPECT_EQ(qs.clients[1].client, mouse);
  EXPECT_EQ(qs.clients[1].rejected, 0u);
}

TEST(FairQueuingTest, ClientRosterIsBoundedAgainstIdAbuse) {
  // Client ids cross a trust boundary: a caller misusing per-request ids
  // as client ids must be refused past max_clients, not allowed to grow
  // server state and dilute every tenant's share without bound.
  RequestBatcher b;
  RequestBatcher::Options o = FairOpts(/*max_batch=*/8, /*quantum=*/4);
  o.max_clients = 2;
  const FamilyId f = b.AddQueue(o);
  MustSubmitAs(b, f, ClientId("tenant-a"), 1.0);
  MustSubmitAs(b, f, ClientId("tenant-b"), 2.0);
  // A third distinct id is refused WITHOUT registering the client...
  EXPECT_EQ(b.Submit(f, ScoreRequest::Carried({0}, {3.0}, ClientId("req-123")))
                .status()
                .code(),
            Status::Code::kResourceExhausted);
  EXPECT_EQ(b.queue_stats(f).clients.size(), 2u);
  // ...while known clients keep submitting.
  MustSubmitAs(b, f, ClientId("tenant-a"), 4.0);
}

TEST(FairQueuingDeathTest, OperatorRosterOverflowDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  RequestBatcher b;
  RequestBatcher::Options o;
  o.max_clients = 1;
  const FamilyId f = b.AddQueue(o);
  b.SetClientWeight(f, ClientId("only"), 2.0);
  b.SetClientWeight(f, ClientId("only"), 3.0);  // re-weighting is fine
  EXPECT_DEATH(b.SetClientWeight(f, ClientId("second"), 1.0),
               "roster full");
}

TEST(FairQueuingTest, CostAwareAdmissionRejectsOverDelayBudget) {
  // A controller whose measured service time is enormous: the second
  // request's estimated wait behind the first blows the 1us budget.
  opt::AdmissionControllerOptions copts;
  copts.drain_workers = 1;
  opt::AdmissionController ctl(numa::Local2(), copts);
  ASSERT_EQ(ctl.AddFamily(Profile(64)), 0);
  for (int i = 0; i < 8; ++i) ctl.ReportBatch(0, 1, 1.0);  // 1 s per row

  RequestBatcher b;
  b.AttachController(&ctl);
  RequestBatcher::Options o = FairOpts(/*max_batch=*/64, /*quantum=*/4);
  o.queue_delay_budget = std::chrono::microseconds(1);
  const FamilyId f = b.AddQueue(o);
  // An empty queue is always admissible (zero wait)...
  MustSubmitAs(b, f, kDefaultClient, 1.0);
  // ...but the next request would wait ~seconds behind it: over budget,
  // and the refusal is accounted as a COST rejection, not a full queue.
  auto fut = b.Submit(f, ScoreRequest::Carried({0}, {2.0}, kDefaultClient));
  ASSERT_FALSE(fut.ok());
  EXPECT_EQ(fut.status().code(), Status::Code::kResourceExhausted);
  const RequestBatcher::QueueStats qs = b.queue_stats(f);
  EXPECT_EQ(qs.rejected_cost, 1u);
  EXPECT_EQ(qs.rejected_full, 0u);
  // The keyed forms hit the identical budget check.
  EXPECT_EQ(b.Submit(f, ScoreRequest::RowId(0)).status().code(),
            Status::Code::kResourceExhausted);
  EXPECT_EQ(b.Submit(f, ScoreRequest::Key(0)).status().code(),
            Status::Code::kResourceExhausted);
  EXPECT_EQ(b.queue_stats(f).rejected_cost, 3u);
}

TEST(FairQueuingTest, SeededOverloadBoundsMiceRejections) {
  // Property test (seeded, single-threaded, deterministic): a hog
  // submitting 4 rows per tick against three mice submitting one row
  // each per tick, under a tight family cap, with one synthetic drain
  // per full batch. Per-client shares must keep the mice's rejection
  // ratio bounded while the hog eats rejections for its burst.
  Rng rng(1234);
  RequestBatcher b;
  const FamilyId f =
      b.AddQueue(FairOpts(/*max_batch=*/16, /*quantum=*/4, /*max_rows=*/64));
  const ClientId hog("hog");
  const std::vector<ClientId> mice = {ClientId("m0"), ClientId("m1"),
                                      ClientId("m2")};
  uint64_t hog_submitted = 0;
  uint64_t hog_rejected = 0;
  uint64_t mice_submitted = 0;
  uint64_t mice_rejected = 0;
  Batch batch;
  for (int tick = 0; tick < 2000; ++tick) {
    for (int k = 0; k < 12; ++k) {
      ++hog_submitted;
      auto fut = b.Submit(f, ScoreRequest::Carried({0}, {1.0}, hog));
      if (!fut.ok()) {
        ASSERT_EQ(fut.status().code(), Status::Code::kResourceExhausted);
        ++hog_rejected;
      }
    }
    const ClientId& m = mice[rng.Below(mice.size())];
    ++mice_submitted;
    auto fut = b.Submit(f, ScoreRequest::Carried({0}, {1.0}, m));
    if (!fut.ok()) {
      ASSERT_EQ(fut.status().code(), Status::Code::kResourceExhausted);
      ++mice_rejected;
    }
    // Drain one 16-row batch every OTHER tick: ~8 rows/tick of service
    // against 13 offered -- sustained overload that only the hog's
    // backlog can absorb (its share of the 64-row cap is 16 rows).
    if (tick % 2 == 0 && b.pending() >= 16) {
      ASSERT_TRUE(b.NextBatch(&batch));
    }
  }
  const double hog_ratio =
      static_cast<double>(hog_rejected) / static_cast<double>(hog_submitted);
  const double mice_ratio = static_cast<double>(mice_rejected) /
                            static_cast<double>(mice_submitted);
  // The hog is genuinely overloaded...
  EXPECT_GT(hog_ratio, 0.15) << "overload never materialized";
  // ...while the mice's rejection ratio stays bounded and far below the
  // hog's: their reserved share keeps their queue near-empty.
  EXPECT_LT(mice_ratio, 0.05);
  EXPECT_LT(mice_ratio, hog_ratio / 4.0);
  b.Shutdown();
  while (b.NextBatch(&batch)) {
  }
  EXPECT_EQ(b.pending(), 0u);
}

TEST(FairQueuingTest, IdleClientsAgeOutAndTheirShareReturns) {
  // One-shot clients dilute every tenant's admission share for as long
  // as they sit in the roster. With aging enabled, a departed hog must
  // fall out after client_idle_timeout and its share must flow back --
  // while a pinned operator tenant survives any amount of idleness.
  RequestBatcher b;
  RequestBatcher::Options o =
      FairOpts(/*max_batch=*/4, /*quantum=*/4, /*max_rows=*/12);
  o.client_idle_timeout = std::chrono::milliseconds(50);
  const FamilyId f = b.AddQueue(o);
  const ClientId hog("hog");
  const ClientId mouse("mouse");
  const ClientId vip("vip");
  b.SetClientWeight(f, vip, 1.0);    // pinned, never submits
  b.SetClientWeight(f, mouse, 1.0);  // pinned resident tenant

  // Three clients, equal weights: cap 12 splits to 4 queued rows each.
  for (int i = 0; i < 4; ++i) MustSubmitAs(b, f, hog, i);
  EXPECT_EQ(b.Submit(f, ScoreRequest::Carried({0}, {9.0}, hog)).status().code(),
            Status::Code::kResourceExhausted);
  for (int i = 0; i < 4; ++i) MustSubmitAs(b, f, mouse, i);

  Batch batch;
  ASSERT_TRUE(b.NextBatch(&batch));
  ASSERT_TRUE(b.NextBatch(&batch));  // both queues drained
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  // The next submit ages the hog out of the roster (idle, empty,
  // unpinned); the mouse's share grows from a third to a half, so it can
  // now hold 6 rows where 4 was its former ceiling.
  for (int i = 0; i < 6; ++i) MustSubmitAs(b, f, mouse, i);
  EXPECT_EQ(
      b.Submit(f, ScoreRequest::Carried({0}, {9.0}, mouse)).status().code(),
      Status::Code::kResourceExhausted);

  const RequestBatcher::QueueStats qs = b.queue_stats(f);
  bool saw_hog = false;
  bool saw_vip = false;
  for (const RequestBatcher::ClientStats& cs : qs.clients) {
    if (cs.client == hog) saw_hog = true;
    if (cs.client == vip) saw_vip = true;
  }
  EXPECT_FALSE(saw_hog) << "idle hog still holds a roster slot";
  EXPECT_TRUE(saw_vip) << "pinned tenant was aged out";
}

TEST(FairQueuingTest, ReweightResetsEarnedDeficit) {
  // Deficit earned at an old weight must not carry into the new one: a
  // demoted client would otherwise keep draining at its former share
  // for a full earned-credit's worth of rows.
  RequestBatcher b;
  const FamilyId f = b.AddQueue(FairOpts(/*max_batch=*/32, /*quantum=*/16));
  const ClientId big("big");
  const ClientId small("small");
  b.SetClientWeight(f, big, 4.0);
  b.SetClientWeight(f, small, 1.0);
  for (int i = 0; i < 64; ++i) MustSubmitAs(b, f, big, i);
  for (int i = 0; i < 64; ++i) MustSubmitAs(b, f, small, i);

  // weight 4 x quantum 16 = 64 rows of credit: the first batch is all
  // big's, with 32 rows of credit left unspent.
  Batch batch;
  ASSERT_TRUE(b.NextBatch(&batch));
  ASSERT_EQ(batch.rows(), 32u);
  size_t big_rows = 0;
  for (const ScoreRequest& r : batch.requests) {
    if (r.client == big) ++big_rows;
  }
  EXPECT_EQ(big_rows, 32u);

  // Demotion forfeits the unspent credit: the next batch serves big at
  // the NEW weight (quantum*0.25 = 4 rows per visit), not out of the 32
  // banked rows.
  b.SetClientWeight(f, big, 0.25);
  ASSERT_TRUE(b.NextBatch(&batch));
  ASSERT_EQ(batch.rows(), 32u);
  big_rows = 0;
  size_t small_rows = 0;
  for (const ScoreRequest& r : batch.requests) {
    (r.client == big ? big_rows : small_rows) += 1;
  }
  EXPECT_LE(big_rows, 12u) << "stale deficit survived the reweight";
  EXPECT_GE(small_rows, 20u);
}

TEST(FairQueuingTest, ReweightRacesSubmittersWithoutCorruption) {
  // TSan leg: SetClientWeight is an operator hot-reconfig that runs
  // against live Submit/NextBatch traffic. The weight flip, the deficit
  // reset, and the share-cap reads must all agree under the queue lock;
  // the observable contract here is simply that every accepted row is
  // served exactly once while the weights thrash.
  RequestBatcher b;
  RequestBatcher::Options o =
      FairOpts(/*max_batch=*/16, /*quantum=*/4, /*max_rows=*/256);
  o.max_delay = std::chrono::milliseconds(1);
  const FamilyId f = b.AddQueue(o);
  const ClientId a("a");
  const ClientId c("c");
  b.SetClientWeight(f, a, 1.0);
  b.SetClientWeight(f, c, 1.0);

  constexpr int kPerClient = 400;
  std::atomic<bool> done{false};
  std::thread reweigher([&] {
    double w = 1.0;
    while (!done.load(std::memory_order_acquire)) {
      b.SetClientWeight(f, a, w);
      w = (w == 1.0) ? 4.0 : 1.0;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> producers;
  for (const ClientId* id : {&a, &c}) {
    producers.emplace_back([&b, f, id] {
      for (int i = 0; i < kPerClient;) {
        auto fut = b.Submit(f, ScoreRequest::Carried({0}, {1.0}, *id));
        if (fut.ok()) {
          ++i;
          continue;
        }
        ASSERT_EQ(fut.status().code(), Status::Code::kResourceExhausted)
            << fut.status().ToString();
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }

  size_t served = 0;
  Batch batch;
  while (served < 2 * kPerClient) {
    if (b.NextBatch(&batch)) served += batch.rows();
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  reweigher.join();
  EXPECT_EQ(served, 2u * kPerClient);
  b.Shutdown();
  while (b.NextBatch(&batch)) {
  }
  EXPECT_EQ(b.pending(), 0u);
}

// --- engine end-to-end ----------------------------------------------------

ServingFamilyOptions ServeFamily(Index dim) {
  ServingFamilyOptions o;
  o.traffic.dim = dim;
  o.replication_override = Replication::kPerNode;
  return o;
}

TEST(AdmissionEngineTest, ClientIdThreadsThroughScoreAndStats) {
  models::LeastSquaresSpec ls;
  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.batch.max_batch_size = 8;
  opts.batch.max_delay = std::chrono::microseconds(100);
  ServingEngine server(opts);
  ServingFamilyOptions fam = ServeFamily(8);
  fam.client_weights = {{ClientId("alpha"), 2.0}, {ClientId("beta"), 1.0}};
  ASSERT_TRUE(server.RegisterFamily("ls", &ls, fam).ok());
  server.Publish("ls", std::vector<double>(8, 0.5));
  ASSERT_TRUE(server.Start().ok());

  // Bad client ids are refused at admission on both request forms.
  EXPECT_EQ(server.Score("ls", {0}, {1.0}, ClientId("")).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(server.Score("ls", {0}, {1.0},
                         ClientId(std::string(65, 'y')))
                .status()
                .code(),
            Status::Code::kInvalidArgument);

  for (int i = 0; i < 24; ++i) {
    auto s = server.ScoreSync("ls", {0}, {2.0}, ClientId("alpha"));
    ASSERT_TRUE(s.ok());
    EXPECT_DOUBLE_EQ(s.value(), 1.0);
  }
  for (int i = 0; i < 8; ++i) {
    auto s = server.ScoreSync("ls", {0}, {2.0}, ClientId("beta"));
    ASSERT_TRUE(s.ok());
  }
  // The client-less overloads land on kDefaultClient.
  ASSERT_TRUE(server.ScoreSync("ls", {0}, {2.0}).ok());
  server.Stop();

  const ServingStats stats = server.Stats();
  ASSERT_EQ(stats.families.size(), 1u);
  const FamilyServingStats& f = stats.families[0];
  const obs::RegistrySnapshot snap = server.telemetry().Snapshot();
  const obs::Labels ls_family = {{"family", "ls"}};
  EXPECT_EQ(snap.CounterValue("serve.rows", ls_family), 33u);
  ASSERT_EQ(f.clients.size(), 3u);  // alpha, beta, default (seen order)
  EXPECT_EQ(f.clients[0].client.str(), "alpha");
  EXPECT_DOUBLE_EQ(f.clients[0].weight, 2.0);
  EXPECT_EQ(f.clients[0].accepted, 24u);
  EXPECT_EQ(f.clients[0].served, 24u);
  EXPECT_EQ(f.clients[1].client.str(), "beta");
  EXPECT_EQ(f.clients[1].accepted, 8u);
  EXPECT_EQ(f.clients[2].client.str(), "default");
  EXPECT_EQ(f.clients[2].accepted, 1u);
  uint64_t accepted = 0;
  for (const auto& c : f.clients) accepted += c.accepted;
  EXPECT_EQ(accepted, snap.CounterValue("queue.accepted", ls_family));
  // The workers reported measured batch times into the controller, and
  // the calibrated estimate tracks the EWMA within the clamp.
  EXPECT_GT(snap.CounterValue("admission.cost_reports", ls_family), 0u);
  EXPECT_GT(snap.GaugeValue("admission.prior_row_us", ls_family), 0.0);
  EXPECT_GT(f.measured_row_us_ewma, 0.0);
  EXPECT_GT(f.est_row_us, 0.0);
}

TEST(AdmissionEngineTest, HogCannotStarveMiceUnderOverload) {
  // End-to-end fairness: one unthrottled hog floods a one-worker engine
  // while three mice trickle synchronous requests. Per-client shares
  // must keep the mice's rejection ratio well under the hog's.
  models::LogisticSpec lr;
  const Index dim = 128;
  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.num_threads = 1;
  opts.batch.max_batch_size = 16;
  opts.batch.max_delay = std::chrono::microseconds(100);
  opts.batch.max_queue_rows = 128;
  ServingEngine server(opts);
  ServingFamilyOptions fam = ServeFamily(dim);
  fam.client_weights = {{ClientId("hog"), 1.0},
                        {ClientId("m0"), 1.0},
                        {ClientId("m1"), 1.0},
                        {ClientId("m2"), 1.0}};
  ASSERT_TRUE(server.RegisterFamily("lr", &lr, fam).ok());
  server.Publish("lr", std::vector<double>(dim, 0.01));
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hog_submitted{0};
  std::atomic<uint64_t> hog_rejected{0};
  std::thread hog([&] {
    std::vector<double> row(dim, 1.0);
    std::vector<std::future<double>> futures;
    while (!stop.load(std::memory_order_acquire)) {
      auto fut = server.Score("lr", {}, row, ClientId("hog"));
      hog_submitted.fetch_add(1);
      if (fut.ok()) {
        futures.push_back(std::move(fut).value());
        if (futures.size() >= 512) {
          for (auto& ff : futures) ff.get();
          futures.clear();
        }
      } else {
        hog_rejected.fetch_add(1);
      }
    }
    for (auto& ff : futures) ff.get();
  });

  uint64_t mice_submitted = 0;
  uint64_t mice_rejected = 0;
  const std::vector<ClientId> mice = {ClientId("m0"), ClientId("m1"),
                                      ClientId("m2")};
  std::vector<double> row(dim, 1.0);
  for (int i = 0; i < 300; ++i) {
    const ClientId& m = mice[i % mice.size()];
    ++mice_submitted;
    auto s = server.ScoreSync("lr", {}, row, m);
    if (!s.ok()) {
      ASSERT_EQ(s.status().code(), Status::Code::kResourceExhausted);
      ++mice_rejected;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true, std::memory_order_release);
  hog.join();
  server.Stop();

  const double mice_ratio = static_cast<double>(mice_rejected) /
                            static_cast<double>(mice_submitted);
  // The mice keep almost all of their traffic regardless of what the
  // hog managed to do to the queue (generous bound: CI machines vary).
  EXPECT_LT(mice_ratio, 0.2);
  const ServingStats stats = server.Stats();
  ASSERT_EQ(stats.families.size(), 1u);
  uint64_t stats_hog_rejected = 0;
  for (const RequestBatcher::ClientStats& c : stats.families[0].clients) {
    if (c.client.str() == "hog") stats_hog_rejected = c.rejected;
  }
  EXPECT_EQ(stats_hog_rejected, hog_rejected.load());
}

}  // namespace
}  // namespace dw::serve
