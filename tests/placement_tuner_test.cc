// Tests for opt::PlacementTuner: the live control loop that re-runs the
// registration-time placement choosers on OBSERVED traffic and migrates
// model replication / store placement / exporter cadence at runtime.
// Covers the frozen-decision fix end-to-end (a family registered under
// the wrong strategy is flipped once real traffic disagrees), hysteresis
// (advantage gate + confirmation scans), the audit trail's cost-model
// inputs, admission re-pricing on migration, staleness-SLO exporter
// control, and the migration-under-load stress property: concurrent
// republishes tear nothing, versions stay monotone, and margins stay
// bitwise stable across placements.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "models/glm.h"
#include "opt/placement_tuner.h"
#include "serve/serving_engine.h"
#include "serve/snapshot_exporter.h"

namespace dw::serve {
namespace {

using matrix::Index;

ServingFamilyOptions ServePinned(Index dim, Replication rep) {
  ServingFamilyOptions o;
  o.traffic.dim = dim;
  o.replication_override = rep;
  return o;
}

/// Manual-mode tuner options for deterministic tests: the test drives
/// every scan itself through ScanOnce().
opt::TunerOptions ManualTuner(double min_advantage = 1.05,
                              int confirm_scans = 1,
                              uint64_t min_observed_rows = 256) {
  opt::TunerOptions t;
  t.scan_period = std::chrono::milliseconds(0);
  t.min_advantage = min_advantage;
  t.confirm_scans = confirm_scans;
  t.min_observed_rows = min_observed_rows;
  return t;
}

/// Submits `rows` dense carried requests (all features 1.0) and waits for
/// every score, retrying only on back-pressure. Then settles briefly so
/// the workers' post-resolution counter flushes land before a scan reads
/// them (set_value precedes the registry adds in WorkerLoop).
void DriveCarried(ServingEngine& server, const std::string& family,
                  Index dim, int rows) {
  const std::vector<double> vals(dim, 1.0);
  std::vector<std::future<double>> futs;
  futs.reserve(rows);
  for (int i = 0; i < rows; ++i) {
    for (;;) {
      auto fut = server.Score(family, std::vector<Index>{}, vals);
      if (fut.ok()) {
        futs.push_back(std::move(fut).value());
        break;
      }
      ASSERT_EQ(fut.status().code(), Status::Code::kResourceExhausted)
          << fut.status().ToString();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  for (auto& f : futs) f.get();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

/// Id-keyed twin of DriveCarried: scores rows 0..store_rows-1 round-robin.
void DriveIdKeyed(ServingEngine& server, const std::string& family,
                  Index store_rows, int rows) {
  std::vector<std::future<double>> futs;
  futs.reserve(rows);
  for (int i = 0; i < rows; ++i) {
    const Index row = static_cast<Index>(i) % store_rows;
    for (;;) {
      auto fut = server.Score(family, row);
      if (fut.ok()) {
        futs.push_back(std::move(fut).value());
        break;
      }
      ASSERT_EQ(fut.status().code(), Status::Code::kResourceExhausted)
          << fut.status().ToString();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  for (auto& f : futs) f.get();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

/// An engine on the 2-socket test topology with fast flushes.
ServingOptions TunedEngineOptions() {
  ServingOptions opts;
  opts.topology = numa::Local2();
  opts.batch.max_batch_size = 64;
  opts.batch.max_delay = std::chrono::microseconds(100);
  return opts;
}

// --- replication flip -----------------------------------------------------

TEST(PlacementTunerTest, FlipsFrozenReplicationUnderReadHeavyTraffic) {
  // The frozen-decision bug this tuner fixes: a family registered
  // kPerMachine (right for a republish-heavy estimate) that then serves
  // read-heavy traffic pays the interconnect on every remote batch
  // forever. The tuner must observe the real read/publish asymmetry and
  // migrate to kPerNode.
  models::SvmSpec svm;
  constexpr Index kDim = 128;
  ServingEngine server(TunedEngineOptions());
  ASSERT_TRUE(
      server.RegisterFamily("m", &svm,
                            ServePinned(kDim, Replication::kPerMachine))
          .ok());
  server.Publish("m", std::vector<double>(kDim, 1.0));
  ASSERT_TRUE(server.Start().ok());

  opt::PlacementTuner* tuner = server.EnableTuner(ManualTuner());
  ASSERT_NE(tuner, nullptr);
  EXPECT_EQ(server.tuner(), tuner);

  const double prior_per_machine = server.admission().Estimate(0).prior_row_sec;

  // 4096 reads in an interval without a publish (the first one predates
  // the tuner): on local2 the chooser models a ~1.13x win for kPerNode at
  // dim 128 (probed against the memory model), past the 1.05 gate.
  DriveCarried(server, "m", kDim, 4096);
  EXPECT_EQ(tuner->flips(), 0u);
  EXPECT_EQ(tuner->ScanOnce(), 1);
  EXPECT_EQ(tuner->scans(), 1u);
  EXPECT_EQ(tuner->flips(), 1u);
  EXPECT_EQ(server.FindFamily("m")->replication(), Replication::kPerNode);
  // The migration republished through the regular hot-swap path.
  EXPECT_EQ(server.FindFamily("m")->current_version(), 2u);

  // The audit trail carries the cost-model inputs the decision ran on.
  const std::vector<opt::TunerDecision> decisions = tuner->Decisions();
  ASSERT_EQ(decisions.size(), 1u);
  const opt::TunerDecision& d = decisions.back();
  EXPECT_EQ(d.scan, 1u);
  EXPECT_EQ(d.family, "m");
  EXPECT_EQ(d.kind, "replication");
  EXPECT_STREQ(d.from.c_str(), ToString(Replication::kPerMachine));
  EXPECT_STREQ(d.to.c_str(), ToString(Replication::kPerNode));
  EXPECT_TRUE(d.migrated);
  // Worker counter flushes may trail the last resolved future by a few
  // in-flight batches; the bulk of the interval's rows must be there.
  EXPECT_GE(d.observed_rows, 3000u);
  EXPECT_GE(d.observed_reads_per_period, 3000.0);
  EXPECT_GT(d.challenger_cost_sec, 0.0);
  EXPECT_GT(d.incumbent_cost_sec, d.challenger_cost_sec);
  EXPECT_GE(d.advantage, 1.05);
  EXPECT_FALSE(d.rationale.empty());

  // Satellite: migration re-priced admission (all-local reads are
  // cheaper than interconnect-shared ones) and reset the calibration
  // window -- the EWMA measured the OLD placement.
  const opt::AdmissionEstimate est = server.admission().Estimate(0);
  EXPECT_LT(est.prior_row_sec, prior_per_machine);
  EXPECT_EQ(est.reported_batches, 0u);
  EXPECT_DOUBLE_EQ(est.est_row_sec, est.prior_row_sec);

  // Service continues correctly under the new placement, and the next
  // busy interval endorses the incumbent: no decision, no flip-back.
  DriveCarried(server, "m", kDim, 4096);
  EXPECT_EQ(tuner->ScanOnce(), 0);
  EXPECT_EQ(tuner->flips(), 1u);
  EXPECT_EQ(tuner->Decisions().size(), 1u);
  auto s = server.ScoreSync("m", std::vector<Index>{},
                            std::vector<double>(kDim, 1.0));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), static_cast<double>(kDim));
  server.Stop();
}

// --- store placement flip -------------------------------------------------

TEST(PlacementTunerTest, FlipsStorePlacementAndKeepsMarginsExact) {
  // Store-side twin: a gather-heavy table frozen kSharded pays the
  // interconnect on half its gathers (local2). The tuner must migrate it
  // to kReplicated, and the migration must be invisible to correctness:
  // every margin is an integer sum, so scores are bitwise identical
  // before, during, and after.
  models::SvmSpec svm;
  constexpr Index kDim = 128;
  constexpr Index kRows = 128;
  ServingEngine server(TunedEngineOptions());
  ASSERT_TRUE(
      server.RegisterFamily("m", &svm, ServePinned(kDim, Replication::kPerNode))
          .ok());
  StoreOptions sopts;
  sopts.placement_override = StorePlacement::kSharded;
  ASSERT_TRUE(server.RegisterStore("m", kRows, kDim, sopts).ok());
  // Row r holds kDim copies of (r+1): with unit weights the margin is
  // exactly kDim * (r+1) in any summation order (integer doubles).
  std::vector<double> table(static_cast<size_t>(kRows) * kDim);
  for (Index r = 0; r < kRows; ++r) {
    for (Index c = 0; c < kDim; ++c) {
      table[static_cast<size_t>(r) * kDim + c] = static_cast<double>(r + 1);
    }
  }
  server.PublishStore("m", table);
  server.Publish("m", std::vector<double>(kDim, 1.0));
  ASSERT_TRUE(server.Start().ok());
  const FeatureStore* store = server.FindStore("m");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->placement(), StorePlacement::kSharded);

  opt::PlacementTuner* tuner =
      server.EnableTuner(ManualTuner(/*min_advantage=*/1.2));

  for (const Index r : {Index{0}, Index{63}, Index{127}}) {
    auto s = server.ScoreSync("m", r);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s.value(), static_cast<double>(kDim) * (r + 1));
  }

  // 4096 gathers against zero refreshes: the chooser models a ~2x win
  // for kReplicated on this 128x128 table, past the 1.2 gate.
  DriveIdKeyed(server, "m", kRows, 4096);
  EXPECT_EQ(tuner->ScanOnce(), 1);
  EXPECT_EQ(tuner->flips(), 1u);
  EXPECT_EQ(store->placement(), StorePlacement::kReplicated);
  EXPECT_EQ(store->current_version(), 2u);

  const std::vector<opt::TunerDecision> decisions = tuner->Decisions();
  ASSERT_EQ(decisions.size(), 1u);
  const opt::TunerDecision& d = decisions.back();
  EXPECT_EQ(d.kind, "store_placement");
  EXPECT_STREQ(d.from.c_str(), ToString(StorePlacement::kSharded));
  EXPECT_STREQ(d.to.c_str(), ToString(StorePlacement::kReplicated));
  EXPECT_TRUE(d.migrated);
  EXPECT_GE(d.observed_rows, 3000u);
  EXPECT_GT(d.incumbent_cost_sec, d.challenger_cost_sec);
  EXPECT_FALSE(d.rationale.empty());

  // The republished table serves the same bytes: margins unchanged,
  // bitwise.
  for (const Index r : {Index{0}, Index{63}, Index{127}}) {
    auto s = server.ScoreSync("m", r);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s.value(), static_cast<double>(kDim) * (r + 1));
  }
  server.Stop();
}

TEST(PlacementTunerTest, RefreshFreeIntervalsKeepReplicatedStore) {
  // The tuner prices the interval it observed. Gathers against zero
  // refreshes carry no write term, so on local2 kReplicated (all-local
  // gathers) wins such an interval at any gather count. Priced as if it
  // held one full refresh, 256 gathers of this 128x64 table model
  // kSharded ~1.09x cheaper and flip the store back: the flip-back a
  // slow 3 ms scan used to cause in
  // MigrationUnderLoadNeverFailsOrTearsRequests.
  models::SvmSpec svm;
  constexpr Index kDim = 64;
  constexpr Index kRows = 128;
  ServingEngine server(TunedEngineOptions());
  ASSERT_TRUE(
      server.RegisterFamily("m", &svm, ServePinned(kDim, Replication::kPerNode))
          .ok());
  StoreOptions sopts;
  sopts.placement_override = StorePlacement::kReplicated;
  ASSERT_TRUE(server.RegisterStore("m", kRows, kDim, sopts).ok());
  server.PublishStore("m",
                      std::vector<double>(static_cast<size_t>(kRows) * kDim));
  server.Publish("m", std::vector<double>(kDim, 1.0));
  ASSERT_TRUE(server.Start().ok());
  opt::PlacementTuner* tuner = server.EnableTuner(
      ManualTuner(/*min_advantage=*/1.0, /*confirm_scans=*/1,
                  /*min_observed_rows=*/64));

  for (int round = 0; round < 3; ++round) {
    DriveIdKeyed(server, "m", kRows, 256);
    tuner->ScanOnce();
  }
  EXPECT_EQ(tuner->flips(), 0u);
  EXPECT_EQ(server.FindStore("m")->placement(), StorePlacement::kReplicated);
  server.Stop();
}

// --- hysteresis -----------------------------------------------------------

TEST(PlacementTunerTest, HysteresisRequiresConsecutiveConfirmingScans) {
  models::SvmSpec svm;
  constexpr Index kDim = 128;
  ServingEngine server(TunedEngineOptions());
  ASSERT_TRUE(
      server.RegisterFamily("m", &svm,
                            ServePinned(kDim, Replication::kPerMachine))
          .ok());
  server.Publish("m", std::vector<double>(kDim, 1.0));
  ASSERT_TRUE(server.Start().ok());
  opt::PlacementTuner* tuner =
      server.EnableTuner(ManualTuner(/*min_advantage=*/1.05,
                                     /*confirm_scans=*/2));

  // First confirming scan: a vote, not a migration.
  DriveCarried(server, "m", kDim, 4096);
  EXPECT_EQ(tuner->ScanOnce(), 0);
  EXPECT_EQ(tuner->flips(), 0u);
  EXPECT_EQ(server.FindFamily("m")->replication(), Replication::kPerMachine);
  {
    const std::vector<opt::TunerDecision> decisions = tuner->Decisions();
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_FALSE(decisions[0].migrated);
    EXPECT_NE(decisions[0].rationale.find("awaiting confirmation (1/2"),
              std::string::npos)
        << decisions[0].rationale;
  }

  // Second consecutive confirming scan migrates.
  DriveCarried(server, "m", kDim, 4096);
  EXPECT_EQ(tuner->ScanOnce(), 1);
  EXPECT_EQ(tuner->flips(), 1u);
  EXPECT_EQ(server.FindFamily("m")->replication(), Replication::kPerNode);
  const std::vector<opt::TunerDecision> decisions = tuner->Decisions();
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_TRUE(decisions[1].migrated);
  server.Stop();
}

TEST(PlacementTunerTest, AdvantageGateHoldsMarginalWins) {
  // With an absurdly high gate, the chooser's flip never clears the
  // hysteresis: the tuner records held decisions (with the modeled
  // costs) and migrates nothing, however many scans confirm.
  models::SvmSpec svm;
  constexpr Index kDim = 128;
  ServingEngine server(TunedEngineOptions());
  ASSERT_TRUE(
      server.RegisterFamily("m", &svm,
                            ServePinned(kDim, Replication::kPerMachine))
          .ok());
  server.Publish("m", std::vector<double>(kDim, 1.0));
  ASSERT_TRUE(server.Start().ok());
  opt::PlacementTuner* tuner =
      server.EnableTuner(ManualTuner(/*min_advantage=*/10.0));

  for (int scan = 0; scan < 2; ++scan) {
    DriveCarried(server, "m", kDim, 4096);
    EXPECT_EQ(tuner->ScanOnce(), 0);
  }
  EXPECT_EQ(tuner->flips(), 0u);
  EXPECT_EQ(server.FindFamily("m")->replication(), Replication::kPerMachine);
  const std::vector<opt::TunerDecision> decisions = tuner->Decisions();
  ASSERT_EQ(decisions.size(), 2u);
  for (const opt::TunerDecision& d : decisions) {
    EXPECT_FALSE(d.migrated);
    EXPECT_NE(d.rationale.find("under gate"), std::string::npos)
        << d.rationale;
    EXPECT_GT(d.advantage, 1.0);
    EXPECT_LT(d.advantage, 10.0);
  }
  // The holds surfaced on the engine's registry too.
  uint64_t holds = 0;
  for (const obs::MetricSnapshot& m : server.telemetry().Snapshot().metrics) {
    if (m.name == "tuner.holds") holds = m.counter_value;
  }
  EXPECT_EQ(holds, 2u);
  server.Stop();
}

TEST(PlacementTunerTest, QuietIntervalNeitherVotesNorDecides) {
  // An interval under the evidence floor says nothing about the traffic
  // mix: no vote, no audit entry, no migration -- whatever the chooser
  // would have said about 32 rows.
  models::SvmSpec svm;
  constexpr Index kDim = 128;
  ServingEngine server(TunedEngineOptions());
  ASSERT_TRUE(
      server.RegisterFamily("m", &svm,
                            ServePinned(kDim, Replication::kPerMachine))
          .ok());
  server.Publish("m", std::vector<double>(kDim, 1.0));
  ASSERT_TRUE(server.Start().ok());
  opt::PlacementTuner* tuner = server.EnableTuner(
      ManualTuner(/*min_advantage=*/1.05, /*confirm_scans=*/1,
                  /*min_observed_rows=*/256));

  DriveCarried(server, "m", kDim, 32);
  EXPECT_EQ(tuner->ScanOnce(), 0);
  EXPECT_EQ(tuner->flips(), 0u);
  EXPECT_TRUE(tuner->Decisions().empty());
  EXPECT_EQ(server.FindFamily("m")->replication(), Replication::kPerMachine);
  server.Stop();
}

// --- exporter period control ----------------------------------------------

/// Trainer + server + exporter triple for the staleness-SLO tests.
struct ExporterRig {
  data::Dataset dataset;
  models::LeastSquaresSpec spec;
  std::unique_ptr<engine::Engine> trainer;
  std::unique_ptr<ServingEngine> server;
  std::unique_ptr<SnapshotExporter> exporter;

  explicit ExporterRig(std::chrono::milliseconds period) {
    dataset.name = "tuner-exporter";
    dataset.a = data::MakeDenseTable(
        {.rows = 60, .cols = 8, .feature_correlation = 0.2, .seed = 91});
    dataset.b = data::PlantClassificationLabels(dataset.a, 8, 0.0, 92);
    engine::EngineOptions topts;
    topts.topology = numa::Local2();
    trainer = std::make_unique<engine::Engine>(&dataset, &spec, topts);
    DW_CHECK(trainer->Init().ok());
    ServingOptions opts;
    opts.topology = numa::Local2();
    opts.num_threads = 2;
    opts.batch.max_batch_size = 8;
    opts.batch.max_delay = std::chrono::microseconds(100);
    server = std::make_unique<ServingEngine>(opts);
    DW_CHECK(server
                 ->RegisterFamily("ls", &spec,
                                  ServePinned(8, Replication::kPerNode))
                 .ok());
    SnapshotExporter::Options eopts;
    eopts.period = period;
    exporter = std::make_unique<SnapshotExporter>(trainer.get(), server.get(),
                                                  "ls", eopts);
    exporter->Start();  // its first publish makes the family servable
    DW_CHECK(server->Start().ok());
  }
};

TEST(PlacementTunerTest, TightensExporterPeriodOverStalenessSlo) {
  ExporterRig rig(std::chrono::milliseconds(50));
  EXPECT_DOUBLE_EQ(rig.exporter->period_floor_ms(), 50.0);

  opt::TunerOptions topts = ManualTuner();
  // Placement tuning stays out of the way: the evidence floor is never
  // met, so only the exporter-period controller acts.
  topts.min_observed_rows = 1u << 30;
  // Any real staleness overshoots a microsecond SLO: the controller must
  // halve the floor.
  topts.staleness_slo_ms = 1e-3;
  opt::PlacementTuner* tuner = rig.server->EnableTuner(topts);
  tuner->AttachExporter("ls", rig.exporter.get());

  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(rig.server->ScoreSync("ls", {0}, {1.0}).ok());
  }
  EXPECT_EQ(tuner->ScanOnce(), 0);  // period changes are not migrations
  EXPECT_EQ(tuner->period_adjustments(), 1u);
  EXPECT_DOUBLE_EQ(rig.exporter->period_floor_ms(), 25.0);

  const std::vector<opt::TunerDecision> decisions = tuner->Decisions();
  ASSERT_EQ(decisions.size(), 1u);
  const opt::TunerDecision& d = decisions.back();
  EXPECT_EQ(d.kind, "exporter_period");
  EXPECT_EQ(d.from, "50ms");
  EXPECT_EQ(d.to, "25ms");
  EXPECT_GT(d.observed_staleness_ms, 0.0);
  EXPECT_NE(d.rationale.find("SLO"), std::string::npos);

  rig.exporter->Stop();
  rig.server->Stop();
}

TEST(PlacementTunerTest, StretchesExporterPeriodFarUnderSlo) {
  ExporterRig rig(std::chrono::milliseconds(50));

  opt::TunerOptions topts = ManualTuner();
  topts.min_observed_rows = 1u << 30;
  // A million-ms SLO with the default 0.25 slack: observed staleness sits
  // far under the stretch threshold, so the controller doubles the floor
  // to save publish bandwidth (capped at the SLO, far away here).
  topts.staleness_slo_ms = 1e6;
  opt::PlacementTuner* tuner = rig.server->EnableTuner(topts);
  tuner->AttachExporter("ls", rig.exporter.get());

  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(rig.server->ScoreSync("ls", {0}, {1.0}).ok());
  }
  EXPECT_EQ(tuner->ScanOnce(), 0);
  EXPECT_EQ(tuner->period_adjustments(), 1u);
  EXPECT_DOUBLE_EQ(rig.exporter->period_floor_ms(), 100.0);

  rig.exporter->Stop();
  rig.server->Stop();
}

// --- background thread ----------------------------------------------------

TEST(PlacementTunerTest, BackgroundThreadScansAndStopsIdempotently) {
  models::SvmSpec svm;
  constexpr Index kDim = 64;
  ServingEngine server(TunedEngineOptions());
  ASSERT_TRUE(
      server.RegisterFamily("m", &svm,
                            ServePinned(kDim, Replication::kPerMachine))
          .ok());
  server.Publish("m", std::vector<double>(kDim, 1.0));
  ASSERT_TRUE(server.Start().ok());

  opt::TunerOptions topts = ManualTuner();
  topts.scan_period = std::chrono::milliseconds(5);
  opt::PlacementTuner* tuner = server.EnableTuner(topts);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_GE(tuner->scans(), 2u);
  tuner->Stop();
  tuner->Stop();  // idempotent
  const uint64_t scans = tuner->scans();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(tuner->scans(), scans);  // no scans after Stop
  server.Stop();                     // engine Stop tolerates a stopped tuner
}

// --- migration under load -------------------------------------------------

TEST(PlacementTunerTest, MigrationUnderLoadNeverFailsOrTearsRequests) {
  // The stress acceptance test: producers hammer id-keyed requests while
  // (a) a hostile thread flip-flops the model's replication through
  // Republish, (b) the tuner live-migrates the store off its frozen
  // kSharded placement, and (c) a monitor watches both version chains.
  // Invariants: no request ever fails for any reason but back-pressure,
  // every margin is bitwise exact under every placement, and versions
  // never move backwards.
  models::SvmSpec svm;
  constexpr Index kDim = 64;
  constexpr Index kRows = 128;
  ServingOptions opts = TunedEngineOptions();
  opts.num_threads = 4;
  opts.batch.max_batch_size = 32;
  ServingEngine server(opts);
  ASSERT_TRUE(
      server.RegisterFamily("hot", &svm,
                            ServePinned(kDim, Replication::kPerMachine))
          .ok());
  StoreOptions sopts;
  sopts.placement_override = StorePlacement::kSharded;
  ASSERT_TRUE(server.RegisterStore("hot", kRows, kDim, sopts).ok());
  std::vector<double> table(static_cast<size_t>(kRows) * kDim);
  for (Index r = 0; r < kRows; ++r) {
    for (Index c = 0; c < kDim; ++c) {
      table[static_cast<size_t>(r) * kDim + c] = static_cast<double>(r + 1);
    }
  }
  server.PublishStore("hot", table);
  server.Publish("hot", std::vector<double>(kDim, 1.0));
  ASSERT_TRUE(server.Start().ok());
  opt::PlacementTuner* tuner = server.EnableTuner(
      ManualTuner(/*min_advantage=*/1.0, /*confirm_scans=*/1,
                  /*min_observed_rows=*/64));

  ModelFamily* family = server.FindFamily("hot");
  const FeatureStore* store = server.FindStore("hot");
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      Index i = static_cast<Index>(p);
      std::vector<std::pair<Index, std::future<double>>> inflight;
      while (!stop.load(std::memory_order_acquire)) {
        // Keep a window of requests in flight so the scan intervals see
        // gather volume well past the chooser's crossover.
        inflight.clear();
        for (int k = 0; k < 64; ++k) {
          const Index row = i % kRows;
          i += 4;
          auto s = server.Score("hot", row);
          if (!s.ok()) {
            // Back-pressure is the only acceptable refusal under load.
            ASSERT_EQ(s.status().code(), Status::Code::kResourceExhausted)
                << s.status().ToString();
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            continue;
          }
          inflight.emplace_back(row, std::move(s).value());
        }
        for (auto& [row, fut] : inflight) {
          // Bitwise-stable margin whatever placement served it.
          ASSERT_EQ(fut.get(), static_cast<double>(kDim) * (row + 1))
              << "torn read at row " << row;
          served.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Hostile republisher: flip-flops the model's replication through the
  // same live-migration path the tuner uses.
  std::thread flipper([&] {
    bool per_node = true;
    while (!stop.load(std::memory_order_acquire)) {
      family->Republish(per_node ? Replication::kPerNode
                                 : Replication::kPerMachine);
      per_node = !per_node;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  // Version chains must be monotone through every migration.
  std::thread monitor([&] {
    uint64_t model_v = 0;
    uint64_t store_v = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t mv = family->current_version();
      const uint64_t sv = store->current_version();
      ASSERT_GE(mv, model_v) << "model version went backwards";
      ASSERT_GE(sv, store_v) << "store version went backwards";
      model_v = mv;
      store_v = sv;
      std::this_thread::yield();
    }
  });

  for (int scan = 0; scan < 30; ++scan) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    tuner->ScanOnce();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : producers) t.join();
  flipper.join();
  monitor.join();

  // The tuner flipped the store off its frozen placement mid-flood.
  EXPECT_GE(tuner->flips(), 1u);
  EXPECT_EQ(store->placement(), StorePlacement::kReplicated);
  EXPECT_GT(served.load(), 0u);
  server.Stop();

  // Nothing was dropped: every accepted request was served.
  const obs::RegistrySnapshot snap = server.telemetry().Snapshot();
  EXPECT_EQ(snap.CounterValue("serve.rows", {{"family", "hot"}}),
            snap.CounterValue("queue.accepted", {{"family", "hot"}}));
}

}  // namespace
}  // namespace dw::serve
