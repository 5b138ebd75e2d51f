// Live placement tuner: the control loop that keeps the serving stack's
// cost-model decisions true under the traffic it actually serves.
//
// Every placement decision in this repo is chosen by a calibrated
// memory-model cost comparison -- but before this tuner it was chosen
// ONCE, from a registration-time traffic ESTIMATE, and then frozen.
// DimmWitted's core result is that the right replication/access-method
// choice depends on the workload; a workload that shifts after
// registration silently invalidates the choice, and the engine keeps
// paying the wrong placement's bytes forever.
//
// The tuner closes the loop. Each scan it diffs the engine's
// obs::Registry (obs::SnapshotDelta) to derive every family's OBSERVED
// traffic -- rows scored and model publishes, store gathers and table
// refreshes, snapshot staleness -- prices the interval it observed with
// the same chooser the registration path used (opt/placement.h), and,
// when the decision flips with enough modeled advantage for enough
// consecutive scans (hysteresis against flapping), live-migrates:
//
//   model side:  serve::ModelFamily::Republish(new_replication) rebuilds
//                the current weights under the new strategy through the
//                regular hot-swap path; in-flight batches keep the
//                snapshot they hold, so nothing tears.
//   store side:  serve::FeatureStore::Republish(new_placement), same
//                discipline.
//   admission:   opt::AdmissionController::UpdateModelSharing re-prices
//                the per-row prior and resets the EWMA calibration
//                window (it measured the old placement).
//   exporter:    serve::SnapshotExporter::SetPeriod stretches/tightens
//                the publish cadence against a staleness SLO.
//
// Every decision -- migrated or held -- lands in a bounded audit trail
// (Decisions()) carrying the cost-model inputs that produced it, plus
// tuner.* registry metrics and a structured DW_LOG line.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "numa/topology.h"
#include "obs/metrics.h"
#include "opt/admission_controller.h"
#include "opt/placement.h"
#include "serve/feature_store.h"
#include "serve/model_family.h"
#include "util/periodic_loop.h"

namespace dw::serve {
// Forward declared: snapshot_exporter.h includes serving_engine.h, which
// includes this header -- the exporter hook must not close that cycle.
class SnapshotExporter;
}  // namespace dw::serve

namespace dw::opt {

struct TunerOptions {
  /// Background scan cadence (Start()). Zero means MANUAL: Start()
  /// spawns no thread and the owner drives ScanOnce() itself -- the
  /// deterministic mode tests and benches use.
  std::chrono::milliseconds scan_period{250};
  /// Serving staleness SLO in ms, judged against the mean staleness
  /// observed over a scan interval. When an exporter is attached for a
  /// family, the tuner halves its period floor while staleness
  /// overshoots the SLO and doubles it while staleness sits under a
  /// quarter of the SLO, saving publish bandwidth. Floors are whole ms:
  /// a halving rounds to the nearest ms (never under 1), and a doubling
  /// is capped at max(1, floor(SLO)). <= 0 disables exporter-period
  /// control.
  double staleness_slo_ms = 0.0;
  /// Hysteresis gate: the challenger strategy must model at least this
  /// cost advantage (incumbent cost / challenger cost) for a scan to
  /// count as a flip vote. 1.0 votes on any modeled win.
  double min_advantage = 1.05;
  /// Hysteresis depth: consecutive voting scans required before the
  /// tuner migrates. Guards a noisy boundary workload from flapping
  /// (every flip copies a model or a table).
  int confirm_scans = 2;
  /// Evidence floor: a scan that observed fewer rows (or gathers) than
  /// this does not vote -- a quiet interval says nothing about the mix.
  uint64_t min_observed_rows = 256;
};

/// One audit-trail entry: what the tuner saw and what it did about it.
struct TunerDecision {
  uint64_t scan = 0;  ///< ScanOnce() sequence number, from 1
  std::string family;
  /// "replication" | "store_placement" | "exporter_period"
  std::string kind;
  std::string from;      ///< incumbent strategy (or period in ms)
  std::string to;        ///< chosen strategy (or period in ms)
  bool migrated = false; ///< false: held by hysteresis
  // Cost-model inputs. The chooser prices the whole interval (its rows or
  // gathers against its publishes or refreshes); the per-publish ratio is
  // reported as rows / max(1, publishes), a lower bound when the interval
  // saw no publish.
  double observed_reads_per_period = 0.0;  ///< rows/publish or gathers/refresh
  uint64_t observed_rows = 0;        ///< rows (or gathers) this interval
  double observed_staleness_ms = 0.0;  ///< exporter decisions only
  /// Store decisions only: the interval's store.delta_bytes /
  /// store.full_bytes ratio -- what publishes actually wrote vs what
  /// full rewrites would have. 1.0 (full rewrite) when the interval saw
  /// no refresh bytes; passed to ChooseStorePlacement as the churn so
  /// the chooser prices replication's refresh penalty at the churn the
  /// store really sees.
  double observed_churn = 1.0;
  double incumbent_cost_sec = 0.0;   ///< modeled period cost, incumbent
  double challenger_cost_sec = 0.0;  ///< modeled period cost, challenger
  double advantage = 0.0;            ///< incumbent / challenger cost
  std::string rationale;  ///< chooser rationale, or why the tuner held
};

/// The live placement control loop. Register families (AddFamily) and
/// optionally their exporters (AttachExporter) before Start(); drive
/// scans from the background thread or manually through ScanOnce().
/// Thread-safe; typically owned by serve::ServingEngine (EnableTuner).
class PlacementTuner {
 public:
  /// `registry` is the metric source the engine's workers write into
  /// (and the sink for the tuner's own tuner.* instruments); it must be
  /// non-null and outlive the tuner. A DISABLED registry leaves the
  /// tuner blind (every observed rate reads 0), so the owner should
  /// refuse to enable tuning without telemetry.
  PlacementTuner(const numa::Topology& topo, obs::Registry* registry,
                 TunerOptions options);

  PlacementTuner(const PlacementTuner&) = delete;
  PlacementTuner& operator=(const PlacementTuner&) = delete;

  /// Registers one family for tuning; call before Start(). `family`
  /// must be non-null and outlive the tuner; `store` may be null (no
  /// store side), as may `admission` (no prior re-pricing on
  /// migration). `traffic` carries the registration-time batch shape
  /// (expected_batch_rows); its reads_per_publish is ignored -- that is
  /// exactly the number the tuner observes.
  void AddFamily(serve::ModelFamily* family, serve::FeatureStore* store,
                 AdmissionController* admission, int admission_id,
                 const ServingTrafficEstimate& traffic);

  /// Attaches `family`'s exporter for staleness-SLO period control
  /// (checked: the family must have been added). Inert unless
  /// TunerOptions::staleness_slo_ms > 0.
  void AttachExporter(const std::string& family,
                      serve::SnapshotExporter* exporter);

  /// Starts the background scan thread; a second call dies. Manual mode
  /// (scan_period == 0) starts nothing.
  void Start();

  /// Stops and joins the scan thread; no final scan. Idempotent; also
  /// run by the destructor.
  void Stop();

  /// One synchronous scan-and-migrate pass over every family; the unit
  /// the background thread loops. Returns the number of migrations
  /// performed (model + store flips; exporter adjustments excluded).
  /// Safe to call concurrently with the background thread and with live
  /// traffic.
  int ScanOnce();

  /// The audit trail, oldest first (bounded: the newest kMaxDecisions).
  std::vector<TunerDecision> Decisions() const;

  /// ScanOnce() passes so far: the scan number the audit trail stamps.
  /// Every other count is a tuner.* metric on the registry: completed
  /// migrations are tuner.flips{kind=replication|store_placement},
  /// exporter cadence changes tuner.period_adjustments, and
  /// tuner.holds/tuner.scans count the rest.
  uint64_t scans() const;

  /// Retained audit-trail bound (holds included).
  static constexpr size_t kMaxDecisions = 512;

 private:
  /// Tuning state of one replicate-vs-share decision: a family's model
  /// replication or its store's placement.
  struct Side {
    /// Version watermark from the previous scan: the interval's publish
    /// (or refresh) count diffs against it, and migrations advance it, so
    /// a tuner-caused republish never masquerades as trainer traffic.
    uint64_t last_version = 0;
    /// Consecutive confirming votes toward a pending flip.
    int votes = 0;
    obs::Gauge* reads_gauge = nullptr;  ///< tuner.observed_reads_per_*
  };

  struct TunedFamily {
    serve::ModelFamily* family = nullptr;
    serve::FeatureStore* store = nullptr;
    AdmissionController* admission = nullptr;
    int admission_id = 0;
    serve::SnapshotExporter* exporter = nullptr;
    /// Registration-time batch shape; its reads_per_publish is unused (the
    /// tuner prices the rows it observes).
    ServingTrafficEstimate traffic;
    Side model;
    Side table;
  };

  void TuneModel(const obs::SnapshotDelta& delta, TunedFamily& tf,
                 int* migrations);
  void TuneStore(const obs::SnapshotDelta& delta, TunedFamily& tf,
                 int* migrations);
  /// The re-cost path both sides share. `d` names the family, the kind
  /// and the from/to layouts and carries the observed interval; `choice`
  /// priced that interval of `publishes` publishes. Applies the evidence
  /// floor, the advantage gate and the confirmation votes, audits the
  /// decision, and on a confirmed flip calls `migrate`, which republishes
  /// under the winning layout and returns the new version.
  void Recost(Side& side, TunerDecision d, uint64_t publishes,
              bool incumbent_replicates, const PlacementChoice& choice,
              const std::function<uint64_t()>& migrate, int* migrations);
  void TuneExporter(const obs::SnapshotDelta& delta, TunedFamily& tf);
  /// Appends to the audit trail, bumps the tuner.* counters, and emits
  /// the structured log line (mu_ held).
  void RecordDecision(TunerDecision d);

  const numa::Topology topo_;
  obs::Registry* registry_;
  const TunerOptions options_;

  obs::Counter* scans_counter_ = nullptr;
  obs::Counter* model_flips_counter_ = nullptr;
  obs::Counter* store_flips_counter_ = nullptr;
  obs::Counter* holds_counter_ = nullptr;
  obs::Counter* period_adjust_counter_ = nullptr;

  /// Guards the families, the decision trail, and the scan state (one
  /// scan at a time; scans are monitoring-rate, contention-free).
  mutable std::mutex mu_;
  std::deque<TunedFamily> families_;
  std::deque<TunerDecision> decisions_;
  obs::RegistrySnapshot prev_snapshot_;
  uint64_t scan_seq_ = 0;

  /// The scan thread. Its lock is its own, not mu_, so Stop() never
  /// waits behind a scan; declared last, so it is joined before the
  /// members a scan reads are destroyed.
  PeriodicLoop loop_;
};

}  // namespace dw::opt
