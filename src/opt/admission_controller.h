// Cost-aware admission estimates for the serving request path (the
// admission-side sibling of placement.h's replicate-vs-share chooser).
//
// The paper's discipline is that a memory-model cost analysis, not a
// fixed heuristic, should decide how work maps onto the machine. The
// serving queue bound used to be exactly such a heuristic: RequestBatcher
// rejected past a hard-coded max_queue_rows, blind to what a queued row
// actually costs to serve -- 64 queued rows of a 16k-dim dense family are
// milliseconds of work, 64 rows of an 8-dim family are noise. The
// AdmissionController prices the backlog in TIME: it estimates a
// family's per-row batch service cost, and when the family sets a
// queueing-delay budget, admission rejects when the estimated
// time-to-drain of the backlog ahead of a request exceeds it.
//
// The estimate has two layers:
//
//   prior    -- numa::MemoryModel applied to one expected mini-batch
//               (rows x dim feature payload, one model stream per batch,
//               remote-read share when the replica is shared across
//               sockets). Available from registration time, before any
//               traffic, so a cold family is never admitted blind.
//   measured -- an EWMA of per-batch scoring wall times reported by the
//               serving workers (ReportBatch). This is the DINAMITE-style
//               feedback loop: measured service behavior corrects the
//               registration-time estimate online, so the admission
//               decision tracks what batches actually cost on THIS host,
//               not what the calibrated topology model predicted.
//
// EstimatedRowSeconds() is the prior scaled by the measured/prior ratio
// (clamped, so one garbage measurement cannot blow up admission); until
// the first report it is the prior itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "matrix/sparse_vector.h"
#include "numa/memory_model.h"
#include "numa/topology.h"
#include "obs/metrics.h"

namespace dw::opt {

/// Controller-wide knobs.
struct AdmissionControllerOptions {
  /// Workers concurrently draining the queues (the serving pool size).
  /// Time-to-drain divides by this: N workers retire a backlog N times
  /// faster than one.
  int drain_workers = 1;
  /// Clamp on the measured/prior calibration ratio: a single absurd
  /// measurement (clock glitch, page-fault storm) may pull the estimate
  /// at most this far from the memory-model prior in either direction.
  double max_calibration = 64.0;
};

/// Per-family cost profile, fixed at registration (mirrors the fields of
/// opt::ServingTrafficEstimate the batch cost actually depends on).
struct AdmissionFamilyProfile {
  /// Telemetry label for the family's admission gauges; "f<id>" when
  /// left empty. Purely observational -- no cost-model effect.
  std::string name;
  /// Model/feature width in doubles (required, > 0).
  matrix::Index dim = 0;
  /// Expected rows per flushed mini-batch.
  double expected_batch_rows = 64.0;
  /// Fraction of the model one batched scoring pass streams.
  double model_touch_fraction = 1.0;
  /// Sockets sharing one model replica (1 under kPerNode; num_nodes
  /// under kPerMachine, where most workers' model reads cross the
  /// interconnect).
  int model_sharing_sockets = 1;
};

/// Snapshot of one family's current estimate (all per-row seconds).
struct AdmissionEstimate {
  double prior_row_sec = 0.0;     ///< uncalibrated memory-model prior
  double est_row_sec = 0.0;       ///< prior x clamped measured/prior ratio
  double measured_row_sec_ewma = 0.0;  ///< 0 until the first report
  uint64_t reported_batches = 0;  ///< worker reports folded into the EWMA
};

/// Estimates batch service times per family and converts queue backlogs
/// into expected queueing delay. Thread-safe: registration is rare,
/// EstimatedRowSeconds runs under the batcher's admission lock, and
/// ReportBatch is one short critical section per scored batch.
class AdmissionController {
 public:
  explicit AdmissionController(numa::Topology topo,
                               AdmissionControllerOptions opts = {});

  /// Publishes the controller's estimates as gauges on `registry`
  /// (admission.prior_row_us / est_row_us / measured_row_us and the
  /// admission.cost_reports counter, labeled by family name). Call
  /// before AddFamily; nullptr (the default) keeps admission silent.
  /// `registry` must outlive the controller.
  void AttachRegistry(obs::Registry* registry);

  /// Registers a family; returns its id (dense, from 0 -- the caller
  /// keeps it aligned with the batcher's FamilyId). Checks dim > 0.
  int AddFamily(const AdmissionFamilyProfile& profile);

  /// Folds one measured batch (rows scored in `measured_sec` wall
  /// seconds by one worker) into the family's EWMA. Reports with no rows
  /// or a non-positive duration are dropped (clock granularity).
  void ReportBatch(int family, size_t rows, double measured_sec);

  /// Re-prices a family after a replication/placement change (the
  /// placement tuner calls this when it migrates): updates the profile's
  /// model_sharing_sockets, recomputes the memory-model prior, and
  /// RESETS the EWMA calibration window -- batch times measured under
  /// the old placement calibrate the wrong cost, and letting them linger
  /// would price admission off stale evidence until the EWMA slowly
  /// forgot them. No-op when the sharing already matches.
  void UpdateModelSharing(int family, int model_sharing_sockets);

  /// Current calibrated per-row service estimate (always > 0).
  double EstimatedRowSeconds(int family) const;

  /// Expected seconds until `queued_rows` backlog rows are all scored,
  /// with the drain parallelism of the worker pool.
  double EstimatedDrainSeconds(int family, size_t queued_rows) const;

  AdmissionEstimate Estimate(int family) const;

  int num_families() const;
  const AdmissionControllerOptions& options() const { return opts_; }
  const numa::Topology& topology() const { return model_.topology(); }

 private:
  struct FamilyState {
    AdmissionFamilyProfile profile;
    double prior_row_sec = 0.0;
    double ewma_row_sec = 0.0;  ///< guarded by mu_
    uint64_t reports = 0;       ///< guarded by mu_
    /// Telemetry mirrors (no-op instruments when no registry attached);
    /// updated by ReportBatch under mu_.
    obs::Gauge* prior_gauge = nullptr;
    obs::Gauge* est_gauge = nullptr;
    obs::Gauge* measured_gauge = nullptr;
    obs::Counter* reports_counter = nullptr;
  };

  /// Memory-model service time of one expected batch, per row.
  double PriorRowSeconds(const AdmissionFamilyProfile& profile) const;
  const FamilyState& StateFor(int family) const;
  /// The calibrated estimate with mu_ already held (EstimatedRowSeconds
  /// without re-locking; ReportBatch refreshes the est gauge inline).
  double EstimatedRowSecondsLocked(const FamilyState& fs) const;

  const AdmissionControllerOptions opts_;
  const numa::MemoryModel model_;
  obs::Registry* registry_ = nullptr;  ///< nullptr: admission unobserved
  /// One lock for registration and the EWMA state: every critical
  /// section is a handful of arithmetic ops, far too short to contend at
  /// batch (not row) frequency.
  mutable std::mutex mu_;
  /// deque: stable references across AddFamily.
  std::deque<FamilyState> families_;
};

}  // namespace dw::opt
