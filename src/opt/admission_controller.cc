#include "opt/admission_controller.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace dw::opt {

AdmissionController::AdmissionController(numa::Topology topo,
                                         AdmissionControllerOptions opts)
    : opts_(opts), model_(std::move(topo)) {
  DW_CHECK_GT(opts_.drain_workers, 0);
  DW_CHECK_GE(opts_.max_calibration, 1.0);
}

double AdmissionController::PriorRowSeconds(
    const AdmissionFamilyProfile& profile) const {
  const numa::Topology& topo = model_.topology();
  const double batch_rows = std::max(1.0, profile.expected_batch_rows);
  const double row_bytes =
      static_cast<double>(profile.dim) * sizeof(double);
  // One worker scores one batch: the feature payload streams once per
  // row, the model streams once per batch (the blocked PredictBatch
  // contract the replication chooser also assumes). When the replica is
  // shared across sockets, the average worker is remote: only a 1/nodes
  // share of the model stream is node-local, the rest crosses the
  // interconnect.
  numa::SimulationInput in(topo.num_nodes);
  numa::AccessCounters c;
  c.local_read_bytes = static_cast<uint64_t>(batch_rows * row_bytes);
  const uint64_t model_bytes =
      static_cast<uint64_t>(profile.model_touch_fraction * row_bytes);
  if (profile.model_sharing_sockets > 1 && topo.num_nodes > 1) {
    c.model_read_bytes = model_bytes / topo.num_nodes;
    c.remote_read_bytes = model_bytes - c.model_read_bytes;
  } else {
    c.model_read_bytes = model_bytes;
  }
  c.flops = static_cast<uint64_t>(2.0 * batch_rows * profile.dim);
  c.updates = static_cast<uint64_t>(batch_rows);
  in.traffic.per_node[0] = c;
  in.active_workers[0] = 1;
  in.model_sharing_sockets = profile.model_sharing_sockets;
  in.model_bytes = static_cast<uint64_t>(row_bytes);
  // SimulateEpoch overlaps node time with interconnect time (max), which
  // models many nodes draining in parallel; ONE worker scoring one batch
  // serializes its own remote reads with its local ones, so the batch
  // prior sums the components instead of taking the max.
  const numa::SimulatedTime t = model_.SimulateEpoch(in);
  const double batch_sec = t.read_sec + t.write_sec + t.cpu_sec + t.qpi_sec +
                           model_.params().epoch_overhead_sec;
  // Guard the division: admission must never divide by a zero estimate.
  return std::max(batch_sec / batch_rows, 1e-12);
}

void AdmissionController::AttachRegistry(obs::Registry* registry) {
  std::lock_guard<std::mutex> lk(mu_);
  DW_CHECK(families_.empty())
      << "attach the registry before registering admission families";
  registry_ = registry;
}

int AdmissionController::AddFamily(const AdmissionFamilyProfile& profile) {
  DW_CHECK_GT(profile.dim, 0u) << "admission profile needs dim";
  DW_CHECK_GT(profile.model_sharing_sockets, 0);
  FamilyState fs;
  fs.profile = profile;
  fs.prior_row_sec = PriorRowSeconds(profile);
  std::lock_guard<std::mutex> lk(mu_);
  if (registry_ != nullptr) {
    const std::string label =
        profile.name.empty() ? "f" + std::to_string(families_.size())
                             : profile.name;
    const obs::Labels labels = {{"family", label}};
    fs.prior_gauge = registry_->GetGauge("admission.prior_row_us", labels);
    fs.est_gauge = registry_->GetGauge("admission.est_row_us", labels);
    fs.measured_gauge =
        registry_->GetGauge("admission.measured_row_us", labels);
    fs.reports_counter =
        registry_->GetCounter("admission.cost_reports", labels);
    fs.prior_gauge->Set(fs.prior_row_sec * 1e6);
    // No reports yet: the calibrated estimate IS the prior.
    fs.est_gauge->Set(fs.prior_row_sec * 1e6);
  }
  families_.push_back(std::move(fs));
  return static_cast<int>(families_.size() - 1);
}

const AdmissionController::FamilyState& AdmissionController::StateFor(
    int family) const {
  DW_CHECK_GE(family, 0);
  DW_CHECK_LT(family, static_cast<int>(families_.size()));
  return families_[family];
}

void AdmissionController::ReportBatch(int family, size_t rows,
                                      double measured_sec) {
  if (rows == 0 || measured_sec <= 0.0) return;
  const double row_sec = measured_sec / static_cast<double>(rows);
  std::lock_guard<std::mutex> lk(mu_);
  FamilyState& fs = const_cast<FamilyState&>(StateFor(family));
  // Weight of the newest measured batch in the EWMA. High enough to
  // track a drifting host, low enough that one descheduled batch does not
  // swing admission.
  constexpr double kEwmaAlpha = 0.2;
  if (fs.reports == 0) {
    fs.ewma_row_sec = row_sec;
  } else {
    fs.ewma_row_sec += kEwmaAlpha * (row_sec - fs.ewma_row_sec);
  }
  ++fs.reports;
  if (fs.measured_gauge != nullptr) {
    fs.measured_gauge->Set(fs.ewma_row_sec * 1e6);
    fs.est_gauge->Set(EstimatedRowSecondsLocked(fs) * 1e6);
    fs.reports_counter->Increment();
  }
}

void AdmissionController::UpdateModelSharing(int family,
                                             int model_sharing_sockets) {
  DW_CHECK_GT(model_sharing_sockets, 0);
  std::lock_guard<std::mutex> lk(mu_);
  FamilyState& fs = const_cast<FamilyState&>(StateFor(family));
  if (fs.profile.model_sharing_sockets == model_sharing_sockets) return;
  fs.profile.model_sharing_sockets = model_sharing_sockets;
  fs.prior_row_sec = PriorRowSeconds(fs.profile);
  // Drop the calibration window: it measured the OLD placement. Until
  // the first post-migration report, the new prior stands alone.
  fs.ewma_row_sec = 0.0;
  fs.reports = 0;
  if (fs.prior_gauge != nullptr) {
    fs.prior_gauge->Set(fs.prior_row_sec * 1e6);
    fs.est_gauge->Set(fs.prior_row_sec * 1e6);
    fs.measured_gauge->Set(0.0);
  }
}

double AdmissionController::EstimatedRowSecondsLocked(
    const FamilyState& fs) const {
  if (fs.reports == 0) return fs.prior_row_sec;
  // Measured behavior corrects the prior, clamped so one absurd sample
  // cannot detach admission from physical reality entirely.
  const double ratio =
      std::clamp(fs.ewma_row_sec / fs.prior_row_sec,
                 1.0 / opts_.max_calibration, opts_.max_calibration);
  return fs.prior_row_sec * ratio;
}

double AdmissionController::EstimatedRowSeconds(int family) const {
  std::lock_guard<std::mutex> lk(mu_);
  return EstimatedRowSecondsLocked(StateFor(family));
}

double AdmissionController::EstimatedDrainSeconds(int family,
                                                  size_t queued_rows) const {
  return EstimatedRowSeconds(family) * static_cast<double>(queued_rows) /
         static_cast<double>(opts_.drain_workers);
}

AdmissionEstimate AdmissionController::Estimate(int family) const {
  AdmissionEstimate out;
  out.est_row_sec = EstimatedRowSeconds(family);
  std::lock_guard<std::mutex> lk(mu_);
  const FamilyState& fs = StateFor(family);
  out.prior_row_sec = fs.prior_row_sec;
  out.measured_row_sec_ewma = fs.ewma_row_sec;
  out.reported_batches = fs.reports;
  return out;
}

int AdmissionController::num_families() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(families_.size());
}

}  // namespace dw::opt
