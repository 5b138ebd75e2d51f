#include "serve/snapshot_exporter.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace dw::serve {

SnapshotExporter::SnapshotExporter(engine::Engine* trainer,
                                   ServingEngine* server, std::string family,
                                   Options options)
    : trainer_(trainer),
      server_(server),
      family_(std::move(family)),
      options_(options),
      loop_("dw-exporter", [this] { return PacedPeriod(); },
            [this] { PublishOnce(); }) {
  DW_CHECK(trainer_ != nullptr);
  DW_CHECK(server_ != nullptr);
  DW_CHECK_GT(options_.period.count(), 0);
  DW_CHECK_GT(options_.max_publish_fraction, 0.0);
  DW_CHECK_LE(options_.max_publish_fraction, 1.0);
  obs::Registry& reg = server_->telemetry();
  const obs::Labels labels = {{"family", family_}};
  publishes_counter_ = reg.GetCounter("exporter.publishes", labels);
  paced_counter_ = reg.GetCounter("exporter.paced_periods", labels);
  version_gauge_ = reg.GetGauge("exporter.last_version", labels);
  period_gauge_ = reg.GetGauge("exporter.effective_period_ms", labels);
  publish_ms_hist_ = reg.GetHistogram("exporter.publish_ms", labels);
}

SnapshotExporter::~SnapshotExporter() { Stop(); }

void SnapshotExporter::Start() {
  DW_CHECK(server_->FindFamily(family_) != nullptr)
      << "exporter family not registered: " << family_;
  PublishOnce();
  loop_.Start();
}

void SnapshotExporter::Stop() {
  // One last publish AFTER the loop is joined: the final trained model
  // must not be lost to a period boundary, and with the thread gone there
  // is no publisher left to race with. Only the Stop() that joined
  // publishes, so concurrent and repeated calls flush once.
  if (loop_.Stop()) PublishOnce();
}

void SnapshotExporter::PublishOnce() {
  WallTimer timer;
  // Export() reads the engine's mutex-guarded export buffer (refreshed by
  // the averager/epoch boundary); Publish() copies it into fresh replicas
  // and hot-swaps. Neither step touches the training hot path.
  const engine::ModelExport exported = trainer_->Export();
  const uint64_t version = server_->Publish(family_, exported);
  const double ms = timer.Seconds() * 1e3;
  publishes_counter_->Increment();
  version_gauge_->Set(static_cast<double>(version));
  publish_ms_hist_->Record(ms);

  std::lock_guard<std::mutex> lk(mu_);
  // EWMA drives the pacing: it tracks a drifting publish cost (model
  // growing mid-training, replicas added) faster than the all-time mean.
  // A publish takes more than 0 ms, so 0 marks the first one.
  ewma_publish_ms_ = ewma_publish_ms_ == 0.0
                         ? ms
                         : ewma_publish_ms_ + 0.3 * (ms - ewma_publish_ms_);
}

double SnapshotExporter::ewma_publish_ms() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ewma_publish_ms_;
}

void SnapshotExporter::SetPeriod(std::chrono::milliseconds period) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    period_override_ms_ =
        period.count() > 0
            ? std::chrono::duration<double, std::milli>(period).count()
            : 0.0;
  }
  // Re-derive the armed wait so a long OLD period does not delay the new
  // cadence (tightening 5s -> 50ms must not wait out the 5s first).
  loop_.Wake();
}

double SnapshotExporter::period_floor_ms() const {
  std::lock_guard<std::mutex> lk(mu_);
  return period_override_ms_ > 0.0
             ? period_override_ms_
             : std::chrono::duration<double, std::milli>(options_.period)
                   .count();
}

std::chrono::nanoseconds SnapshotExporter::PacedPeriod() {
  // Latency-derived pacing: never spend more than max_publish_fraction
  // of wall time inside Export()+Publish(). The floor -- the runtime
  // override when set, `period` otherwise -- keeps the configured
  // cadence for cheap publishes; only expensive ones stretch it.
  const double floor_ms = period_floor_ms();
  const double effective_ms =
      std::max(floor_ms, ewma_publish_ms() / options_.max_publish_fraction);
  period_gauge_->Set(effective_ms);
  if (effective_ms > floor_ms) paced_counter_->Increment();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(effective_ms));
}

}  // namespace dw::serve
