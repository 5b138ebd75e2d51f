#include "serve/snapshot_exporter.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/thread_util.h"
#include "util/timer.h"

namespace dw::serve {

SnapshotExporter::SnapshotExporter(engine::Engine* trainer,
                                   ServingEngine* server, std::string family,
                                   Options options)
    : trainer_(trainer),
      server_(server),
      family_(std::move(family)),
      options_(options) {
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
  {
    std::lock_guard<std::mutex> lk(mu_);
    DW_CHECK(!started_) << "exporter started twice";
    started_ = true;
  }
  PublishOnce();
  thread_ = std::thread([this] { Loop(); });
}

void SnapshotExporter::Stop() {
  // Claim the join under the lock: concurrent Stop() calls (owner
  // destructor vs an explicit shutdown path) must not both reach
  // thread_.join() -- only the claimant joins and flushes.
  std::thread claimed;
  bool flush = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    if (thread_.joinable()) {
      claimed = std::move(thread_);
      flush = started_;
    }
  }
  stop_cv_.notify_all();
  if (!claimed.joinable()) return;
  claimed.join();
  // One last flush AFTER the loop is gone: the final trained model must
  // not be lost to a period boundary, and with the thread joined there is
  // no publisher left to race with.
  if (flush) PublishOnce();
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
    period_dirty_ = true;
  }
  // Wake an armed sleep so a long OLD period does not delay the new
  // cadence (tightening 5s -> 50ms must not wait out the 5s first).
  stop_cv_.notify_all();
}

double SnapshotExporter::period_floor_ms() const {
  std::lock_guard<std::mutex> lk(mu_);
  return period_override_ms_ > 0.0
             ? period_override_ms_
             : std::chrono::duration<double, std::milli>(options_.period)
                   .count();
}

void SnapshotExporter::Loop() {
  SetCurrentThreadName("dw-exporter");
  const double configured_ms =
      std::chrono::duration<double, std::milli>(options_.period).count();
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    // Latency-derived pacing: never spend more than max_publish_fraction
    // of wall time inside Export()+Publish(). The floor -- the runtime
    // override when set, `period` otherwise -- keeps the configured
    // cadence for cheap publishes; only expensive ones stretch it
    // (the EWMA is guarded by the lk we hold).
    const double floor_ms =
        period_override_ms_ > 0.0 ? period_override_ms_ : configured_ms;
    const double paced_ms = ewma_publish_ms_ / options_.max_publish_fraction;
    const double effective_ms = std::max(floor_ms, paced_ms);
    period_gauge_->Set(effective_ms);
    if (effective_ms > floor_ms) paced_counter_->Increment();
    period_dirty_ = false;
    const auto wait = std::chrono::duration<double, std::milli>(effective_ms);
    if (stop_cv_.wait_for(lk, wait,
                          [this] { return stop_ || period_dirty_; })) {
      if (stop_) break;
      continue;  // re-derive the period without publishing early
    }
    lk.unlock();
    PublishOnce();
    lk.lock();
  }
}

}  // namespace dw::serve
