#include "opt/placement_tuner.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "serve/snapshot_exporter.h"
#include "util/logging.h"

namespace dw::opt {

namespace {

std::string FormatMs(double ms) {
  std::ostringstream os;
  os << ms << "ms";
  return os.str();
}

std::string FormatRatio(double r) {
  std::ostringstream os;
  os.precision(3);
  os << r;
  return os.str();
}

/// Publishes since the `last` watermark; advances it to `version`.
uint64_t Advance(uint64_t* last, uint64_t version) {
  const uint64_t publishes = version >= *last ? version - *last : 0;
  *last = version;
  return publishes;
}

}  // namespace

PlacementTuner::PlacementTuner(const numa::Topology& topo,
                               obs::Registry* registry, TunerOptions options)
    : topo_(topo),
      registry_(registry),
      options_(options),
      loop_("dw-tuner", [this] { return options_.scan_period; },
            [this] { ScanOnce(); }) {
  DW_CHECK(registry_ != nullptr) << "tuner needs a metric registry";
  DW_CHECK_GE(options_.scan_period.count(), 0);
  DW_CHECK_GE(options_.min_advantage, 1.0)
      << "an advantage gate below 1.0 would migrate on a modeled LOSS";
  DW_CHECK_GE(options_.confirm_scans, 1);
  scans_counter_ = registry_->GetCounter("tuner.scans");
  model_flips_counter_ =
      registry_->GetCounter("tuner.flips", {{"kind", "replication"}});
  store_flips_counter_ =
      registry_->GetCounter("tuner.flips", {{"kind", "store_placement"}});
  holds_counter_ = registry_->GetCounter("tuner.holds");
  period_adjust_counter_ = registry_->GetCounter("tuner.period_adjustments");
  // Baseline for the first scan's interval: totals accumulated before
  // the tuner existed are history, not evidence.
  prev_snapshot_ = registry_->Snapshot();
}

void PlacementTuner::AddFamily(serve::ModelFamily* family,
                               serve::FeatureStore* store,
                               AdmissionController* admission,
                               int admission_id,
                               const ServingTrafficEstimate& traffic) {
  DW_CHECK(family != nullptr);
  std::lock_guard<std::mutex> lk(mu_);
  TunedFamily tf;
  tf.family = family;
  tf.store = store;
  tf.admission = admission;
  tf.admission_id = admission_id;
  tf.traffic = traffic;
  tf.traffic.dim = family->dim();
  tf.model.last_version = family->current_version();
  tf.table.last_version = store != nullptr ? store->current_version() : 0;
  const obs::Labels labels = {{"family", family->name()}};
  tf.model.reads_gauge =
      registry_->GetGauge("tuner.observed_reads_per_publish", labels);
  tf.table.reads_gauge =
      registry_->GetGauge("tuner.observed_reads_per_refresh", labels);
  families_.push_back(std::move(tf));
}

void PlacementTuner::AttachExporter(const std::string& family,
                                    serve::SnapshotExporter* exporter) {
  DW_CHECK(exporter != nullptr);
  std::lock_guard<std::mutex> lk(mu_);
  for (TunedFamily& tf : families_) {
    if (tf.family->name() == family) {
      tf.exporter = exporter;
      return;
    }
  }
  DW_CHECK(false) << "attaching exporter for untuned family: " << family;
}

void PlacementTuner::Start() {
  if (options_.scan_period.count() == 0) return;  // manual mode
  loop_.Start();
}

void PlacementTuner::Stop() { loop_.Stop(); }

int PlacementTuner::ScanOnce() {
  std::lock_guard<std::mutex> lk(mu_);
  ++scan_seq_;
  scans_counter_->Increment();
  obs::RegistrySnapshot cur = registry_->Snapshot();
  const obs::SnapshotDelta delta(prev_snapshot_, cur);
  prev_snapshot_ = std::move(cur);
  int migrations = 0;
  for (TunedFamily& tf : families_) {
    TuneModel(delta, tf, &migrations);
    if (tf.store != nullptr) TuneStore(delta, tf, &migrations);
    TuneExporter(delta, tf);
  }
  return migrations;
}

void PlacementTuner::TuneModel(const obs::SnapshotDelta& delta,
                               TunedFamily& tf, int* migrations) {
  using serve::Replication;
  serve::ModelFamily* family = tf.family;
  TunerDecision d;
  d.family = family->name();
  d.kind = "replication";
  d.observed_rows = delta.CounterDelta("serve.rows", {{"family", d.family}});
  const uint64_t publishes =
      Advance(&tf.model.last_version, family->current_version());
  const PlacementChoice choice = ChooseModelPlacement(
      topo_, tf.traffic, static_cast<double>(d.observed_rows),
      static_cast<double>(publishes));
  const Replication incumbent = family->replication();
  const Replication to =
      choice.replicate ? Replication::kPerNode : Replication::kPerMachine;
  d.from = ToString(incumbent);
  d.to = ToString(to);
  Recost(tf.model, std::move(d), publishes,
         incumbent == Replication::kPerNode, choice,
         [&] {
           // Rebuild the served weights under the winning strategy
           // (regular hot-swap; in-flight batches keep their snapshot)
           // and re-price admission for the new replica sharing.
           const uint64_t version = family->Republish(to);
           if (tf.admission != nullptr) {
             tf.admission->UpdateModelSharing(
                 tf.admission_id,
                 to == Replication::kPerMachine ? topo_.num_nodes : 1);
           }
           return version;
         },
         migrations);
}

void PlacementTuner::TuneStore(const obs::SnapshotDelta& delta,
                               TunedFamily& tf, int* migrations) {
  using serve::StorePlacement;
  serve::FeatureStore* store = tf.store;
  const obs::Labels labels = {{"family", tf.family->name()}};
  TunerDecision d;
  d.family = tf.family->name();
  d.kind = "store_placement";
  d.observed_rows = delta.CounterDelta("store.id_rows", labels);
  const uint64_t delta_bytes = delta.CounterDelta("store.delta_bytes", labels);
  const uint64_t full_bytes = delta.CounterDelta("store.full_bytes", labels);
  const uint64_t refreshes =
      Advance(&tf.table.last_version, store->current_version());
  // Observed churn: what the interval's publishes actually wrote vs what
  // full rewrites would have (the counters the store itself adds to, so
  // tuner-driven republishes count too). An interval with no refresh bytes says
  // nothing about churn, so the conservative full-rewrite default holds.
  if (full_bytes > 0) {
    d.observed_churn = std::clamp(
        static_cast<double>(delta_bytes) / static_cast<double>(full_bytes),
        1e-6, 1.0);
  }
  const PlacementChoice choice = ChooseStorePlacement(
      topo_, store->rows(), store->dim(),
      static_cast<double>(d.observed_rows), static_cast<double>(refreshes),
      d.observed_churn);
  const StorePlacement incumbent = store->placement();
  const StorePlacement to = choice.replicate ? StorePlacement::kReplicated
                                             : StorePlacement::kSharded;
  d.from = ToString(incumbent);
  d.to = ToString(to);
  Recost(tf.table, std::move(d), refreshes,
         incumbent == StorePlacement::kReplicated, choice,
         [&] { return store->Republish(to); }, migrations);
}

void PlacementTuner::Recost(Side& side, TunerDecision d, uint64_t publishes,
                            bool incumbent_replicates,
                            const PlacementChoice& choice,
                            const std::function<uint64_t()>& migrate,
                            int* migrations) {
  // Evidence floor: a quiet interval says nothing about the traffic mix,
  // so it neither votes for a flip nor clears pending votes.
  if (d.observed_rows < options_.min_observed_rows) return;
  // The chooser priced the interval itself; the per-publish ratio is
  // reported only, a lower bound when the interval saw no publish.
  d.observed_reads_per_period =
      static_cast<double>(d.observed_rows) /
      static_cast<double>(std::max<uint64_t>(1, publishes));
  side.reads_gauge->Set(d.observed_reads_per_period);
  if (choice.replicate == incumbent_replicates) {
    side.votes = 0;  // the observed traffic endorses the incumbent
    return;
  }
  d.scan = scan_seq_;
  d.incumbent_cost_sec = incumbent_replicates ? choice.replicate_cost_sec
                                              : choice.share_cost_sec;
  d.challenger_cost_sec = incumbent_replicates ? choice.share_cost_sec
                                               : choice.replicate_cost_sec;
  d.advantage = d.challenger_cost_sec > 0.0
                    ? d.incumbent_cost_sec / d.challenger_cost_sec
                    : 0.0;
  if (d.advantage < options_.min_advantage) {
    side.votes = 0;
    d.rationale = "held: modeled advantage " + FormatRatio(d.advantage) +
                  " under gate " + FormatRatio(options_.min_advantage);
    RecordDecision(std::move(d));
    return;
  }
  if (++side.votes < options_.confirm_scans) {
    d.rationale = "held: awaiting confirmation (" +
                  std::to_string(side.votes) + "/" +
                  std::to_string(options_.confirm_scans) + " scans)";
    RecordDecision(std::move(d));
    return;
  }
  side.votes = 0;
  // The watermark moves past the tuner's own republish.
  side.last_version = migrate();
  ++(*migrations);
  d.migrated = true;
  d.rationale = choice.rationale;
  RecordDecision(std::move(d));
}

void PlacementTuner::TuneExporter(const obs::SnapshotDelta& delta,
                                  TunedFamily& tf) {
  if (tf.exporter == nullptr || options_.staleness_slo_ms <= 0.0) return;
  const std::string& name = tf.family->name();
  const obs::Labels labels = {{"family", name}};
  const double stale_ms =
      delta.HistogramIntervalMean("serve.staleness_ms", labels, -1.0);
  if (stale_ms < 0.0) return;  // nothing scored this interval
  // Stretch threshold as a fraction of the SLO.
  constexpr double kStalenessSlack = 0.25;
  // Decided in the whole ms SetPeriod applies, so the comparison below
  // sees the floor the exporter will report on the next scan.
  const double cur_floor = tf.exporter->period_floor_ms();
  double next_floor = cur_floor;
  if (stale_ms > options_.staleness_slo_ms) {
    // Over SLO: tighten the cadence (never under 1ms; the exporter's
    // publish-latency ceiling still paces on top of this floor).
    next_floor = std::max(1.0, std::round(cur_floor * 0.5));
  } else if (stale_ms < options_.staleness_slo_ms * kStalenessSlack) {
    // Far under SLO: stretch to save publish bandwidth, capped at the
    // SLO itself rounded down (a period past the SLO guarantees a
    // violation).
    next_floor = std::min(std::max(1.0, std::floor(options_.staleness_slo_ms)),
                          cur_floor * 2.0);
  }
  if (next_floor == cur_floor) return;
  tf.exporter->SetPeriod(
      std::chrono::milliseconds(std::llround(next_floor)));
  period_adjust_counter_->Increment();

  TunerDecision d;
  d.scan = scan_seq_;
  d.family = name;
  d.kind = "exporter_period";
  d.from = FormatMs(cur_floor);
  d.to = FormatMs(next_floor);
  d.migrated = true;
  d.observed_staleness_ms = stale_ms;
  d.rationale = "mean staleness " + FormatMs(stale_ms) + " vs SLO " +
                FormatMs(options_.staleness_slo_ms);
  RecordDecision(std::move(d));
}

void PlacementTuner::RecordDecision(TunerDecision d) {
  if (d.migrated) {
    if (d.kind == "replication") {
      model_flips_counter_->Increment();
    } else if (d.kind == "store_placement") {
      store_flips_counter_->Increment();
    }
  } else {
    holds_counter_->Increment();
  }
  // The structured decision log: inputs -> chosen placement. Migrations
  // are operator-visible events; holds are debug chatter.
  std::ostringstream line;
  line << "tuner scan=" << d.scan << " family=" << d.family
       << " kind=" << d.kind << " from=" << d.from << " to=" << d.to
       << " migrated=" << (d.migrated ? 1 : 0)
       << " observed_rows=" << d.observed_rows
       << " reads_per_period=" << d.observed_reads_per_period
       << " churn=" << d.observed_churn
       << " staleness_ms=" << d.observed_staleness_ms
       << " incumbent_cost_sec=" << d.incumbent_cost_sec
       << " challenger_cost_sec=" << d.challenger_cost_sec
       << " advantage=" << d.advantage << " rationale=\"" << d.rationale
       << '"';
  if (d.migrated) {
    DW_LOG(Info) << line.str();
  } else {
    DW_LOG(Debug) << line.str();
  }
  if (decisions_.size() >= kMaxDecisions) decisions_.pop_front();
  decisions_.push_back(std::move(d));
}

std::vector<TunerDecision> PlacementTuner::Decisions() const {
  std::lock_guard<std::mutex> lk(mu_);
  return std::vector<TunerDecision>(decisions_.begin(), decisions_.end());
}

uint64_t PlacementTuner::scans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return scan_seq_;
}

}  // namespace dw::opt
