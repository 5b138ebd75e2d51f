// Background training->serving snapshot pipeline: the serving twin of the
// paper's Sec. 3.3 asynchronous model averager.
//
// Training exports used to reach serving by hand: the caller ran some
// epochs, called engine::Engine::Export(), and published the result. The
// exporter automates this on a period, DURING training: a background
// thread wakes every `period`, pulls the engine's export buffer (a
// thread-safe consensus copy refreshed at every averaging round and epoch
// boundary -- epochs never block on it), and publishes the snapshot into
// its serving family. Serving traffic then scores against weights at most
// ~period + one averaging interval behind the trainer, and ServingStats'
// per-family staleness columns measure exactly that lag.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "engine/engine.h"
#include "serve/serving_engine.h"

namespace dw::serve {

/// Periodically publishes `trainer`'s export into one serving family.
class SnapshotExporter {
 public:
  struct Options {
    /// Export-and-publish cadence FLOOR. Shorter = fresher models, more
    /// publish bandwidth (every publish copies the model once per
    /// replica). The effective period is derived from this and the
    /// measured publish latency (see max_publish_fraction).
    std::chrono::milliseconds period{50};
    /// Ceiling on the fraction of wall time spent INSIDE
    /// Export()+Publish(): the loop stretches its sleep to at least
    /// measured_publish_latency / max_publish_fraction, so a family
    /// whose publish is slow (wide model, many replicas) paces itself
    /// down instead of spending most of the exporter thread's life --
    /// and the family's publish bandwidth -- on copies. With the
    /// default 5%, a 10ms publish is republished at most every 200ms no
    /// matter how short `period` is. Must be in (0, 1].
    double max_publish_fraction = 0.05;
  };

  /// Publish-side counters (publish latency, NOT serving-side
  /// staleness -- that lives in FamilyServingStats).
  struct Stats {
    uint64_t publishes = 0;
    uint64_t last_version = 0;     ///< last version this exporter installed
    double mean_publish_ms = 0.0;  ///< Export()+Publish() wall latency
    double max_publish_ms = 0.0;
    /// EWMA of the publish latency (what the pacing reacts to; the mean
    /// is the whole-run record).
    double ewma_publish_ms = 0.0;
    /// The period the loop last armed: Options::period, or the stretched
    /// latency-derived value when publishes run long.
    double effective_period_ms = 0.0;
    /// Sleeps stretched past Options::period by the publish-time ceiling.
    uint64_t paced_periods = 0;
  };

  /// `trainer` and `server` must outlive the exporter; `family` must be
  /// registered on `server` (checked at Start).
  SnapshotExporter(engine::Engine* trainer, ServingEngine* server,
                   std::string family, Options options);
  ~SnapshotExporter();

  SnapshotExporter(const SnapshotExporter&) = delete;
  SnapshotExporter& operator=(const SnapshotExporter&) = delete;

  /// Publishes one export immediately, so the family is servable before
  /// the first period elapses (ServingEngine::Start() requires every
  /// family published), then starts the background publisher (once).
  void Start();

  /// Stops and joins the publisher thread, then publishes one final
  /// export, so the last trained model is never lost to an unlucky
  /// period boundary (training that ends mid-period would otherwise
  /// serve a snapshot up to `period` old forever). Idempotent; also run
  /// by the destructor. The last installed snapshot stays served.
  void Stop();

  Stats stats() const;

  /// Overrides the pacing FLOOR at runtime (the placement tuner's
  /// staleness-SLO control): the loop re-derives its effective period
  /// from this value on its next wake, so a long armed sleep does not
  /// delay the new cadence. The publish-latency ceiling
  /// (max_publish_fraction) still applies on top. Values <= 0 restore
  /// Options::period.
  void SetPeriod(std::chrono::milliseconds period);

  /// The pacing floor currently in force, in ms: the SetPeriod override
  /// when set, Options::period otherwise.
  double period_floor_ms() const;

 private:
  void Loop();
  void PublishOnce();

  engine::Engine* trainer_;
  ServingEngine* server_;
  const std::string family_;
  const Options options_;

  /// Telemetry mirrors on the server's registry (exporter.* metrics,
  /// labeled by family); no-op instruments when the server runs with
  /// telemetry off. stats_ stays authoritative -- the pacing loop reads
  /// it, never the registry.
  obs::Counter* publishes_counter_ = nullptr;
  obs::Counter* paced_counter_ = nullptr;
  obs::Gauge* version_gauge_ = nullptr;
  obs::Gauge* period_gauge_ = nullptr;
  obs::Histogram* publish_ms_hist_ = nullptr;

  std::thread thread_;
  mutable std::mutex mu_;  ///< guards stop_ for the cv + the stats
  std::condition_variable stop_cv_;
  bool stop_ = false;
  bool started_ = false;
  /// Runtime pacing-floor override in ms (0: none); guarded by mu_.
  /// period_dirty_ wakes an armed sleep so the change applies now.
  double period_override_ms_ = 0.0;
  bool period_dirty_ = false;
  Stats stats_;
};

}  // namespace dw::serve
