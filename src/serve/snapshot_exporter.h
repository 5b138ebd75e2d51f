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
// ~period + one averaging interval behind the trainer, and the engine's
// serve.staleness_ms{family=...} histogram measures exactly that lag.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "engine/engine.h"
#include "serve/serving_engine.h"
#include "util/periodic_loop.h"

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

  /// `trainer` and `server` must outlive the exporter; `family` must be
  /// registered on `server` (checked at Start). The exporter's numbers
  /// are metrics on the server's registry, labeled family=<family>:
  /// exporter.publishes, exporter.paced_periods (sleeps stretched past
  /// the floor by the publish-time ceiling), the exporter.last_version
  /// and exporter.effective_period_ms gauges, and the
  /// exporter.publish_ms histogram of Export()+Publish() wall latency.
  /// Serving-side staleness is the engine's serve.staleness_ms.
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

  /// EWMA of the publish latency in ms, what the pacing reacts to (0
  /// before the first publish). The loop's own state, so pacing works
  /// with telemetry off.
  double ewma_publish_ms() const;

  /// Overrides the pacing FLOOR at runtime (the placement tuner's
  /// staleness-SLO control): the loop re-derives its effective period
  /// from this value at once, still counted from the last publish, so a
  /// long armed sleep does not delay the new cadence and repeated calls
  /// do not postpone the next publish. The publish-latency ceiling
  /// (max_publish_fraction) still applies on top. Values <= 0 restore
  /// Options::period.
  void SetPeriod(std::chrono::milliseconds period);

  /// The pacing floor currently in force, in ms: the SetPeriod override
  /// when set, Options::period otherwise.
  double period_floor_ms() const;

 private:
  /// The effective period: the floor stretched to the publish-latency
  /// ceiling. Also sets exporter.effective_period_ms and counts
  /// exporter.paced_periods.
  std::chrono::nanoseconds PacedPeriod();
  void PublishOnce();

  engine::Engine* trainer_;
  ServingEngine* server_;
  const std::string family_;
  const Options options_;

  /// exporter.* instruments on the server's registry; no-op when the
  /// server runs with telemetry off. The pacing loop never reads them.
  obs::Counter* publishes_counter_ = nullptr;
  obs::Counter* paced_counter_ = nullptr;
  obs::Gauge* version_gauge_ = nullptr;
  obs::Gauge* period_gauge_ = nullptr;
  obs::Histogram* publish_ms_hist_ = nullptr;

  mutable std::mutex mu_;  ///< guards the override and the EWMA
  /// Runtime pacing-floor override in ms (0: none).
  double period_override_ms_ = 0.0;
  /// Publish latency EWMA; 0 until the first publish.
  double ewma_publish_ms_ = 0.0;

  /// Declared last: joined before the members PublishOnce() reads go.
  PeriodicLoop loop_;
};

}  // namespace dw::serve
