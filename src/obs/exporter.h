// Telemetry export: renders an obs::RegistrySnapshot as Prometheus text
// exposition format and as util::JsonWriter JSON, and (optionally) runs
// a background thread that snapshots a registry on a period and pushes
// both renderings to a file and/or callback sink.
//
// The render functions are free and pure -- a scrape endpoint, a test,
// or the bench artifact can call them on any snapshot without spinning
// up the thread. The TelemetryExporter's thread is a dw::PeriodicLoop
// (Start once, Stop idempotent and race-safe), plus a final export on
// Stop so a short-lived process still leaves one complete scrape behind.
#pragma once

#include <chrono>
#include <functional>
#include <string>

#include "obs/metrics.h"
#include "util/periodic_loop.h"

namespace dw::obs {

/// Prometheus text exposition format. Metric names are mangled to the
/// Prometheus grammar ("serve.latency_ms" -> "dw_serve_latency_ms");
/// counters get the conventional _total suffix; histograms render
/// cumulative _bucket{le=...} lines (only buckets that hold data, plus
/// +Inf -- a valid exposition, and it keeps wide-range histograms from
/// emitting 200 zero lines), _sum, and _count. Metrics sharing a name
/// (same instrument, different labels) share one # TYPE header.
std::string RenderPrometheus(const RegistrySnapshot& snap);

/// The same snapshot as a JSON document: {"metrics": [{name, labels,
/// type, value | {count, sum, mean, min, max, p50, p99, buckets}}]}.
std::string RenderJson(const RegistrySnapshot& snap);

/// Background periodic exporter over one registry.
class TelemetryExporter {
 public:
  struct Options {
    /// Snapshot-and-render cadence.
    std::chrono::milliseconds period{1000};
    /// File sinks; empty disables the file. Rewritten atomically enough
    /// for a scraper (whole-file rewrite per period).
    std::string prometheus_path;
    std::string json_path;
    /// Callback sink, invoked on the exporter thread with both
    /// renderings; null disables.
    std::function<void(const std::string& prometheus,
                       const std::string& json)>
        sink;
  };

  /// `registry` must outlive the exporter.
  TelemetryExporter(const Registry* registry, Options options);
  ~TelemetryExporter();

  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  /// Starts the background thread (once).
  void Start();

  /// Stops and joins, then renders one final export, so the final state
  /// of a finished run is always captured. Idempotent; also run by the
  /// destructor.
  void Stop();

  /// One synchronous export round (also what the thread runs). Usable
  /// without Start() for pull-style scraping.
  void ExportOnce();

 private:
  const Registry* registry_;
  const Options options_;

  /// Declared last: joined before the members ExportOnce() reads go.
  PeriodicLoop loop_;
};

}  // namespace dw::obs
