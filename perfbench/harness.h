// Shared pieces of the benchmark runner: arguments, the metric report,
// harness-side tracing, and small statistics helpers.
//
// The runner drives the library only through its public functions. Every
// number it reports is either timed here, around one of those calls, or
// read back from what the library already exposes (EpochRecord,
// ServingEngine::Stats(), the obs::Registry snapshot, publish reports).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its raw spans ("" = do not write).
  std::string trace_out;
};

/// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Linear-interpolated percentile (p in [0, 100]) of `xs`; 0 if empty.
double Percentile(std::vector<double> xs, double p);
inline double Median(std::vector<double> xs) {
  return Percentile(std::move(xs), 50.0);
}

/// CPUs this process may run on (sched_getaffinity).
int UsableCpus();

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// Everything one workload run measured. `metrics` holds both the
/// end-to-end and the per-layer values the run produced; run.py picks
/// the set BENCHMARK.json asks for.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  /// Host fingerprint and run facts (strings and numbers, printed as-is).
  std::map<std::string, std::string> info;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Output checks and validity guards that did not hold.
  std::vector<std::string> problems;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& why) { problems.push_back(why); }
  bool correct() const { return problems.empty() && failed == 0; }
};

/// Harness-side spans around calls into the library's public functions.
/// Spans are recorded per thread (no shared lock on the hot path), nest
/// through a per-thread stack that supplies each span's parent, and stay
/// in memory until the run ends. Disabled spans cost one relaxed load.
class Tracer {
 public:
  /// One finished span. `parent` is the index of the enclosing span in
  /// the same thread's buffer (-1 at top level); `req` ties together the
  /// spans of one request across threads (-1 when not per request).
  struct Record {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    int64_t req;
  };

  /// Per-name totals, derived as spans close (exact even when the raw
  /// buffer is full).
  struct Aggregate {
    double self_s = 0.0;  ///< duration minus the time child spans cover
    std::vector<float> durations_us;  ///< capped sample of durations
  };

  class Span {
   public:
    explicit Span(const char* name, int64_t req = -1);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    bool on_;
  };

  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Merged per-name aggregates over every thread. Call after the traced
  /// threads have joined.
  static std::map<std::string, Aggregate> Aggregates();

  /// Writes the raw spans (up to the per-thread cap) as JSON lines.
  static bool WriteRaw(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

/// Self seconds per module (the span-name prefix before the first '.').
std::map<std::string, double> SelfSecondsByModule(
    const std::map<std::string, Tracer::Aggregate>& aggs);

/// Percentile of one span name's recorded durations, microseconds; 0 if
/// the span never ran.
double SpanPercentileUs(const std::map<std::string, Tracer::Aggregate>& aggs,
                        const std::string& name, double p);

/// Workload entry point (serve_workloads.cc); false for a name it does
/// not own.
bool RunServeWorkload(const Args& args, Report* report);

/// Threads a workload runs at once, the library's and the harness's
/// together, for the thread-budget check (-1 for a name it does not own).
int PlannedServeThreads(const std::string& workload);

/// The training engine's per-layer metrics (engine.*, numa.* counters,
/// matrix.csc_build_s) from a side run of engine::Engine on an input
/// generated from the seed (engine_layers.cc).
void ReportEngineLayers(const Args& args, double peak_gbps, Report* report);
/// Threads that side run uses at once.
int EngineSideThreads();

/// STREAM triad peak of this host in GB/s, measured once in set-up and
/// recorded as numa.peak_gbps.
double MeasurePeakGbps(Report* report);

/// Records the per-module self seconds and trace overhead of a traced
/// run: `untraced` and `traced` are the same end-to-end timing measured
/// with spans off and on.
void ReportTrace(const Args& args, double untraced, double traced,
                 Report* report);

}  // namespace perfbench
