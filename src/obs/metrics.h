// The serving-side metric registry: lock-free, per-thread-sharded
// instruments with constant memory, designed for the scoring hot path.
//
// The paper grounds its hardware-efficiency claims in measured counters
// (local/remote DRAM requests); the serving stack needs the same
// discipline without paying for it. Three instrument kinds:
//
//   Counter   -- monotonic uint64. Add() is one relaxed fetch_add on a
//                cacheline-padded per-thread shard, so concurrent workers
//                never bounce a counter line between sockets.
//   Gauge     -- a single double (last-write-wins), stored as atomic
//                bits. For slow-moving state: queue depth, the admission
//                controller's calibrated estimates, pacing periods.
//   Histogram -- log-linear buckets (kSubBucketsPerOctave geometric
//                sub-buckets per power of two), sharded like counters.
//                Constant memory regardless of traffic, mergeable, with
//                BOUNDED-relative-error percentiles: any quantile is off
//                by at most the bucket width ratio (2^(1/4)-1 < 19%).
//                Sum/count/min/max are tracked exactly, so means and the
//                worst case are exact even though quantiles are bucketed.
//
// Metrics are named "subsystem.name" with key=value labels (family,
// client, node); the registry interns each (name, labels) pair once and
// hands out stable instrument pointers, so the hot path holds raw
// pointers and never touches the registry lock. A registry constructed
// disabled hands out shared no-op instruments instead -- the bench
// baseline that bounds instrumentation overhead.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dw::obs {

/// key=value metric labels, e.g. {{"family", "ctr"}, {"node", "0"}}.
/// Canonicalized (sorted by key) at registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

const char* ToString(MetricType t);

/// The log-linear bucket layout of Histogram. Buckets cover
/// [2^kMinExp, 2^kMaxExp) with kSubBucketsPerOctave geometric sub-buckets
/// per octave (growth factor 2^(1/kSubBucketsPerOctave) ~= 1.19), plus an
/// underflow bucket (index 0: zero, negatives, tiny values) and an
/// overflow bucket (the last index).
struct LogLinearBuckets {
  static constexpr int kSubBucketsPerOctave = 4;
  /// 2^-20 ~= 1e-6: microsecond-scale values in ms units still resolve.
  static constexpr int kMinExp = -20;
  /// 2^30 ~= 1e9: an hour in microseconds still lands in a real bucket.
  static constexpr int kMaxExp = 30;
  static constexpr int kNumBuckets =
      (kMaxExp - kMinExp) * kSubBucketsPerOctave + 2;
  /// Worst-case relative error of a bucketed quantile: the sub-bucket
  /// width, 2^(1/kSubBucketsPerOctave) - 1.
  static constexpr double kMaxRelativeError = 0.19;

  /// The bucket index for `v` (always valid; 0 for v < 2^kMinExp
  /// including zero/negatives, kNumBuckets-1 for v >= 2^kMaxExp).
  static int BucketFor(double v);

  /// Inclusive lower / exclusive upper bound of a REGULAR bucket
  /// (1 <= bucket <= kNumBuckets-2).
  static double LowerBound(int bucket);
  static double UpperBound(int bucket);
};

/// A mergeable point-in-time histogram value: the plain (unsynchronized)
/// form of Histogram, also usable directly as a single-threaded
/// accumulator.
struct HistogramSnapshot {
  std::vector<uint64_t> counts;  ///< kNumBuckets entries once non-empty
  uint64_t count = 0;
  double sum = 0.0;   ///< exact: means never suffer bucketing error
  double min = 0.0;   ///< exact over all recorded values; 0 if none
  double max = 0.0;   ///< exact over all recorded values; 0 if none

  /// Folds `weight` observations of value `v` in (plain, not atomic).
  void Record(double v, uint64_t weight = 1);

  void Merge(const HistogramSnapshot& other);

  /// Exact mean (sum/count); 0 if empty.
  double Mean() const;

  /// The p-th percentile (p in [0,100]) with relative error bounded by
  /// LogLinearBuckets::kMaxRelativeError: linear interpolation inside
  /// the bucket holding the rank, clamped to the exact [min, max] so
  /// extreme quantiles degrade gracefully. 0 if empty.
  double Percentile(double p) const;
};

/// Monotonic counter, sharded across threads. Add() never blocks and
/// never contends when callers run on distinct threads.
class Counter {
 public:
  static constexpr size_t kShards = 16;

  void Add(uint64_t n = 1);
  void Increment() { Add(1); }

  /// Sum over shards (monitoring path; racy-by-design while writers run,
  /// exact at quiescence).
  uint64_t Value() const;

 private:
  friend class Registry;
  /// enabled=false builds the shared no-op instrument (Add is a branch).
  explicit Counter(bool enabled);

  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  /// Empty for the no-op instrument.
  std::vector<Cell> cells_;
};

/// Last-write-wins double (atomic bits; C++17 has no std::bit_cast, so
/// the conversion goes through memcpy).
class Gauge {
 public:
  void Set(double v);
  double Value() const;

 private:
  friend class Registry;
  explicit Gauge(bool enabled) : enabled_(enabled) {}

  std::atomic<uint64_t> bits_{0};
  const bool enabled_;
};

/// Bounded-error distribution, sharded like Counter. Record() is a
/// relaxed increment on the caller's shard plus a CAS-add into the
/// shard's exact sum; min/max are registry-wide CAS races (cold: they
/// mostly fail the "would change" check).
class Histogram {
 public:
  static constexpr size_t kShards = 8;

  void Record(double v) { Record(v, 1); }
  /// Weighted form: one batch-level stage duration attributed to every
  /// row of the batch, so per-row means stay row-weighted without
  /// kRows identical Record calls.
  void Record(double v, uint64_t weight);

  /// Merged view across shards (monitoring path).
  HistogramSnapshot Snapshot() const;

 private:
  friend class Registry;
  explicit Histogram(bool enabled);

  struct alignas(64) Shard {
    Shard();
    std::atomic<uint64_t> counts[LogLinearBuckets::kNumBuckets];
    std::atomic<uint64_t> count;
    std::atomic<uint64_t> sum_bits;  ///< double bits, CAS-add
  };
  /// Empty for the no-op instrument.
  std::vector<Shard> shards_;
  std::atomic<uint64_t> min_bits_;
  std::atomic<uint64_t> max_bits_;
};

/// One metric's identity plus its value at Snapshot() time.
struct MetricSnapshot {
  std::string name;
  Labels labels;
  MetricType type = MetricType::kCounter;
  uint64_t counter_value = 0;          ///< kCounter
  double gauge_value = 0.0;            ///< kGauge
  HistogramSnapshot histogram;         ///< kHistogram
};

/// The registry's full contents in registration order (what the
/// exporters render), and the one lookup that reads a metric back by its
/// exported name: a family's serving numbers are read this way, e.g.
/// `snap.CounterValue("serve.rows", {{"family", "ctr"}})`.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  /// The metric registered as (name, labels), labels in any order;
  /// nullptr when this snapshot holds no such metric (one registered
  /// after the snapshot was taken). Dies when its type is not `type`.
  const MetricSnapshot* Find(const std::string& name, const Labels& labels,
                             MetricType type) const;

  /// Find() that also dies when the metric is absent, so a misspelled
  /// name or label cannot read a vacuous 0.
  const MetricSnapshot& Get(const std::string& name, const Labels& labels,
                            MetricType type) const;

  /// Typed reads through Get().
  uint64_t CounterValue(const std::string& name,
                        const Labels& labels = {}) const;
  double GaugeValue(const std::string& name, const Labels& labels = {}) const;
  const HistogramSnapshot& HistogramValue(const std::string& name,
                                          const Labels& labels = {}) const;
};

/// Interval view over two registry snapshots: answers what happened
/// BETWEEN them -- counter deltas, the mean of histogram observations
/// recorded inside the interval, the latest gauge reading. This is how a
/// control loop (opt::PlacementTuner) turns the registry's cumulative
/// counters into observed rates without adding any bookkeeping to the hot
/// paths that write them. Every read goes through `cur`'s checked lookup
/// (RegistrySnapshot::Get), so an unknown name or a type mismatch dies; a
/// metric absent from `prev` (registered mid-interval) diffs against zero.
class SnapshotDelta {
 public:
  /// Both snapshots should come from the same registry, `prev` taken
  /// first.
  SnapshotDelta(RegistrySnapshot prev, RegistrySnapshot cur);

  /// cur - prev of a counter; 0 when it went backwards (registry swapped
  /// out underneath).
  uint64_t CounterDelta(const std::string& name, const Labels& labels) const;

  /// The latest (cur) gauge reading.
  double GaugeValue(const std::string& name, const Labels& labels) const;

  /// Exact mean of the histogram observations recorded inside the
  /// interval, (cur.sum - prev.sum) / (cur.count - prev.count);
  /// `fallback` when the interval recorded nothing.
  double HistogramIntervalMean(const std::string& name, const Labels& labels,
                               double fallback = 0.0) const;

  /// Count of histogram observations recorded inside the interval.
  uint64_t HistogramIntervalCount(const std::string& name,
                                  const Labels& labels) const;

 private:
  RegistrySnapshot prev_;
  RegistrySnapshot cur_;
};

struct RegistryOptions {
  /// false: every Get* returns a shared no-op instrument and Snapshot()
  /// is empty -- the zero-overhead baseline bench_serving gates against.
  bool enabled = true;
};

/// Owns the instruments. Registration (Get*) takes a mutex and interns
/// on (name, canonicalized labels); it is idempotent, so any subsystem
/// may Get* the same metric and share the instrument. Returned pointers
/// are stable for the registry's lifetime -- hot paths resolve them once
/// and never come back.
class Registry {
 public:
  explicit Registry(RegistryOptions opts = {});

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Fatally checks that a re-Get of an existing metric agrees on the
  /// instrument type (a name collision across types is a programming
  /// error, not load-dependent behavior).
  Counter* GetCounter(const std::string& name, Labels labels = {});
  Gauge* GetGauge(const std::string& name, Labels labels = {});
  Histogram* GetHistogram(const std::string& name, Labels labels = {});

  /// Point-in-time copy of every registered metric, registration order.
  RegistrySnapshot Snapshot() const;

  bool enabled() const { return enabled_; }

  /// Registered metric count (0 when disabled).
  size_t size() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricType type = MetricType::kCounter;
    size_t index = 0;  ///< into the per-type deque
  };

  /// The one registration path behind every Get*: interns (name, sorted
  /// labels) and returns its instrument, or `noop` when disabled.
  template <typename T>
  T* Intern(const std::string& name, Labels labels, MetricType type,
            std::vector<std::unique_ptr<T>>& instruments, T& noop);

  const bool enabled_;
  mutable std::mutex mu_;
  /// unique_ptr: instruments hold atomics (immovable), and their
  /// addresses must survive later registrations.
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
  std::vector<Entry> entries_;  ///< registration order
  std::unordered_map<std::string, size_t> index_;  ///< key -> entries_ idx
  /// The shared no-op instruments a disabled registry hands out.
  Counter noop_counter_;
  Gauge noop_gauge_;
  Histogram noop_histogram_;
};

}  // namespace dw::obs
