#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/logging.h"

namespace dw::obs {

namespace {

inline uint64_t DoubleBits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

inline double BitsDouble(uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

/// The caller's shard slot: assigned once per thread from a global
/// round-robin so distinct threads land on distinct cells (mod the shard
/// count) and a counter line is never shared between two hot writers.
inline size_t ThisThreadSlot() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// CAS-add of a double stored as atomic bits (no std::atomic<double>
/// fetch_add in C++17).
inline void AtomicAddDouble(std::atomic<uint64_t>* bits, double delta) {
  uint64_t cur = bits->load(std::memory_order_relaxed);
  for (;;) {
    const uint64_t next = DoubleBits(BitsDouble(cur) + delta);
    if (bits->compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
      return;
    }
  }
}

/// CAS-min/max on double bits; loads first so the common "no change"
/// case costs one read.
inline void AtomicMinDouble(std::atomic<uint64_t>* bits, double v) {
  uint64_t cur = bits->load(std::memory_order_relaxed);
  while (v < BitsDouble(cur)) {
    if (bits->compare_exchange_weak(cur, DoubleBits(v),
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

inline void AtomicMaxDouble(std::atomic<uint64_t>* bits, double v) {
  uint64_t cur = bits->load(std::memory_order_relaxed);
  while (v > BitsDouble(cur)) {
    if (bits->compare_exchange_weak(cur, DoubleBits(v),
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace

const char* ToString(MetricType t) {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

// ------------------------------------------------------ LogLinearBuckets --

int LogLinearBuckets::BucketFor(double v) {
  constexpr double kMinVal = 0x1p-20;
  constexpr double kMaxVal = 0x1p+30;
  if (!(v >= kMinVal)) return 0;  // also NaN and negatives
  if (v >= kMaxVal) return kNumBuckets - 1;
  int e;
  const double f = std::frexp(v, &e);  // v = f * 2^e, f in [0.5, 1)
  // The octave [2^(e-1), 2^e) splits geometrically at mantissa thresholds
  // 2^(k/4 - 1); three compares replace a log2 call on the hot path.
  constexpr double kR1 = 0.594603557501360533;  // 2^(1/4) / 2
  constexpr double kR2 = 0.707106781186547524;  // 2^(2/4) / 2
  constexpr double kR3 = 0.840896415253714543;  // 2^(3/4) / 2
  const int sub = (f >= kR1) + (f >= kR2) + (f >= kR3);
  return 1 + (e - 1 - kMinExp) * kSubBucketsPerOctave + sub;
}

double LogLinearBuckets::LowerBound(int bucket) {
  const int k = bucket - 1;
  return std::exp2(static_cast<double>(kMinExp) +
                   static_cast<double>(k) / kSubBucketsPerOctave);
}

double LogLinearBuckets::UpperBound(int bucket) {
  return LowerBound(bucket + 1);
}

// ---------------------------------------------------- HistogramSnapshot --

void HistogramSnapshot::Record(double v, uint64_t weight) {
  if (weight == 0) return;
  if (counts.empty()) counts.resize(LogLinearBuckets::kNumBuckets, 0);
  counts[LogLinearBuckets::BucketFor(v)] += weight;
  if (count == 0) {
    min = v;
    max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  count += weight;
  sum += v * static_cast<double>(weight);
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (counts.empty()) counts.resize(LogLinearBuckets::kNumBuckets, 0);
  DW_CHECK_EQ(counts.size(), other.counts.size());
  for (size_t b = 0; b < counts.size(); ++b) counts[b] += other.counts[b];
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
}

double HistogramSnapshot::Mean() const {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  const double frac = std::clamp(p, 0.0, 100.0) / 100.0;
  // Rank in [1, count]; the value the rank-th smallest observation fell
  // into (ceil, so p=0 is the first observation's bucket).
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(frac * static_cast<double>(count))));
  uint64_t cum = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    const uint64_t in_bucket = counts[b];
    if (in_bucket == 0) continue;
    if (cum + in_bucket < rank) {
      cum += in_bucket;
      continue;
    }
    // The rank lands here. Underflow/overflow buckets have no finite
    // width; the exact extremes stand in for them.
    if (b == 0) return min;
    if (b + 1 == counts.size()) return max;
    const double lo = LogLinearBuckets::LowerBound(static_cast<int>(b));
    const double hi = LogLinearBuckets::UpperBound(static_cast<int>(b));
    // Interpolate the rank's position inside the bucket, then clamp to
    // the exact extremes: the top quantile can never exceed the true
    // max, nor any quantile undercut the true min.
    const double within = (static_cast<double>(rank - cum) - 0.5) /
                          static_cast<double>(in_bucket);
    return std::clamp(lo + (hi - lo) * within, min, max);
  }
  return max;
}

// -------------------------------------------------------------- Counter --

Counter::Counter(bool enabled) : cells_(enabled ? kShards : 0) {}

void Counter::Add(uint64_t n) {
  if (cells_.empty()) return;  // the shared no-op instrument
  cells_[ThisThreadSlot() % kShards].v.fetch_add(n,
                                                 std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

// ---------------------------------------------------------------- Gauge --

void Gauge::Set(double v) {
  if (!enabled_) return;
  bits_.store(DoubleBits(v), std::memory_order_relaxed);
}

double Gauge::Value() const {
  return BitsDouble(bits_.load(std::memory_order_relaxed));
}

// ------------------------------------------------------------ Histogram --

Histogram::Shard::Shard() : count(0), sum_bits(0) {
  for (auto& c : counts) c.store(0, std::memory_order_relaxed);
}

Histogram::Histogram(bool enabled)
    : shards_(enabled ? kShards : 0),
      min_bits_(DoubleBits(std::numeric_limits<double>::infinity())),
      max_bits_(DoubleBits(-std::numeric_limits<double>::infinity())) {}

void Histogram::Record(double v, uint64_t weight) {
  if (shards_.empty() || weight == 0) return;
  Shard& s = shards_[ThisThreadSlot() % kShards];
  s.counts[LogLinearBuckets::BucketFor(v)].fetch_add(
      weight, std::memory_order_relaxed);
  s.count.fetch_add(weight, std::memory_order_relaxed);
  AtomicAddDouble(&s.sum_bits, v * static_cast<double>(weight));
  AtomicMinDouble(&min_bits_, v);
  AtomicMaxDouble(&max_bits_, v);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot out;
  if (shards_.empty()) return out;
  out.counts.resize(LogLinearBuckets::kNumBuckets, 0);
  for (const Shard& s : shards_) {
    for (int b = 0; b < LogLinearBuckets::kNumBuckets; ++b) {
      out.counts[b] += s.counts[b].load(std::memory_order_relaxed);
    }
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += BitsDouble(s.sum_bits.load(std::memory_order_relaxed));
  }
  if (out.count > 0) {
    out.min = BitsDouble(min_bits_.load(std::memory_order_relaxed));
    out.max = BitsDouble(max_bits_.load(std::memory_order_relaxed));
  }
  return out;
}

// -------------------------------------------------------------- Registry --

namespace {

/// Canonical map key: name + sorted labels with unprintable separators
/// (label keys/values are operator-supplied, not request-path input).
std::string MetricKey(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

/// `name{k=v,...}` for error messages.
std::string MetricKeyText(const std::string& name, const Labels& labels) {
  std::string text = name + "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) text += ',';
    text += labels[i].first + "=" + labels[i].second;
  }
  return text + "}";
}

}  // namespace

// ----------------------------------------------------- RegistrySnapshot --

const MetricSnapshot* RegistrySnapshot::Find(const std::string& name,
                                             const Labels& labels,
                                             MetricType type) const {
  Labels canonical = labels;
  std::sort(canonical.begin(), canonical.end());
  for (const MetricSnapshot& m : metrics) {
    if (m.name != name || m.labels != canonical) continue;
    DW_CHECK(m.type == type) << "metric " << MetricKeyText(name, canonical)
                             << " is a " << ToString(m.type) << ", read as a "
                             << ToString(type);
    return &m;
  }
  return nullptr;
}

const MetricSnapshot& RegistrySnapshot::Get(const std::string& name,
                                            const Labels& labels,
                                            MetricType type) const {
  const MetricSnapshot* m = Find(name, labels, type);
  DW_CHECK(m != nullptr) << "no " << ToString(type) << " "
                         << MetricKeyText(name, labels)
                         << " is registered";
  return *m;
}

uint64_t RegistrySnapshot::CounterValue(const std::string& name,
                                        const Labels& labels) const {
  return Get(name, labels, MetricType::kCounter).counter_value;
}

double RegistrySnapshot::GaugeValue(const std::string& name,
                                    const Labels& labels) const {
  return Get(name, labels, MetricType::kGauge).gauge_value;
}

const HistogramSnapshot& RegistrySnapshot::HistogramValue(
    const std::string& name, const Labels& labels) const {
  return Get(name, labels, MetricType::kHistogram).histogram;
}

// --------------------------------------------------------- SnapshotDelta --

SnapshotDelta::SnapshotDelta(RegistrySnapshot prev, RegistrySnapshot cur)
    : prev_(std::move(prev)), cur_(std::move(cur)) {}

uint64_t SnapshotDelta::CounterDelta(const std::string& name,
                                     const Labels& labels) const {
  const uint64_t now = cur_.CounterValue(name, labels);
  const MetricSnapshot* p = prev_.Find(name, labels, MetricType::kCounter);
  const uint64_t before = p != nullptr ? p->counter_value : 0;
  return now >= before ? now - before : 0;
}

double SnapshotDelta::GaugeValue(const std::string& name,
                                 const Labels& labels) const {
  return cur_.GaugeValue(name, labels);
}

double SnapshotDelta::HistogramIntervalMean(const std::string& name,
                                            const Labels& labels,
                                            double fallback) const {
  const HistogramSnapshot& now = cur_.HistogramValue(name, labels);
  const MetricSnapshot* p = prev_.Find(name, labels, MetricType::kHistogram);
  const uint64_t before = p != nullptr ? p->histogram.count : 0;
  if (now.count <= before) return fallback;
  const double sum_before = p != nullptr ? p->histogram.sum : 0.0;
  return (now.sum - sum_before) / static_cast<double>(now.count - before);
}

uint64_t SnapshotDelta::HistogramIntervalCount(const std::string& name,
                                               const Labels& labels) const {
  const uint64_t now = cur_.HistogramValue(name, labels).count;
  const MetricSnapshot* p = prev_.Find(name, labels, MetricType::kHistogram);
  const uint64_t before = p != nullptr ? p->histogram.count : 0;
  return now >= before ? now - before : 0;
}

Registry::Registry(RegistryOptions opts)
    : enabled_(opts.enabled),
      noop_counter_(false),
      noop_gauge_(false),
      noop_histogram_(false) {}

template <typename T>
T* Registry::Intern(const std::string& name, Labels labels, MetricType type,
                    std::vector<std::unique_ptr<T>>& instruments, T& noop) {
  if (!enabled_) return &noop;
  std::sort(labels.begin(), labels.end());
  std::lock_guard<std::mutex> lk(mu_);
  const std::string key = MetricKey(name, labels);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    const Entry& e = entries_[it->second];
    DW_CHECK(e.type == type) << "metric " << name << " re-registered as "
                             << ToString(type) << ", was " << ToString(e.type);
    return instruments[e.index].get();
  }
  instruments.emplace_back(new T(true));
  index_[key] = entries_.size();
  entries_.push_back({name, std::move(labels), type, instruments.size() - 1});
  return instruments.back().get();
}

Counter* Registry::GetCounter(const std::string& name, Labels labels) {
  return Intern(name, std::move(labels), MetricType::kCounter, counters_,
                noop_counter_);
}

Gauge* Registry::GetGauge(const std::string& name, Labels labels) {
  return Intern(name, std::move(labels), MetricType::kGauge, gauges_,
                noop_gauge_);
}

Histogram* Registry::GetHistogram(const std::string& name, Labels labels) {
  return Intern(name, std::move(labels), MetricType::kHistogram, histograms_,
                noop_histogram_);
}

RegistrySnapshot Registry::Snapshot() const {
  RegistrySnapshot snap;
  if (!enabled_) return snap;
  std::lock_guard<std::mutex> lk(mu_);
  snap.metrics.reserve(entries_.size());
  for (const Entry& e : entries_) {
    MetricSnapshot m;
    m.name = e.name;
    m.labels = e.labels;
    m.type = e.type;
    switch (e.type) {
      case MetricType::kCounter:
        m.counter_value = counters_[e.index]->Value();
        break;
      case MetricType::kGauge:
        m.gauge_value = gauges_[e.index]->Value();
        break;
      case MetricType::kHistogram:
        m.histogram = histograms_[e.index]->Snapshot();
        break;
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

size_t Registry::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

}  // namespace dw::obs
