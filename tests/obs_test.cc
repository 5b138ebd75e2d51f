// Tests for src/obs: log-linear bucket boundaries and the bounded
// percentile error guarantee against util::Percentile ground truth,
// concurrent sharded counter/histogram correctness (TSan-facing stress),
// the Prometheus text exposition golden rendering, JSON rendering, span
// ring-buffer wraparound, the disabled-registry no-op contract, and the
// background telemetry exporter lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/rng.h"
#include "util/stats.h"

namespace dw::obs {
namespace {

// --- bucket layout ---------------------------------------------------------

TEST(LogLinearBucketsTest, BoundaryValuesLandInTheirBucket) {
  // Every regular bucket is [LowerBound, UpperBound): its lower bound is
  // inside, and the value just below its upper bound is inside too.
  for (int b = 1; b <= LogLinearBuckets::kNumBuckets - 2; ++b) {
    const double lo = LogLinearBuckets::LowerBound(b);
    EXPECT_EQ(LogLinearBuckets::BucketFor(lo), b) << "lower bound of " << b;
    const double hi = LogLinearBuckets::UpperBound(b);
    EXPECT_EQ(LogLinearBuckets::BucketFor(std::nextafter(hi, 0.0)), b)
        << "just under upper bound of " << b;
    if (b < LogLinearBuckets::kNumBuckets - 2) {
      EXPECT_EQ(LogLinearBuckets::BucketFor(hi), b + 1)
          << "upper bound of " << b << " belongs to the next bucket";
    }
    // The layout is contiguous: each bucket starts where the previous
    // one ended.
    if (b > 1) {
      EXPECT_DOUBLE_EQ(lo, LogLinearBuckets::UpperBound(b - 1));
    }
    // Geometric growth bounds the relative width (the error guarantee).
    EXPECT_LT((hi - lo) / lo, LogLinearBuckets::kMaxRelativeError);
  }
}

TEST(LogLinearBucketsTest, UnderflowAndOverflow) {
  EXPECT_EQ(LogLinearBuckets::BucketFor(0.0), 0);
  EXPECT_EQ(LogLinearBuckets::BucketFor(-5.0), 0);
  EXPECT_EQ(LogLinearBuckets::BucketFor(std::nan("")), 0);
  EXPECT_EQ(LogLinearBuckets::BucketFor(1e-300), 0);
  EXPECT_EQ(LogLinearBuckets::BucketFor(1e300),
            LogLinearBuckets::kNumBuckets - 1);
  // Exact powers of two land on sub-bucket 0 of their octave.
  EXPECT_EQ(LogLinearBuckets::BucketFor(1.0),
            1 + (0 - LogLinearBuckets::kMinExp) *
                    LogLinearBuckets::kSubBucketsPerOctave);
}

// --- histogram snapshot ----------------------------------------------------

TEST(HistogramSnapshotTest, PercentileErrorBoundedAgainstGroundTruth) {
  // Log-uniform values over 6 decades: every quantile of the bucketed
  // histogram must be within kMaxRelativeError of the exact sample
  // percentile (plus the interpolation's own sub-sample wobble).
  Rng rng(42);
  HistogramSnapshot h;
  std::vector<double> exact;
  const int n = 20000;
  exact.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double v = std::pow(10.0, rng.Uniform(-3.0, 3.0));
    h.Record(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());
  for (const double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    const double truth = PercentileSorted(exact, p);
    const double est = h.Percentile(p);
    EXPECT_LE(RelativeError(est, truth),
              LogLinearBuckets::kMaxRelativeError)
        << "p" << p << ": est " << est << " vs exact " << truth;
  }
  // Sum/count/min/max are exact regardless of bucketing.
  EXPECT_EQ(h.count, static_cast<uint64_t>(n));
  EXPECT_DOUBLE_EQ(h.min, exact.front());
  EXPECT_DOUBLE_EQ(h.max, exact.back());
  double sum = 0.0;
  for (const double v : exact) sum += v;
  EXPECT_NEAR(h.sum, sum, 1e-6 * sum);
}

TEST(HistogramSnapshotTest, ExtremeQuantilesClampToExactMinMax) {
  HistogramSnapshot h;
  h.Record(3.0);
  h.Record(7.0);
  // Quantiles never escape the exact observed range, and the top end
  // clamps to the exact max (in-bucket interpolation would overshoot).
  EXPECT_GE(h.Percentile(0.0), 3.0);
  EXPECT_LE(RelativeError(h.Percentile(0.0), 3.0),
            LogLinearBuckets::kMaxRelativeError);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 7.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 5.0);
}

TEST(HistogramSnapshotTest, MergeAndWeightedRecord) {
  HistogramSnapshot a;
  HistogramSnapshot b;
  a.Record(1.0, 10);  // one batch-level stage attributed to 10 rows
  b.Record(100.0, 30);
  a.Merge(b);
  EXPECT_EQ(a.count, 40u);
  EXPECT_DOUBLE_EQ(a.sum, 10.0 * 1.0 + 30.0 * 100.0);
  EXPECT_DOUBLE_EQ(a.min, 1.0);
  EXPECT_DOUBLE_EQ(a.max, 100.0);
  // 75% of the mass sits at 100, so the median is the heavy value.
  EXPECT_LE(RelativeError(a.Percentile(60.0), 100.0),
            LogLinearBuckets::kMaxRelativeError);
  // An empty merge is a no-op in both directions.
  HistogramSnapshot empty;
  a.Merge(empty);
  EXPECT_EQ(a.count, 40u);
  empty.Merge(a);
  EXPECT_EQ(empty.count, 40u);
}

// --- concurrent instruments ------------------------------------------------

TEST(RegistryTest, ConcurrentCounterAddsNeverLoseIncrements) {
  Registry reg;
  Counter* c = reg.GetCounter("test.hits");
  const int kThreads = 8;
  const uint64_t kPerThread = 200000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), kThreads * kPerThread);
}

TEST(RegistryTest, ConcurrentHistogramRecordsMergeExactly) {
  Registry reg;
  Histogram* h = reg.GetHistogram("test.latency");
  const int kThreads = 8;
  const uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      // Every thread records a distinct constant, so each bucket's final
      // count is known exactly.
      const double v = static_cast<double>(1 << t);  // 1, 2, 4, ... 128
      for (uint64_t i = 0; i < kPerThread; ++i) h->Record(v);
    });
  }
  for (auto& t : threads) t.join();
  const HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 128.0);
  double want_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    want_sum += static_cast<double>(1 << t) * kPerThread;
    EXPECT_EQ(snap.counts[LogLinearBuckets::BucketFor(1 << t)], kPerThread);
  }
  EXPECT_DOUBLE_EQ(snap.sum, want_sum);
}

TEST(RegistryTest, GaugeLastWriteWins) {
  Registry reg;
  Gauge* g = reg.GetGauge("test.depth");
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
  g->Set(4.25);
  EXPECT_DOUBLE_EQ(g->Value(), 4.25);
  g->Set(-1.0);
  EXPECT_DOUBLE_EQ(g->Value(), -1.0);
}

// --- registry semantics ----------------------------------------------------

TEST(RegistryTest, InternsOnNameAndCanonicalizedLabels) {
  Registry reg;
  Counter* a = reg.GetCounter("q.accepted", {{"family", "ctr"}});
  // Re-Get of the same (name, labels) is idempotent: the SAME instrument.
  Counter* b = reg.GetCounter("q.accepted", {{"family", "ctr"}});
  Counter* c = reg.GetCounter("q.accepted", {{"family", "other"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Add(5);
  EXPECT_EQ(b->Value(), 5u);
  EXPECT_EQ(c->Value(), 0u);
  Counter* d = reg.GetCounter("q.accepted",
                              {{"node", "0"}, {"family", "ctr"}});
  Counter* e = reg.GetCounter("q.accepted",
                              {{"family", "ctr"}, {"node", "0"}});
  EXPECT_EQ(d, e);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(RegistryTest, DisabledRegistryIsNoOp) {
  Registry reg(RegistryOptions{false});
  EXPECT_FALSE(reg.enabled());
  Counter* c = reg.GetCounter("x.count");
  Gauge* g = reg.GetGauge("x.gauge");
  Histogram* h = reg.GetHistogram("x.hist");
  ASSERT_NE(c, nullptr);
  ASSERT_NE(g, nullptr);
  ASSERT_NE(h, nullptr);
  c->Add(100);
  g->Set(3.0);
  h->Record(1.0);
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->Snapshot().count, 0u);
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_TRUE(reg.Snapshot().metrics.empty());
}

TEST(RegistryTest, SnapshotPreservesRegistrationOrder) {
  Registry reg;
  reg.GetCounter("a.first");
  reg.GetGauge("b.second");
  reg.GetHistogram("c.third");
  const RegistrySnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "a.first");
  EXPECT_EQ(snap.metrics[1].name, "b.second");
  EXPECT_EQ(snap.metrics[2].name, "c.third");
  EXPECT_EQ(snap.metrics[0].type, MetricType::kCounter);
  EXPECT_EQ(snap.metrics[1].type, MetricType::kGauge);
  EXPECT_EQ(snap.metrics[2].type, MetricType::kHistogram);
}

// --- snapshot deltas --------------------------------------------------------

TEST(SnapshotDeltaTest, CounterDeltaMeasuresTheInterval) {
  Registry reg;
  Counter* rows = reg.GetCounter("serve.rows", {{"family", "m"}});
  rows->Add(7);
  const RegistrySnapshot prev = reg.Snapshot();
  rows->Add(5);
  const SnapshotDelta delta(prev, reg.Snapshot());
  EXPECT_EQ(delta.CounterDelta("serve.rows", {{"family", "m"}}), 5u);
}

TEST(SnapshotDeltaTest, LookupCanonicalizesLabelOrder) {
  Registry reg;
  Counter* c = reg.GetCounter("x.count", {{"b", "2"}, {"a", "1"}});
  const RegistrySnapshot prev = reg.Snapshot();
  c->Add(3);
  const SnapshotDelta delta(prev, reg.Snapshot());
  // The query's label order must not matter, as for registry interning.
  EXPECT_EQ(delta.CounterDelta("x.count", {{"a", "1"}, {"b", "2"}}), 3u);
}

TEST(SnapshotDeltaTest, MidIntervalRegistrationDiffsAgainstZero) {
  Registry reg;
  const RegistrySnapshot prev = reg.Snapshot();  // metric not born yet
  reg.GetCounter("late.count")->Add(9);
  const SnapshotDelta delta(prev, reg.Snapshot());
  EXPECT_EQ(delta.CounterDelta("late.count", {}), 9u);
}

TEST(SnapshotDeltaTest, GaugeReadsTheLatestValue) {
  Registry reg;
  Gauge* g = reg.GetGauge("x.level");
  g->Set(2.0);
  const RegistrySnapshot prev = reg.Snapshot();
  g->Set(8.0);
  const SnapshotDelta delta(prev, reg.Snapshot());
  EXPECT_DOUBLE_EQ(delta.GaugeValue("x.level", {}), 8.0);
}

TEST(SnapshotDeltaTest, HistogramIntervalMeanIsExactOverTheInterval) {
  Registry reg;
  Histogram* h = reg.GetHistogram("x.lat");
  h->Record(1000.0);  // pre-interval noise the delta must exclude
  const RegistrySnapshot prev = reg.Snapshot();
  h->Record(10.0);
  h->Record(20.0);
  const SnapshotDelta delta(prev, reg.Snapshot());
  // (sum 30) / (count 2): exact from the snapshot sums, not bucketed.
  EXPECT_DOUBLE_EQ(delta.HistogramIntervalMean("x.lat", {}), 15.0);
  EXPECT_EQ(delta.HistogramIntervalCount("x.lat", {}), 2u);
}

TEST(SnapshotDeltaTest, EmptyIntervalReportsTheFallback) {
  Registry reg;
  Histogram* h = reg.GetHistogram("x.lat");
  h->Record(42.0);
  const RegistrySnapshot prev = reg.Snapshot();
  const SnapshotDelta delta(prev, reg.Snapshot());  // nothing recorded
  EXPECT_EQ(delta.HistogramIntervalCount("x.lat", {}), 0u);
  EXPECT_DOUBLE_EQ(delta.HistogramIntervalMean("x.lat", {}, -1.0), -1.0);
}

TEST(RegistrySnapshotDeathTest, CheckedLookupDiesOnUnknownNameAndTypeMismatch) {
  Registry reg;
  reg.GetCounter("serve.rows", {{"family", "m"}})->Add(1);
  reg.GetGauge("queue.depth", {{"family", "m"}});
  const RegistrySnapshot snap = reg.Snapshot();
  // A misspelled name, or a known name under labels nothing registered,
  // must not read a vacuous 0 -- nor through a SnapshotDelta.
  EXPECT_DEATH(snap.CounterValue("serve.row", {{"family", "m"}}),
               "no counter serve.row.family=m. is registered");
  EXPECT_DEATH(snap.CounterValue("serve.rows", {{"family", "ghost"}}),
               "no counter serve.rows.family=ghost. is registered");
  const SnapshotDelta delta(snap, reg.Snapshot());
  EXPECT_DEATH(delta.CounterDelta("serve.rows", {{"family", "ghost"}}),
               "no counter serve.rows.family=ghost.");
  EXPECT_DEATH(delta.HistogramIntervalMean("no.such", {}, -2.0),
               "no histogram no.such");
  EXPECT_DEATH(delta.GaugeValue("no.such", {}), "no gauge no.such");
  // The right name read as the wrong type.
  EXPECT_DEATH(snap.GaugeValue("serve.rows", {{"family", "m"}}),
               "serve.rows.family=m. is a counter, read as a gauge");
  EXPECT_DEATH(snap.Find("queue.depth", {{"family", "m"}},
                         MetricType::kHistogram),
               "is a gauge, read as a histogram");
  // A disabled registry exports nothing, so every read dies.
  Registry off(RegistryOptions{false});
  off.GetCounter("serve.rows")->Add(1);
  EXPECT_DEATH(off.Snapshot().CounterValue("serve.rows"),
               "no counter serve.rows");
}

// --- prometheus rendering --------------------------------------------------

std::string Le(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

TEST(RenderPrometheusTest, GoldenExposition) {
  Registry reg;
  reg.GetCounter("serve.rows", {{"family", "ctr"}})->Add(3);
  reg.GetGauge("admission.est_row_us", {{"family", "ctr"}})->Set(12.5);
  Histogram* h = reg.GetHistogram("serve.latency_ms");
  h->Record(1.0);
  h->Record(2.0);
  // A second family of the counter registered later must still render
  // contiguously under the first # TYPE header.
  reg.GetCounter("serve.rows", {{"family", "svm"}})->Add(7);

  const int b1 = LogLinearBuckets::BucketFor(1.0);
  const int b2 = LogLinearBuckets::BucketFor(2.0);
  const std::string expected =
      "# TYPE dw_serve_rows_total counter\n"
      "dw_serve_rows_total{family=\"ctr\"} 3\n"
      "dw_serve_rows_total{family=\"svm\"} 7\n"
      "# TYPE dw_admission_est_row_us gauge\n"
      "dw_admission_est_row_us{family=\"ctr\"} 12.5\n"
      "# TYPE dw_serve_latency_ms histogram\n"
      "dw_serve_latency_ms_bucket{le=\"" +
      Le(LogLinearBuckets::UpperBound(b1)) +
      "\"} 1\n"
      "dw_serve_latency_ms_bucket{le=\"" +
      Le(LogLinearBuckets::UpperBound(b2)) +
      "\"} 2\n"
      "dw_serve_latency_ms_bucket{le=\"+Inf\"} 2\n"
      "dw_serve_latency_ms_sum 3\n"
      "dw_serve_latency_ms_count 2\n";
  EXPECT_EQ(RenderPrometheus(reg.Snapshot()), expected);
}

TEST(RenderPrometheusTest, EscapesLabelValues) {
  Registry reg;
  reg.GetCounter("x.count", {{"client", "a\"b\\c\nd"}})->Add(1);
  const std::string out = RenderPrometheus(reg.Snapshot());
  EXPECT_NE(out.find("client=\"a\\\"b\\\\c\\nd\""), std::string::npos)
      << out;
}

TEST(RenderJsonTest, EmitsHistogramSummary) {
  Registry reg;
  Histogram* h = reg.GetHistogram("serve.latency_ms", {{"family", "ctr"}});
  h->Record(4.0);
  h->Record(4.0);
  const std::string out = RenderJson(reg.Snapshot());
  EXPECT_NE(out.find("\"name\":\"serve.latency_ms\""), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"family\":\"ctr\""), std::string::npos);
  EXPECT_NE(out.find("\"count\":2"), std::string::npos);
  EXPECT_NE(out.find("\"sum\":8"), std::string::npos);
  EXPECT_NE(out.find("\"mean\":4"), std::string::npos);
  EXPECT_NE(out.find("\"buckets\""), std::string::npos);
}

// --- span ring -------------------------------------------------------------

TEST(SpanRecorderTest, RingWrapsAroundKeepingNewest) {
  SpanRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    SpanRecord r;
    r.family = "f" + std::to_string(i);
    r.total_us = static_cast<double>(i);
    rec.Record(std::move(r));
  }
  EXPECT_EQ(rec.recorded(), 10u);
  const std::vector<SpanRecord> spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first: the ring kept the last four records, seq 6..9.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].seq, static_cast<uint64_t>(6 + i));
    EXPECT_EQ(spans[i].family, "f" + std::to_string(6 + i));
  }
}

TEST(SpanRecorderTest, PartialRingAndDisabled) {
  SpanRecorder rec(8);
  SpanRecord r;
  r.family = "only";
  rec.Record(std::move(r));
  const auto spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].seq, 0u);

  SpanRecorder off(0);
  off.Record(SpanRecord{});
  EXPECT_EQ(off.recorded(), 0u);
  EXPECT_TRUE(off.Snapshot().empty());
}

TEST(SpanRecorderTest, StageNamesCoverAllStages) {
  for (int s = 0; s < kNumStages; ++s) {
    EXPECT_STRNE(StageName(s), "?");
  }
  EXPECT_STREQ(StageName(Stage::kAdmit), "admit");
  EXPECT_STREQ(StageName(Stage::kComplete), "complete");
}

// --- telemetry exporter ----------------------------------------------------

std::string TempPath(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  std::string base = dir != nullptr ? dir : "/tmp";
  return base + "/" + stem + "." + std::to_string(::getpid());
}

TEST(TelemetryExporterTest, PeriodicExportReachesSinkAndFiles) {
  Registry reg;
  reg.GetCounter("test.ticks")->Add(11);
  TelemetryExporter::Options opts;
  opts.period = std::chrono::milliseconds(5);
  opts.prometheus_path = TempPath("dw_obs_test_prom");
  opts.json_path = TempPath("dw_obs_test_json");
  std::atomic<uint64_t> sink_calls{0};
  opts.sink = [&sink_calls](const std::string& prom,
                            const std::string& json) {
    EXPECT_NE(prom.find("dw_test_ticks_total 11"), std::string::npos);
    EXPECT_NE(json.find("\"test.ticks\""), std::string::npos);
    ++sink_calls;
  };
  {
    TelemetryExporter exporter(&reg, opts);
    exporter.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    exporter.Stop();
  }
  EXPECT_GE(sink_calls.load(), 1u);
  std::ifstream prom(opts.prometheus_path);
  ASSERT_TRUE(prom.good());
  std::stringstream prom_body;
  prom_body << prom.rdbuf();
  EXPECT_NE(prom_body.str().find("dw_test_ticks_total 11"),
            std::string::npos);
  std::ifstream json(opts.json_path);
  ASSERT_TRUE(json.good());
  std::stringstream json_body;
  json_body << json.rdbuf();
  EXPECT_NE(json_body.str().find("\"metrics\""), std::string::npos);
  std::remove(opts.prometheus_path.c_str());
  std::remove(opts.json_path.c_str());
}

TEST(TelemetryExporterTest, ExportOnceWorksWithoutStart) {
  Registry reg;
  reg.GetGauge("test.g")->Set(2.0);
  std::atomic<int> calls{0};
  TelemetryExporter::Options opts;
  opts.sink = [&calls](const std::string&, const std::string&) { ++calls; };
  TelemetryExporter exporter(&reg, opts);
  exporter.ExportOnce();
  EXPECT_EQ(calls.load(), 1);
}

TEST(TelemetryExporterTest, StopExportsOnceWhenNoPeriodElapsed) {
  // A 10 s period never elapses here: the sink sees only the final export
  // of the Stop() that joined the thread, and none from the second Stop()
  // or the destructor.
  Registry reg;
  std::atomic<int> calls{0};
  TelemetryExporter::Options opts;
  opts.period = std::chrono::seconds(10);
  opts.sink = [&calls](const std::string&, const std::string&) { ++calls; };
  {
    TelemetryExporter exporter(&reg, opts);
    exporter.Start();
    exporter.Stop();
    exporter.Stop();
  }
  EXPECT_EQ(calls.load(), 1);
}

}  // namespace
}  // namespace dw::obs
