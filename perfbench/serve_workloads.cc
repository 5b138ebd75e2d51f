// Serving workloads: serve::ServingEngine driven from outside through
// Score / ScoreKey, with the harness as the clients.
//
//   serve-carried   closed loop: kWindow requests outstanding, carried
//                   sparse rows, one LR family, no store, no publishes.
//   serve-kv-churn  open loop at kOpenRate keyed reads/s against a feature
//                   store, while a writer thread publishes store deltas
//                   and model versions.
//
// Threads: the generator sends, a completion thread waits on the futures
// in send order (so latency is send/due time to future ready), and the
// kv workload adds the writer. Together with the serving workers that
// stays within one thread per CPU (checked in main.cc).
//
// serve-carried's traced run also times the training engine in a side run
// after its window (engine_layers.cc), which keeps the engine, numa and
// matrix layers measured.
//
// Statistics are medians over kSegmentS slices of the window: a host stall
// that spoils one slice moves the run's p50/p95/rows_per_s by one rank,
// not by its length. Traced runs alternate untraced and traced slices.
#include <immintrin.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/paper_datasets.h"
#include "harness.h"
#include "models/glm.h"
#include "serve/serving_engine.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using dw::matrix::Index;
using dw::matrix::SparseVectorView;

constexpr size_t kWindow = 64;         // closed loop: outstanding requests
constexpr size_t kCarriedSlots = 128;  // payload slots, > kWindow
constexpr double kCarriedMaxRate = 600000.0;  // sample buffer sizing
constexpr int kCarriedWorkers = 2;
constexpr int kKvWorkers = 1;
constexpr double kOpenRate = 40000.0;  // keyed reads per second
constexpr size_t kOpenSlots = size_t{1} << 16;
constexpr Index kStoreRows = 65536;
constexpr Index kStoreDim = 128;
constexpr Index kPageRows = 64;
constexpr double kDeltaHz = 20.0;
constexpr int kDeltasPerModelPublish = 5;  // 4 Hz model publishes
constexpr double kChurn = 0.01;            // keys per delta / store rows
constexpr double kVersionStep = 0.02;      // margin shift per key version
constexpr double kScoreTolerance = 1e-9;
constexpr double kLabelNoise = 0.1;  // share of labels flipped
constexpr int kSetups = 51;
constexpr double kWarmupS = 0.5;
constexpr double kSegmentS = 0.5;
constexpr double kMaxGenOverheadFrac = 0.1;
constexpr double kMaxGenLateMs = 1.0;
const char* const kFamily = "bench";

dw::serve::ServingOptions OptionsFor(int workers) {
  dw::serve::ServingOptions o;
  o.topology = dw::numa::Local2();
  o.num_threads = workers;
  o.batch.max_batch_size = 64;
  o.batch.max_delay = std::chrono::microseconds(200);
  o.scoring = dw::serve::ScoringMode::kBatched;
  return o;
}

dw::serve::ServingFamilyOptions PinnedFamily(Index dim) {
  dw::serve::ServingFamilyOptions f;
  f.traffic.dim = dim;
  f.replication_override = dw::serve::Replication::kPerNode;
  return f;
}

inline void Pause() { _mm_pause(); }

double LogLoss(double p, double label) {
  p = std::clamp(p, 1e-12, 1.0 - 1e-12);
  return label > 0 ? -std::log(p) : -std::log(1.0 - p);
}

// ---------------------------------------------------------- the window --

/// The measured window, cut into kSegmentS slices from its start; requests
/// sent during warm-up fall in segment -1.
struct Window {
  int64_t start_ns = 0;  ///< after warm-up
  int64_t end_ns = 0;
  bool trace = false;

  Window(const Args& args, int64_t now)
      : start_ns(now + static_cast<int64_t>(kWarmupS * 1e9)),
        end_ns(start_ns + static_cast<int64_t>(args.seconds * 1e9)),
        trace(args.trace) {}

  int segments() const {
    return static_cast<int>(std::ceil((end_ns - start_ns) * 1e-9 / kSegmentS));
  }
  int SegmentOf(int64_t t) const {
    if (t < start_ns) return -1;
    return std::min(segments() - 1,
                    static_cast<int>((t - start_ns) * 1e-9 / kSegmentS));
  }
  /// Odd segments of a traced run have harness spans on.
  bool Traced(int segment) const { return trace && segment % 2 == 1; }
};

/// One completed request. 8 bytes, in a buffer touched before the window
/// so the run's RSS does not depend on its throughput.
struct Sample {
  float latency_ms;
  int32_t segment;  ///< by send (closed loop) or due (open loop) time
};

/// What the completion thread records: latencies by send segment, plus
/// completions by ready segment for the throughput.
struct Recorder {
  explicit Recorder(const Window& w, size_t capacity)
      : window(w), samples(capacity, Sample{0.0f, 0}),
        ready_count(w.segments(), 0),
        ready_first(w.segments(), std::numeric_limits<int64_t>::max()),
        ready_last(w.segments(), 0) {}

  void Record(int64_t start_ns, int64_t ready_ns) {
    if (used < samples.size()) {
      samples[used++] = Sample{static_cast<float>((ready_ns - start_ns) * 1e-6),
                               window.SegmentOf(start_ns)};
    } else {
      overflow++;
    }
    const int seg = window.SegmentOf(ready_ns);
    if (seg < 0 || ready_ns >= window.end_ns) return;
    ready_count[seg]++;
    ready_first[seg] = std::min(ready_first[seg], ready_ns);
    ready_last[seg] = std::max(ready_last[seg], ready_ns);
  }

  const Window& window;
  std::vector<Sample> samples;
  size_t used = 0;
  uint64_t overflow = 0;
  std::vector<uint64_t> ready_count;
  std::vector<int64_t> ready_first;
  std::vector<int64_t> ready_last;
};

struct LatencySummary {
  double rows_per_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double traced_p50_ms = 0.0;
};

LatencySummary Summarize(const Recorder& rec) {
  const Window& w = rec.window;
  std::vector<std::vector<double>> by_segment(w.segments());
  std::vector<double> all;
  double sum = 0.0;
  for (size_t i = 0; i < rec.used; ++i) {
    const Sample& s = rec.samples[i];
    if (s.segment < 0) continue;
    by_segment[s.segment].push_back(s.latency_ms);
    if (w.Traced(s.segment)) continue;
    all.push_back(s.latency_ms);
    sum += s.latency_ms;
  }
  std::vector<double> p50, p95, traced_p50, rate;
  for (int seg = 0; seg < w.segments(); ++seg) {
    const std::vector<double>& xs = by_segment[seg];
    if (xs.size() < 20) continue;  // a p95 needs samples beyond it
    if (w.Traced(seg)) {
      traced_p50.push_back(Percentile(xs, 50.0));
      continue;
    }
    p50.push_back(Percentile(xs, 50.0));
    p95.push_back(Percentile(xs, 95.0));
    if (rec.ready_count[seg] > 1) {
      rate.push_back(static_cast<double>(rec.ready_count[seg] - 1) /
                     ((rec.ready_last[seg] - rec.ready_first[seg]) * 1e-9));
    }
  }
  LatencySummary out;
  out.rows_per_s = Median(rate);
  out.p50_ms = Median(p50);
  out.p95_ms = Median(p95);
  out.traced_p50_ms = Median(traced_p50);
  out.mean_ms = all.empty() ? 0.0 : sum / static_cast<double>(all.size());
  out.p99_ms = Percentile(std::move(all), 99.0);
  return out;
}

void ReportLatency(const LatencySummary& l, const Recorder& rec,
                   Report* report) {
  report->Set("rows_per_s", l.rows_per_s, "rows/s");
  report->Set("p50_ms", l.p50_ms, "ms");
  report->Set("serve.p95_ms", l.p95_ms, "ms");
  report->Set("serve.p99_ms", l.p99_ms, "ms");
  if (rec.overflow > 0) {
    report->Fail("sample buffer overflowed by " +
                 std::to_string(rec.overflow) + " requests");
  }
}

/// Per-layer numbers the serving engine already keeps: Stats() for the
/// batcher and admission, the registry's stage histograms for latency.
void ReportServingLayers(const dw::serve::ServingEngine& server,
                         Report* report) {
  const dw::serve::ServingStats stats = server.Stats();
  const dw::serve::FamilyServingStats& f = stats.families.at(0);
  const double flushes = static_cast<double>(f.flush_size + f.flush_deadline +
                                             f.flush_drain);
  report->Set("serve.batch_rows", f.mean_batch_rows, "rows");
  report->Set("serve.flush_deadline_frac",
              flushes > 0 ? f.flush_deadline / flushes : 0.0, "ratio");
  report->Set("opt.rejected", static_cast<double>(f.rejected), "count");
  report->Set("opt.rejected_cost", static_cast<double>(f.rejected_cost),
              "count");
  report->Set("opt.est_row_us", f.est_row_us, "us");
  report->Set("opt.measured_row_us", f.measured_row_us_ewma, "us");
  const double gathers =
      static_cast<double>(f.local_store_rows + f.remote_store_rows);
  report->Set("store.remote_frac",
              gathers > 0 ? f.remote_store_rows / gathers : 0.0, "ratio");
  for (const dw::obs::MetricSnapshot& m :
       server.telemetry().Snapshot().metrics) {
    if (m.name != "serve.stage_us") continue;
    std::string stage;
    for (const auto& [k, v] : m.labels) {
      if (k == "stage") stage = v;
    }
    if (stage.empty() || stage == "admit") continue;  // admit: timed here
    report->Set("serve.stage_us." + stage + ".p50",
                m.histogram.Percentile(50), "us");
    report->Set("serve.stage_us." + stage + ".p99",
                m.histogram.Percentile(99), "us");
  }
}

/// kernels.<kind>_gbps: harness-timed PredictBatch over 64-row batches
/// of the workload's own rows. Bytes are computed, not measured: the row
/// payload (values, plus indices when sparse) plus the model bytes the
/// spec reports for the call.
void ReportKernel(const std::string& kind, const dw::models::ModelSpec& spec,
                  const std::vector<double>& weights,
                  const std::vector<SparseVectorView>& rows, double peak_gbps,
                  Report* report) {
  constexpr size_t kBatch = 64;
  const Index dim = static_cast<Index>(weights.size());
  std::vector<double> out(kBatch);
  double bytes = 0.0;
  const int64_t start = NowNs();
  do {
    for (size_t b = 0; b + kBatch <= rows.size(); b += kBatch) {
      uint64_t nnz = 0;
      for (size_t k = b; k < b + kBatch; ++k) nnz += rows[k].nnz;
      const bool dense = rows[b].indices == nullptr;
      {
        Tracer::Span span("kernels.PredictBatch");
        spec.PredictBatch(weights.data(), dim, &rows[b], kBatch, out.data());
      }
      bytes += static_cast<double>(
          nnz * (sizeof(double) + (dense ? 0 : sizeof(Index))) +
          spec.PredictBatchModelBytes(dim, nnz, kBatch));
    }
  } while (SecondsSince(start) < 0.3);
  const double gbps = bytes / SecondsSince(start) / 1e9;
  report->Set("kernels." + kind + "_gbps", gbps, "GB/s");
  report->Set("kernels." + kind + "_frac_peak",
              peak_gbps > 0 ? gbps / peak_gbps : 0.0, "ratio");
}

/// Counters shared by the generator and completion threads.
struct LoopCounts {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> misses{0};
};

/// Waits on futures in send order; shared by both loops. `Slot` carries
/// fut / ok / start_ns / item. A slot is released to the generator as soon
/// as its future is ready; reading the score and `on_done` happen after,
/// which is safe because the generator reuses a slot only a ring later.
template <typename Slot, typename OnDone>
void CompletionLoop(std::vector<Slot>& slots, std::atomic<uint64_t>& sent,
                    std::atomic<uint64_t>& done, std::atomic<bool>& gen_done,
                    LoopCounts& counts, Recorder* rec, OnDone on_done) {
  uint64_t seq = 0;
  for (;;) {
    if (seq == sent.load(std::memory_order_acquire)) {
      if (gen_done.load(std::memory_order_acquire) &&
          seq == sent.load(std::memory_order_acquire)) {
        return;
      }
      Pause();
      continue;
    }
    Slot& s = slots[seq % slots.size()];
    int64_t ready = 0;
    if (s.ok) {
      Tracer::Span span("serve.wait", static_cast<int64_t>(seq));
      s.fut.wait();
      ready = NowNs();
    }
    done.store(seq + 1, std::memory_order_release);
    if (s.ok) {
      try {
        const double score = s.fut.get();
        rec->Record(s.start_ns, ready);
        on_done(seq, s.item, &score);
      } catch (const dw::serve::StoreKeyMiss&) {
        counts.misses++;
        on_done(seq, s.item, nullptr);
      } catch (...) {
        counts.errors++;
        on_done(seq, s.item, nullptr);
      }
    } else {
      on_done(seq, s.item, nullptr);
    }
    ++seq;
  }
}

/// 0..n-1 in a seeded random order.
std::vector<uint32_t> Shuffled(size_t n, dw::Rng* rng) {
  std::vector<uint32_t> out(n);
  for (uint32_t i = 0; i < n; ++i) out[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(out[i - 1], out[rng->Below(i)]);
  return out;
}

/// Flips exactly kLabelNoise of the labels, chosen at random: a fixed
/// count, so the served log-loss does not carry the binomial spread of
/// independent flips from seed to seed.
void FlipLabels(std::vector<double>* labels, dw::Rng* rng) {
  const std::vector<uint32_t> order = Shuffled(labels->size(), rng);
  const size_t flips = static_cast<size_t>(kLabelNoise * labels->size());
  for (size_t i = 0; i < flips; ++i) (*labels)[order[i]] *= -1.0;
}

/// Mean |margin| of `w` over `rows`.
double MeanAbsMargin(const std::vector<double>& w,
                     const dw::matrix::CsrMatrix& a) {
  double sum = 0.0;
  for (Index i = 0; i < a.rows(); ++i) sum += std::abs(a.Row(i).Dot(w.data()));
  return a.rows() > 0 ? sum / a.rows() : 0.0;
}

// ------------------------------------------------------- serve-carried --

struct CarriedSlot {
  std::vector<Index> indices;
  std::vector<double> values;
  std::future<double> fut;
  bool ok = false;
  int64_t start_ns = 0;
  uint32_t item = 0;
};

/// The carried workload's model and labels: a seeded teacher vector,
/// scaled to a mean |margin| of 1 on the rows, labels its sign with
/// kLabelNoise flips, and is served as the model. The served log-loss then
/// depends on the noise level, not on which seed drew the data.
struct CarriedInputs {
  dw::data::Dataset data;
  std::vector<double> weights;
  std::vector<double> labels;
  std::vector<uint32_t> order;  ///< request stream: a shuffle of the rows
};

CarriedInputs MakeCarriedInputs(uint64_t seed) {
  CarriedInputs in;
  in.data = dw::data::Rcv1(0.05, seed);
  const dw::matrix::CsrMatrix& a = in.data.a;
  dw::Rng rng(seed ^ 0xca77edULL);
  in.weights.resize(a.cols());
  for (double& w : in.weights) w = rng.Gaussian();
  const double scale = 1.0 / std::max(1e-12, MeanAbsMargin(in.weights, a));
  for (double& w : in.weights) w *= scale;
  in.order = Shuffled(a.rows(), &rng);
  in.labels.resize(a.rows());
  for (Index i = 0; i < a.rows(); ++i) {
    in.labels[i] = a.Row(i).Dot(in.weights.data()) >= 0.0 ? 1.0 : -1.0;
  }
  FlipLabels(&in.labels, &rng);
  return in;
}

std::unique_ptr<dw::serve::ServingEngine> SetUpCarried(
    const dw::models::ModelSpec& spec, const std::vector<double>& weights) {
  std::unique_ptr<dw::serve::ServingEngine> server;
  {
    Tracer::Span span("serve.ServingEngine");
    server = std::make_unique<dw::serve::ServingEngine>(
        OptionsFor(kCarriedWorkers));
  }
  dw::Status st;
  {
    Tracer::Span span("serve.RegisterFamily");
    st = server->RegisterFamily(
        kFamily, &spec, PinnedFamily(static_cast<Index>(weights.size())));
  }
  if (st.ok()) {
    {
      Tracer::Span span("registry.Publish");
      server->Publish(kFamily, weights);
    }
    Tracer::Span span("serve.Start");
    st = server->Start();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "serving set-up failed: %s\n", st.ToString().c_str());
    std::exit(3);
  }
  return server;
}

void RunCarried(const Args& args, Report* report) {
  // ---- inputs --------------------------------------------------------------
  const CarriedInputs in = MakeCarriedInputs(args.seed);
  const dw::matrix::CsrMatrix& a = in.data.a;
  dw::models::LogisticSpec spec;
  report->info["dataset"] = in.data.name + " " + std::to_string(a.rows()) +
                            "x" + std::to_string(a.cols()) + ", nnz " +
                            std::to_string(a.nnz());
  Tracer::SetEnabled(args.trace);
  const double peak_gbps = MeasurePeakGbps(report);

  // ---- set-up, several times ---------------------------------------------
  std::vector<double> setups;
  std::unique_ptr<dw::serve::ServingEngine> server;
  for (int i = 0; i < kSetups; ++i) {
    if (server) server->Stop();
    server.reset();
    const int64_t start = NowNs();
    server = SetUpCarried(spec, in.weights);
    setups.push_back(SecondsSince(start));
  }
  Tracer::SetEnabled(false);

  // ---- closed loop ---------------------------------------------------------
  std::vector<CarriedSlot> slots(kCarriedSlots);
  auto fill = [&](size_t slot, uint64_t seq) {
    const uint32_t row = in.order[seq % in.order.size()];
    const SparseVectorView v = a.Row(row);
    slots[slot].item = row;
    slots[slot].indices.assign(v.indices, v.indices + v.nnz);
    slots[slot].values.assign(v.values, v.values + v.nnz);
  };
  for (size_t s = 0; s < kCarriedSlots; ++s) fill(s, s);

  // Every score of a row must be the same bits: keep the first and count
  // the rest that differ; the first is checked against the reference
  // after the window.
  std::vector<double> first_score(a.rows(),
                                  std::numeric_limits<double>::quiet_NaN());
  std::vector<uint32_t> served(a.rows(), 0);
  uint64_t unstable = 0;
  LoopCounts counts;
  std::atomic<uint64_t> sent{0}, done{0};
  std::atomic<bool> gen_done{false};
  const Window window(args, NowNs());
  Recorder rec(window, static_cast<size_t>(
                           kCarriedMaxRate * (args.seconds + kWarmupS)));

  std::thread completion([&] {
    CompletionLoop(slots, sent, done, gen_done, counts, &rec,
                   [&](uint64_t seq, uint32_t row, const double* score) {
                     if (score != nullptr) {
                       if (served[row]++ == 0) {
                         first_score[row] = *score;
                       } else if (*score != first_score[row]) {
                         unstable++;
                       }
                     }
                     fill(seq % kCarriedSlots, seq + kCarriedSlots);
                   });
  });
  // The generator's time splits into Score calls (the serving system's
  // admission path, on the caller's thread), waiting for a free window
  // slot (the system is behind), and its own bookkeeping. Only the last
  // is the harness; it must stay small for the loop to measure the system.
  int64_t score_ns = 0, wait_ns = 0, gen_ns = 0;
  std::thread generator([&] {
    uint64_t seq = 0;
    bool traced = false;
    const int64_t gen_start = NowNs();
    for (int64_t now = gen_start; now < window.end_ns; now = NowNs()) {
      if (seq - done.load(std::memory_order_acquire) >= kWindow) {
        while (seq - done.load(std::memory_order_acquire) >= kWindow) Pause();
        wait_ns += NowNs() - now;
        continue;
      }
      const bool want = window.Traced(window.SegmentOf(now));
      if (want != traced) Tracer::SetEnabled(traced = want);
      CarriedSlot& s = slots[seq % kCarriedSlots];
      s.start_ns = now;
      {
        Tracer::Span span("serve.Score", static_cast<int64_t>(seq));
        auto r = server->Score(kFamily, std::move(s.indices),
                               std::move(s.values));
        s.ok = r.ok();
        if (s.ok) s.fut = std::move(r).value();
      }
      score_ns += NowNs() - now;
      counts.attempted++;
      if (!s.ok) counts.rejected++;
      sent.store(++seq, std::memory_order_release);
    }
    gen_ns = NowNs() - gen_start;
    Tracer::SetEnabled(false);
    gen_done.store(true, std::memory_order_release);
  });
  generator.join();
  completion.join();
  if (args.trace) Tracer::SetEnabled(true);
  {
    Tracer::Span span("serve.Stop");
    server->Stop();
  }
  // Peak RSS of the system's run, read before the checks and summaries
  // below allocate in proportion to the requests served.
  const double rss_mb = PeakRssMb();

  // ---- output checks (reference computed after the window) ---------------
  uint64_t wrong = unstable;
  double loss_sum = 0.0;
  uint64_t loss_n = 0;
  for (Index row = 0; row < a.rows(); ++row) {
    if (served[row] == 0) continue;
    // Bitwise: the batched sparse kernel must reproduce Predict exactly.
    if (first_score[row] != spec.Predict(in.weights.data(), a.Row(row))) {
      wrong += served[row];
    }
    loss_sum += served[row] * LogLoss(first_score[row], in.labels[row]);
    loss_n += served[row];
  }
  report->attempted = counts.attempted.load();
  report->failed = counts.rejected + counts.errors + counts.misses + wrong;
  if (wrong > 0) report->Fail(std::to_string(wrong) + " wrong carried scores");

  // ---- end-to-end ---------------------------------------------------------
  const LatencySummary lat = Summarize(rec);
  report->Set("setup_s", Median(setups), "s");
  ReportLatency(lat, rec, report);
  report->Set("loss", loss_n > 0 ? loss_sum / loss_n : 0.0, "objective");
  report->Set("rss_mb", rss_mb, "MB");

  // Validity: the harness, not the system, must not limit the loop.
  const double overhead =
      gen_ns > 0 ? static_cast<double>(gen_ns - score_ns - wait_ns) / gen_ns
                 : 1.0;
  report->Set("harness.inflight", lat.rows_per_s * lat.mean_ms * 1e-3,
              "requests");
  report->Set("harness.gen_overhead_frac", overhead, "ratio");
  report->Set("harness.gen_wait_frac",
              gen_ns > 0 ? static_cast<double>(wait_ns) / gen_ns : 0.0,
              "ratio");
  if (overhead > kMaxGenOverheadFrac) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "invalid run: harness bookkeeping took %.1f%% of the "
                  "generator thread",
                  overhead * 100.0);
    report->Fail(buf);
  }

  if (!args.trace) return;
  // ---- per-layer ----------------------------------------------------------
  ReportServingLayers(*server, report);
  const auto aggs = Tracer::Aggregates();
  report->Set("serve.admit_us.p50", SpanPercentileUs(aggs, "serve.Score", 50),
              "us");
  report->Set("serve.admit_us.p99", SpanPercentileUs(aggs, "serve.Score", 99),
              "us");
  std::vector<SparseVectorView> rows;
  for (uint32_t r : in.order) rows.push_back(a.Row(r));
  ReportKernel("sparse", spec, in.weights, rows, peak_gbps, report);
  ReportEngineLayers(args, peak_gbps, report);
  Tracer::SetEnabled(false);
  ReportTrace(args, lat.p50_ms, lat.traced_p50_ms, report);
}

// ------------------------------------------------------ serve-kv-churn --

struct KeySlot {
  std::future<double> fut;
  bool ok = false;
  int64_t start_ns = 0;  ///< due time: latency counts generator stalls
  uint32_t item = 0;
};

/// Store row of `key` at `version`: fixed features in columns 1.., the
/// version in column 0. The model weighs column 0 by exactly 1, so every
/// version of a key has a margin kVersionStep apart from the others.
void WriteRow(const std::vector<double>& base, uint32_t key, uint32_t version,
              double* out) {
  const double* src = base.data() + static_cast<size_t>(key) * kStoreDim;
  std::copy(src, src + kStoreDim, out);
  out[0] = kVersionStep * version;
}

struct KvInputs {
  std::vector<double> base;     ///< kStoreRows x kStoreDim, version 0
  std::vector<double> weights;  ///< kStoreDim
  std::vector<double> labels;   ///< per key, +-1
  std::vector<uint32_t> reads;  ///< uniform random key stream
  uint64_t seed = 0;
};

KvInputs MakeKvInputs(uint64_t seed) {
  KvInputs in;
  in.seed = seed;
  dw::Rng rng(seed ^ 0x6b76ULL);
  // Column 0 carries the version (weight exactly 1); the rest is a unit
  // vector, so version-0 margins are standard normal for every seed.
  in.weights.resize(kStoreDim);
  double norm = 0.0;
  for (Index j = 1; j < kStoreDim; ++j) {
    in.weights[j] = rng.Gaussian();
    norm += in.weights[j] * in.weights[j];
  }
  for (Index j = 1; j < kStoreDim; ++j) in.weights[j] /= std::sqrt(norm);
  in.weights[0] = 1.0;
  in.base.resize(static_cast<size_t>(kStoreRows) * kStoreDim);
  in.labels.resize(kStoreRows);
  for (Index k = 0; k < kStoreRows; ++k) {
    double* row = in.base.data() + static_cast<size_t>(k) * kStoreDim;
    double margin = 0.0;
    row[0] = 0.0;
    for (Index j = 1; j < kStoreDim; ++j) {
      row[j] = rng.Gaussian();
      margin += row[j] * in.weights[j];
    }
    in.labels[k] = margin >= 0.0 ? 1.0 : -1.0;
  }
  FlipLabels(&in.labels, &rng);
  in.reads.resize(size_t{1} << 20);
  for (uint32_t& k : in.reads) {
    k = static_cast<uint32_t>(rng.Below(kStoreRows));
  }
  return in;
}

std::unique_ptr<dw::serve::ServingEngine> SetUpKv(
    const dw::models::ModelSpec& spec, const KvInputs& in) {
  std::unique_ptr<dw::serve::ServingEngine> server;
  {
    Tracer::Span span("serve.ServingEngine");
    server =
        std::make_unique<dw::serve::ServingEngine>(OptionsFor(kKvWorkers));
  }
  dw::Status st;
  {
    Tracer::Span span("serve.RegisterFamily");
    st = server->RegisterFamily(kFamily, &spec, PinnedFamily(kStoreDim));
  }
  if (st.ok()) {
    Tracer::Span span("store.RegisterStore");
    dw::serve::StoreOptions sopts;
    sopts.page_rows = kPageRows;
    sopts.churn_per_refresh = kChurn;
    sopts.placement_override = dw::serve::StorePlacement::kSharded;
    st = server->RegisterStore(kFamily, kStoreRows, kStoreDim, sopts);
  }
  if (st.ok()) {
    {
      Tracer::Span span("registry.Publish");
      server->Publish(kFamily, in.weights);
    }
    {
      Tracer::Span span("store.PublishStore");
      server->PublishStore(kFamily, in.base);  // identity keys 0..rows-1
    }
    Tracer::Span span("serve.Start");
    st = server->Start();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "serving set-up failed: %s\n", st.ToString().c_str());
    std::exit(3);
  }
  return server;
}

/// What the writer thread published, for the checks and store metrics.
struct WriterLog {
  std::vector<uint32_t> versions;  ///< per key: highest version published
  std::vector<double> delta_ms;
  std::vector<double> model_ms;
  std::vector<double> delta_bytes;
  std::vector<double> delta_ratio;
};

void RunWriter(dw::serve::ServingEngine* server, const KvInputs& in,
               int64_t start_ns, int64_t end_ns, WriterLog* log) {
  dw::Rng rng(in.seed ^ 0x77726974ULL);
  const size_t n = static_cast<size_t>(kChurn * kStoreRows);
  std::vector<uint32_t> perm(kStoreRows);
  for (uint32_t k = 0; k < kStoreRows; ++k) perm[k] = k;
  std::vector<uint64_t> keys(n);
  std::vector<double> block(n * kStoreDim);
  const int64_t period_ns = static_cast<int64_t>(1e9 / kDeltaHz);
  for (int64_t tick = 1;; ++tick) {
    const int64_t due = start_ns + tick * period_ns;
    if (due >= end_ns) return;
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
    // 1% scattered unique keys: a partial Fisher-Yates draw.
    for (size_t i = 0; i < n; ++i) {
      std::swap(perm[i], perm[i + rng.Below(kStoreRows - i)]);
      const uint32_t key = perm[i];
      keys[i] = key;
      WriteRow(in.base, key, ++log->versions[key], &block[i * kStoreDim]);
    }
    int64_t start = NowNs();
    dw::serve::StorePublishReport rep;
    {
      Tracer::Span span("store.PublishStoreDelta");
      rep = server->PublishStoreDelta(kFamily, keys, block);
    }
    log->delta_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
    log->delta_bytes.push_back(static_cast<double>(rep.delta_bytes));
    log->delta_ratio.push_back(
        rep.full_bytes > 0 ? static_cast<double>(rep.delta_bytes) /
                                 static_cast<double>(rep.full_bytes)
                           : 0.0);
    if (tick % kDeltasPerModelPublish == 0) {
      start = NowNs();
      {
        Tracer::Span span("registry.Publish");
        server->Publish(kFamily, in.weights);
      }
      log->model_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
    }
  }
}

void RunKvChurn(const Args& args, Report* report) {
  // ---- inputs --------------------------------------------------------------
  const KvInputs in = MakeKvInputs(args.seed);
  dw::models::LogisticSpec spec;
  report->info["dataset"] = "store " + std::to_string(kStoreRows) + "x" +
                            std::to_string(kStoreDim) + ", page_rows " +
                            std::to_string(kPageRows);
  Tracer::SetEnabled(args.trace);
  const double peak_gbps = MeasurePeakGbps(report);

  // ---- set-up, several times ---------------------------------------------
  std::vector<double> setups;
  std::unique_ptr<dw::serve::ServingEngine> server;
  for (int i = 0; i < kSetups; ++i) {
    if (server) server->Stop();
    server.reset();
    const int64_t start = NowNs();
    server = SetUpKv(spec, in);
    setups.push_back(SecondsSince(start));
  }
  Tracer::SetEnabled(false);

  // ---- open loop + writer ------------------------------------------------
  struct KeyScore {
    uint32_t key;
    double score;
  };
  const size_t capacity =
      static_cast<size_t>(kOpenRate * (args.seconds + kWarmupS)) + 16;
  std::vector<KeyScore> scores(capacity, KeyScore{0, 0.0});
  size_t scored = 0;
  std::vector<KeySlot> slots(kOpenSlots);
  std::vector<double> late_ms;
  late_ms.reserve(capacity);
  LoopCounts counts;
  WriterLog log;
  log.versions.assign(kStoreRows, 0);
  std::atomic<uint64_t> sent{0}, done{0};
  std::atomic<bool> gen_done{false};
  const int64_t t0 = NowNs();
  const Window window(args, t0);
  Recorder rec(window, capacity);
  const double period_ns = 1e9 / kOpenRate;

  std::thread completion([&] {
    CompletionLoop(slots, sent, done, gen_done, counts, &rec,
                   [&](uint64_t, uint32_t key, const double* score) {
                     if (score != nullptr && scored < scores.size()) {
                       scores[scored++] = KeyScore{key, *score};
                     }
                   });
  });
  std::thread writer([&] {
    RunWriter(server.get(), in, window.start_ns, window.end_ns, &log);
  });
  std::thread generator([&] {
    bool traced = false;
    for (uint64_t seq = 0;; ++seq) {
      const int64_t due = t0 + static_cast<int64_t>(seq * period_ns);
      if (due >= window.end_ns) break;
      while (NowNs() < due) Pause();
      while (seq - done.load(std::memory_order_acquire) >= kOpenSlots) {
        Pause();
      }
      const int64_t now = NowNs();
      const bool want = window.Traced(window.SegmentOf(now));
      if (want != traced) Tracer::SetEnabled(traced = want);
      KeySlot& s = slots[seq % kOpenSlots];
      s.item = in.reads[seq % in.reads.size()];
      s.start_ns = due;
      {
        Tracer::Span span("serve.ScoreKey", static_cast<int64_t>(seq));
        auto r = server->ScoreKey(kFamily, static_cast<uint64_t>(s.item));
        s.ok = r.ok();
        if (s.ok) s.fut = std::move(r).value();
      }
      if (due >= window.start_ns) {
        late_ms.push_back(static_cast<double>(now - due) * 1e-6);
      }
      counts.attempted++;
      if (!s.ok) counts.rejected++;
      sent.store(seq + 1, std::memory_order_release);
    }
    Tracer::SetEnabled(false);
    gen_done.store(true, std::memory_order_release);
  });
  generator.join();
  writer.join();
  completion.join();
  if (args.trace) Tracer::SetEnabled(true);
  {
    Tracer::Span span("serve.Stop");
    server->Stop();
  }
  // Peak RSS of the system's run, read before the checks and summaries
  // below allocate in proportion to the requests served.
  const double rss_mb = PeakRssMb();

  // ---- output checks: each score is exactly one published version --------
  uint64_t wrong = 0;
  double loss_sum = 0.0;
  std::vector<double> row(kStoreDim);
  const SparseVectorView view{nullptr, row.data(), kStoreDim};
  for (size_t i = 0; i < scored; ++i) {
    const KeyScore& ks = scores[i];
    int matches = 0;
    for (uint32_t v = 0; v <= log.versions[ks.key]; ++v) {
      WriteRow(in.base, ks.key, v, row.data());
      if (std::abs(spec.Predict(in.weights.data(), view) - ks.score) <=
          kScoreTolerance) {
        ++matches;
      }
    }
    if (matches != 1) wrong++;
    loss_sum += LogLoss(ks.score, in.labels[ks.key]);
  }
  report->attempted = counts.attempted.load();
  report->failed = counts.rejected + counts.errors + counts.misses + wrong;
  if (wrong > 0) report->Fail(std::to_string(wrong) + " wrong keyed scores");
  if (log.delta_ms.empty()) report->Fail("writer published no delta");

  // ---- end-to-end ---------------------------------------------------------
  const LatencySummary lat = Summarize(rec);
  report->Set("setup_s", Median(setups), "s");
  ReportLatency(lat, rec, report);
  report->Set("loss", scored > 0 ? loss_sum / scored : 0.0, "objective");
  report->Set("rss_mb", rss_mb, "MB");
  report->Set("store.publish_ms", Median(log.delta_ms), "ms");

  // Validity: an open loop that cannot keep its schedule measures itself.
  const double late_p95 = Percentile(late_ms, 95.0);
  report->Set("harness.gen_late_p95_ms", late_p95, "ms");
  if (late_p95 > kMaxGenLateMs) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "invalid run: generator p95 lateness %.3f ms", late_p95);
    report->Fail(buf);
  }

  if (!args.trace) return;
  // ---- per-layer ----------------------------------------------------------
  ReportServingLayers(*server, report);
  report->Set("store.delta_bytes", Median(log.delta_bytes), "B");
  report->Set("store.delta_bytes_ratio", Median(log.delta_ratio), "ratio");
  report->Set("registry.publish_ms", Median(log.model_ms), "ms");
  const auto aggs = Tracer::Aggregates();
  report->Set("serve.admit_us.p50",
              SpanPercentileUs(aggs, "serve.ScoreKey", 50), "us");
  report->Set("serve.admit_us.p99",
              SpanPercentileUs(aggs, "serve.ScoreKey", 99), "us");

  // Key-index probes on the workload's own read stream.
  const auto snap = server->FindStore(kFamily)->Acquire();
  uint64_t found = 0;
  const int64_t start = NowNs();
  {
    Tracer::Span span("store.LookupSlot");
    for (uint32_t key : in.reads) found += snap->LookupSlot(key).has_value();
  }
  const double lookup_s = SecondsSince(start);
  report->Set("store.lookup_ns", lookup_s * 1e9 / in.reads.size(), "ns");
  if (found != in.reads.size()) report->Fail("key index lost keys");

  std::vector<SparseVectorView> rows;
  for (size_t i = 0; i < 4096; ++i) {
    rows.push_back(SparseVectorView{
        nullptr, in.base.data() + static_cast<size_t>(in.reads[i]) * kStoreDim,
        kStoreDim});
  }
  ReportKernel("dense", spec, in.weights, rows, peak_gbps, report);
  Tracer::SetEnabled(false);
  ReportTrace(args, lat.p50_ms, lat.traced_p50_ms, report);
}

}  // namespace

int PlannedServeThreads(const std::string& workload) {
  // Workers + generator + completion (+ writer); serve-carried's engine
  // side run starts after the serving threads have ended.
  if (workload == "serve-carried") {
    return std::max(kCarriedWorkers + 2, EngineSideThreads());
  }
  if (workload == "serve-kv-churn") return kKvWorkers + 3;
  return -1;
}

bool RunServeWorkload(const Args& args, Report* report) {
  if (args.workload == "serve-carried") {
    RunCarried(args, report);
  } else if (args.workload == "serve-kv-churn") {
    RunKvChurn(args, report);
  } else {
    return false;
  }
  report->info["topology"] = dw::numa::Local2().name;
  return true;
}

}  // namespace perfbench
