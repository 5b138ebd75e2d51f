// Serving bench: the serving gates that need a wall clock, six experiments
// in one binary. Every gate prints one line with its measured value, its
// threshold and a verdict.
//
//  speedup    Batched vs scalar scoring kernels on a dense synthetic
//             workload at max threads: one ModelSpec::PredictBatch call per
//             256-row chunk (the cache-blocked GLM kernel) against
//             row-by-row Predict. Gated on DW_BENCH_MIN_SPEEDUP.
//  admission  Cost-aware admission + per-client fair queuing under
//             overload: two unthrottled hog threads flood a one-worker
//             engine with id-keyed requests while three mice send paced
//             synchronous ones, once under the FIFO baseline and once
//             under deficit-round-robin fair queuing, against a
//             queueing-delay budget costed by opt::AdmissionController.
//             Gated on the mice's p99 AND served fraction being strictly
//             better under fair queuing, and on the calibrated service-time
//             estimate landing within 2x of the workers' measured EWMA.
//  telemetry  The same batched closed-loop scoring run, interleaved with
//             telemetry fully on (registry instruments, stage histograms,
//             sampled spans, a live 25 ms obs::TelemetryExporter) and fully
//             off (the no-op registry). Gated on the throughput overhead of
//             the best off/on pair, and on the per-stage latency means
//             (queue..complete) summing to within 10% of the measured mean
//             end-to-end latency.
//  kernels    The speedup workload scored through PredictBatch with the
//             kernel level FORCED to each tier the host supports (scalar /
//             avx2 / avx512 are bitwise-identical, so this isolates kernel
//             throughput), plus the dequantize-free int8 path. Gated on the
//             best SIMD level sustaining 0.9x the tiled-scalar rate (a
//             noisy-runner margin, not a speedup promise: the dense kernels
//             are memory-bound at scale) and on every int8 margin landing
//             within the documented quantization bound.
//  tuner      Live placement tuning across a traffic shift: a family and
//             feature store frozen at the publish-heavy optimum
//             (kPerMachine model, kSharded store) serve a flood that turns
//             read-heavy halfway. The opt::PlacementTuner's scans must
//             migrate through the hot-swap republish path while six
//             producers verify every margin bitwise. Gated on >= 1 flip,
//             zero failed or torn requests, and post-migration throughput
//             >= 0.9x a statically-optimal oracle run.
//  key path   The same workload against a kSharded store, scored by row id
//             and by key in interleaved pairs. Gated on the best within-pair
//             key/id p99 ratio: the index probe must not tax the request
//             path.
//
// The deterministic serving gates run in ctest: PerNode >= PerMachine
// memory-model throughput (serve_test), replicated >= sharded store
// (feature_store_test), and delta bytes at 1% churn <= 0.25x a full
// rewrite (feature_store_delta_test). End-to-end serving numbers under
// fixed workloads come from perfbench/ (see BENCHMARK.json).
//
// A full run exits nonzero if any gate misses. `--smoke` shrinks every
// experiment to seconds and exits nonzero only if one of the four gates
// that hold on a shared runner misses: tuner flips, tuner failed/torn,
// telemetry overhead (25% instead of 3%) and key-path p99 (2.5x instead
// of 1.5x). It prints the other gates without enforcing them.
//
// Knobs: DW_BENCH_TOPO (default local2), DW_BENCH_SCALE (dataset size
// multiplier), DW_BENCH_SERVE_ROWS (requests per closed-loop run, default
// 20000), DW_BENCH_KERNEL_SEC (seconds per kernel measurement, default
// 0.4) and DW_BENCH_MIN_SPEEDUP (batched/scalar gate, default 1.5).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "data/synthetic.h"
#include "kernels/dispatch.h"
#include "kernels/score_kernels.h"
#include "obs/exporter.h"
#include "serve/serving_engine.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace dw {
namespace {

using matrix::Index;
using matrix::SparseVectorView;

serve::ServingFamilyOptions PinnedFamily(Index dim, serve::Replication rep) {
  serve::ServingFamilyOptions o;
  o.traffic.dim = dim;
  o.replication_override = rep;
  return o;
}

/// Prints each gate's line with its verdict and counts the misses that
/// decide the exit code: a full run enforces every gate, --smoke only the
/// gates marked `smoke`.
class Gates {
 public:
  explicit Gates(bool smoke) : smoke_(smoke) {}

  __attribute__((format(printf, 4, 5))) void Check(bool ok, bool smoke,
                                                   const char* fmt, ...) {
    std::va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    const bool enforced = !smoke_ || smoke;
    std::printf(" -- %s\n", ok ? "ok"
                            : enforced ? "MISSED"
                                       : "missed (not enforced in --smoke)");
    if (enforced && !ok) ++missed_;
  }

  int missed() const { return missed_; }

 private:
  bool smoke_;
  int missed_ = 0;
};

/// Closed-loop load: four producers submit rows r = p, p + 4, ... of
/// [0, total_rows) through `submit(r)`, retrying while the queue pushes
/// back (any other refusal is fatal), then wait on every future. Returns
/// the wall seconds from the first submit to the last resolution.
template <typename Submit>
double RunClosedLoop(int total_rows, const Submit& submit) {
  constexpr int kProducers = 4;
  WallTimer timer;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<std::future<double>> futures;
      futures.reserve(total_rows / kProducers + 1);
      for (int r = p; r < total_rows; r += kProducers) {
        for (;;) {
          auto fut = submit(r);
          if (fut.ok()) {
            futures.push_back(std::move(fut).value());
            break;
          }
          DW_CHECK(fut.status().code() == Status::Code::kResourceExhausted)
              << fut.status().ToString();
          std::this_thread::yield();
        }
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& t : producers) t.join();
  return timer.Seconds();
}

// --- speedup and kernels: scoring-kernel throughput -----------------------

constexpr size_t kScoreChunk = 256;

/// Explicit dense views (null indices), the form dense serving requests
/// take after admission: every kernel scores values-only rows, so the
/// comparisons isolate the scoring loop, not payload-size differences.
std::vector<SparseVectorView> DenseViews(const matrix::CsrMatrix& a) {
  std::vector<SparseVectorView> views;
  views.reserve(a.rows());
  for (Index i = 0; i < a.rows(); ++i) {
    const auto row = a.Row(i);
    views.push_back({nullptr, row.values, row.nnz});
  }
  return views;
}

/// Scores `rows` for `run_sec` with `threads` threads, each calling
/// `score(first, n, out)` on its own row slice in a loop -- the pure
/// kernel comparison, no queue or promise machinery in the way.
template <typename ScoreSlice>
double MeasureScoringRate(const std::vector<SparseVectorView>& rows,
                          int threads, double run_sec,
                          const ScoreSlice& score) {
  std::atomic<uint64_t> total_rows{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  WallTimer timer;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(run_sec));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const size_t lo = rows.size() * t / threads;
      const size_t hi = rows.size() * (t + 1) / threads;
      if (lo == hi) return;
      std::vector<double> out(hi - lo);
      uint64_t scored = 0;
      // `sink` defeats dead-code elimination of the scoring loop.
      double sink = 0.0;
      while (std::chrono::steady_clock::now() < deadline) {
        score(rows.data() + lo, hi - lo, out.data());
        sink += out[0];
        scored += hi - lo;
      }
      if (sink == 0.12345) std::printf(" ");
      total_rows.fetch_add(scored);
    });
  }
  for (auto& t : pool) t.join();
  // Spawn overhead and final-pass overshoot are inside the window, and the
  // rows they score are counted -- the same small bias for every kernel.
  const double wall = timer.Seconds();
  return wall > 0.0 ? static_cast<double>(total_rows.load()) / wall : 0.0;
}

/// One PredictBatch call per kScoreChunk-row chunk of a slice.
auto BatchedScorer(const models::ModelSpec& spec,
                   const std::vector<double>& weights) {
  return [&spec, &weights](const SparseVectorView* rows, size_t n,
                           double* out) {
    const Index dim = static_cast<Index>(weights.size());
    for (size_t b = 0; b < n; b += kScoreChunk) {
      spec.PredictBatch(weights.data(), dim, rows + b,
                        std::min(kScoreChunk, n - b), out + b);
    }
  };
}

struct KernelCompare {
  double scalar_rows_per_sec = 0.0;
  double batched_rows_per_sec = 0.0;
  double speedup = 0.0;
};

KernelCompare CompareKernels(int rows, int dim, int threads, double run_sec) {
  data::DenseTableParams params;
  params.rows = static_cast<Index>(rows);
  params.cols = static_cast<Index>(dim);
  params.seed = 17;
  const matrix::CsrMatrix a = data::MakeDenseTable(params);
  const std::vector<SparseVectorView> views = DenseViews(a);

  Rng rng(23);
  std::vector<double> weights(dim);
  for (auto& w : weights) w = rng.Gaussian(0.0, 1.0);

  models::LogisticSpec lr;
  const auto scalar = [&](const SparseVectorView* r, size_t n, double* out) {
    for (size_t i = 0; i < n; ++i) out[i] = lr.Predict(weights.data(), r[i]);
  };
  const auto batched = BatchedScorer(lr, weights);
  // Warm both paths (page in the workload, settle the frequency governor).
  MeasureScoringRate(views, threads, run_sec * 0.25, scalar);
  MeasureScoringRate(views, threads, run_sec * 0.25, batched);

  KernelCompare out;
  out.scalar_rows_per_sec = MeasureScoringRate(views, threads, run_sec, scalar);
  out.batched_rows_per_sec =
      MeasureScoringRate(views, threads, run_sec, batched);
  out.speedup = out.scalar_rows_per_sec > 0.0
                    ? out.batched_rows_per_sec / out.scalar_rows_per_sec
                    : 0.0;
  return out;
}

struct SimdCompare {
  std::string best_simd_level = "none";  ///< "none" on a scalar-only host
  double simd_over_scalar = 0.0;
  bool simd_ok = true;                   ///< vacuously true without SIMD
  double int8_rows_per_sec = 0.0;
  double int8_over_f64 = 0.0;
  double int8_max_abs_err = 0.0;   ///< worst measured |margin_q - margin|
  double int8_err_bound = 0.0;     ///< worst documented per-row bound
  bool int8_within_bound = false;  ///< every row within ITS OWN bound
};

SimdCompare CompareSimdLevels(int rows, int dim, int threads, double run_sec,
                              double min_ratio) {
  data::DenseTableParams params;
  params.rows = static_cast<Index>(rows);
  params.cols = static_cast<Index>(dim);
  params.seed = 29;
  const matrix::CsrMatrix a = data::MakeDenseTable(params);
  const std::vector<SparseVectorView> views = DenseViews(a);
  Rng rng(31);
  std::vector<double> weights(dim);
  for (auto& w : weights) w = rng.Gaussian(0.0, 1.0);
  std::vector<int8_t> qweights(dim);
  const double scale =
      kernels::QuantizeWeights(weights.data(), dim, qweights.data());

  // Identity link: measured margins ARE the quantity the error contract
  // bounds, no Lipschitz factor to fold in.
  models::LeastSquaresSpec ls;
  const auto batched = BatchedScorer(ls, weights);

  SimdCompare out;
  double scalar_rate = 0.0;
  double best_simd_rate = 0.0;
  for (const kernels::KernelLevel level :
       {kernels::KernelLevel::kScalar, kernels::KernelLevel::kAvx2,
        kernels::KernelLevel::kAvx512}) {
    if (!kernels::LevelSupported(level)) continue;
    kernels::ScopedKernelLevelForTesting forced(level);
    MeasureScoringRate(views, threads, run_sec * 0.25, batched);
    const double rate = MeasureScoringRate(views, threads, run_sec, batched);
    if (level == kernels::KernelLevel::kScalar) {
      scalar_rate = rate;
    } else if (rate > best_simd_rate) {
      best_simd_rate = rate;
      out.best_simd_level = kernels::ToString(level);
    }
  }
  if (best_simd_rate > 0.0 && scalar_rate > 0.0) {
    out.simd_over_scalar = best_simd_rate / scalar_rate;
    out.simd_ok = out.simd_over_scalar >= min_ratio;
  }

  // Int8 path at the active (best) level: throughput plus the error-
  // contract audit -- every margin vs the float margin, against its own
  // per-row bound (scale/2) * sum|x| + reassociation slack.
  const auto int8 = [&](const SparseVectorView* r, size_t n, double* o) {
    for (size_t b = 0; b < n; b += kScoreChunk) {
      ls.PredictBatchQuantized(qweights.data(), scale, dim, r + b,
                               std::min(kScoreChunk, n - b), o + b);
    }
  };
  MeasureScoringRate(views, threads, run_sec * 0.25, int8);
  out.int8_rows_per_sec = MeasureScoringRate(views, threads, run_sec, int8);
  const double f64_best = std::max(best_simd_rate, scalar_rate);
  out.int8_over_f64 = f64_best > 0.0 ? out.int8_rows_per_sec / f64_best : 0.0;
  std::vector<double> f64(views.size());
  std::vector<double> i8(views.size());
  ls.PredictBatch(weights.data(), dim, views.data(), views.size(), f64.data());
  ls.PredictBatchQuantized(qweights.data(), scale, dim, views.data(),
                           views.size(), i8.data());
  out.int8_within_bound = true;
  for (size_t r = 0; r < views.size(); ++r) {
    double abs_sum = 0.0;
    for (size_t k = 0; k < views[r].nnz; ++k) {
      abs_sum += std::abs(views[r].values[k]);
    }
    const double err = std::abs(i8[r] - f64[r]);
    const double bound = (scale / 2) * abs_sum + 1e-9 * (1.0 + abs_sum);
    out.int8_max_abs_err = std::max(out.int8_max_abs_err, err);
    out.int8_err_bound = std::max(out.int8_err_bound, bound);
    if (err > bound) out.int8_within_bound = false;
  }
  return out;
}

// --- admission: cost-aware admission + per-client fair queuing ------------

struct AdmissionRun {
  double mice_p99_ms = 0.0;           ///< worst mouse p99
  double mice_served_fraction = 0.0;  ///< accepted/submitted over all mice
  /// The registry at the end of the run: the admission controller's
  /// estimates are its admission.*{family=adm} metrics.
  obs::RegistrySnapshot telemetry;
};

/// One overload run: `n_hogs` unthrottled hog threads flood a one-worker
/// engine with id-keyed requests (payload = one integer, so the flood
/// outruns the drain by construction) while `n_mice` mice each send one
/// synchronous id-keyed request every `mice_interval_us`, measuring
/// latency client-side. `fair` toggles DRR fair queuing against the
/// FIFO baseline; everything else is identical, so the mice's p99 and
/// served fraction isolate what fair queuing buys under a hog.
AdmissionRun RunAdmissionOverload(const std::vector<double>& table,
                                  Index store_rows, Index dim,
                                  const models::ModelSpec& spec,
                                  const std::vector<double>& weights,
                                  const numa::Topology& topo, bool fair,
                                  double duration_sec, double budget_ms,
                                  int n_hogs, int n_mice,
                                  int mice_interval_us) {
  serve::ServingOptions opts;
  opts.topology = topo;
  opts.num_threads = 1;  // deliberately under-provisioned: overload
  opts.batch.max_batch_size = 64;
  opts.batch.max_delay = std::chrono::microseconds(200);
  opts.batch.fair_queuing = fair;
  // The hard cap stays generous; the DELAY BUDGET is the admission bound
  // under test (the controller converts it into a backlog bound at its
  // calibrated per-row estimate).
  opts.batch.max_queue_rows = 1 << 13;
  opts.batch.queue_delay_budget = std::chrono::microseconds(
      static_cast<int64_t>(budget_ms * 1000.0));
  serve::ServingEngine server(opts);
  serve::ServingFamilyOptions fam =
      PinnedFamily(dim, serve::Replication::kPerNode);
  fam.client_weights.push_back({serve::ClientId("hog"), 1.0});
  for (int m = 0; m < n_mice; ++m) {
    fam.client_weights.push_back(
        {serve::ClientId("mouse-" + std::to_string(m)), 1.0});
  }
  DW_CHECK(server.RegisterFamily("adm", &spec, fam).ok());
  DW_CHECK(server.RegisterStore("adm", store_rows, dim).ok());
  server.Publish("adm", weights);
  server.PublishStore("adm", table);
  DW_CHECK(server.Start().ok());

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(duration_sec));

  std::vector<std::thread> hogs;
  hogs.reserve(n_hogs);
  for (int h = 0; h < n_hogs; ++h) {
    hogs.emplace_back([&, h] {
      const serve::ClientId me("hog");
      std::vector<std::future<double>> futures;
      futures.reserve(4096);
      Index row = static_cast<Index>(h);
      while (std::chrono::steady_clock::now() < deadline) {
        auto fut = server.Score("adm", row++ % store_rows, me);
        if (fut.ok()) {
          futures.push_back(std::move(fut).value());
          if (futures.size() >= 4096) {
            for (auto& f : futures) f.get();
            futures.clear();
          }
        } else {
          DW_CHECK(fut.status().code() == Status::Code::kResourceExhausted)
              << fut.status().ToString();
          std::this_thread::yield();
        }
      }
      for (auto& f : futures) f.get();
    });
  }

  struct MouseResult {
    uint64_t submitted = 0;
    uint64_t rejected = 0;
    std::vector<double> latencies_ms;
  };
  std::vector<MouseResult> mouse_results(n_mice);
  std::vector<std::thread> mice;
  mice.reserve(n_mice);
  for (int m = 0; m < n_mice; ++m) {
    mice.emplace_back([&, m] {
      const serve::ClientId me("mouse-" + std::to_string(m));
      MouseResult& res = mouse_results[m];
      Index row = static_cast<Index>(m * 37);
      while (std::chrono::steady_clock::now() < deadline) {
        WallTimer timer;
        ++res.submitted;
        auto s = server.ScoreSync("adm", row++ % store_rows, me);
        if (s.ok()) {
          res.latencies_ms.push_back(timer.Seconds() * 1e3);
        } else {
          DW_CHECK(s.status().code() == Status::Code::kResourceExhausted)
              << s.status().ToString();
          ++res.rejected;
        }
        std::this_thread::sleep_for(
            std::chrono::microseconds(mice_interval_us));
      }
    });
  }
  for (auto& t : hogs) t.join();
  for (auto& t : mice) t.join();
  server.Stop();

  AdmissionRun out;
  out.telemetry = server.telemetry().Snapshot();
  uint64_t mice_submitted = 0;
  uint64_t mice_accepted = 0;
  for (const MouseResult& res : mouse_results) {
    // A mouse starved of EVERY request has no latency sample;
    // Percentile() would report 0 and invert the fair-vs-FIFO gate
    // exactly when FIFO is at its worst, so total starvation counts as
    // the whole window instead.
    const double p99_ms = res.latencies_ms.empty()
                              ? duration_sec * 1e3
                              : Percentile(res.latencies_ms, 99.0);
    out.mice_p99_ms = std::max(out.mice_p99_ms, p99_ms);
    mice_submitted += res.submitted;
    mice_accepted += res.submitted - res.rejected;
  }
  out.mice_served_fraction =
      mice_submitted > 0
          ? static_cast<double>(mice_accepted) / mice_submitted
          : 0.0;
  return out;
}

// --- telemetry: overhead + stage decomposition ----------------------------

struct TelemetryTrial {
  double rows_per_sec = 0.0;
  double stage_sum_us = 0.0;  ///< per-row means, queue..complete
  double e2e_mean_us = 0.0;   ///< exact mean of serve.latency_ms, in us
};

// One closed-loop scoring run with telemetry on or off. Scores BATCHED --
// the production hot path the overhead gate protects (scalar mode's
// per-row replica re-gather would drown instrument cost in memory
// traffic). The telemetry-on trial also runs a live obs::TelemetryExporter
// so the measured overhead includes periodic snapshot+render, not just the
// inline fetch_adds. With telemetry off the registry exports nothing, so
// only the on trial reads it.
TelemetryTrial RunTelemetryTrial(const data::Dataset& d,
                                 const models::ModelSpec& spec,
                                 const std::vector<double>& weights,
                                 const numa::Topology& topo, bool telemetry,
                                 int threads, int total_rows) {
  serve::ServingOptions opts;
  opts.topology = topo;
  opts.num_threads = threads;
  opts.batch.max_batch_size = 64;
  opts.batch.max_delay = std::chrono::microseconds(200);
  opts.scoring = serve::ScoringMode::kBatched;
  opts.telemetry = telemetry;
  serve::ServingEngine server(opts);
  const Status reg = server.RegisterFamily(
      "lr", &spec, PinnedFamily(static_cast<Index>(weights.size()),
                                serve::Replication::kPerNode));
  DW_CHECK(reg.ok()) << reg.ToString();
  server.Publish("lr", weights);
  const Status st = server.Start();
  DW_CHECK(st.ok()) << st.ToString();

  std::unique_ptr<obs::TelemetryExporter> exporter;
  if (telemetry) {
    obs::TelemetryExporter::Options eopts;
    eopts.period = std::chrono::milliseconds(25);
    exporter = std::make_unique<obs::TelemetryExporter>(&server.telemetry(),
                                                        eopts);
    exporter->Start();
  }

  const double wall = RunClosedLoop(total_rows, [&](int r) {
    const auto row = d.a.Row(static_cast<Index>(r % d.a.rows()));
    return server.Score("lr",
                        std::vector<Index>(row.indices, row.indices + row.nnz),
                        std::vector<double>(row.values, row.values + row.nnz));
  });
  if (exporter != nullptr) exporter->Stop();
  server.Stop();

  TelemetryTrial out;
  out.rows_per_sec = total_rows / wall;
  if (telemetry) {
    const obs::RegistrySnapshot snap = server.telemetry().Snapshot();
    DW_CHECK_EQ(snap.CounterValue("serve.rows", {{"family", "lr"}}),
                static_cast<uint64_t>(total_rows));
    // The admit stage is excluded because serve.latency_ms starts its
    // clock at enqueue, after admission.
    for (int s = static_cast<int>(obs::Stage::kQueue); s < obs::kNumStages;
         ++s) {
      out.stage_sum_us +=
          snap.HistogramValue("serve.stage_us",
                              {{"family", "lr"}, {"stage", obs::StageName(s)}})
              .Mean();
    }
    // Histogram means are exact (bucketing only bounds the percentiles),
    // so this is the true mean submit-to-resolution latency.
    out.e2e_mean_us =
        snap.HistogramValue("serve.latency_ms", {{"family", "lr"}}).Mean() *
        1e3;
  }
  return out;
}

// --- tuner: live placement tuning under a traffic shift -------------------

struct TunerBenchResult {
  uint64_t scans = 0;
  uint64_t flips = 0;
  std::string model_replication;  ///< final strategy after tuning
  std::string store_placement;    ///< final strategy after tuning
  uint64_t served = 0;
  uint64_t failed = 0;  ///< non-backpressure refusals + torn margins
  double post_flip_rows_per_sec = 0.0;       ///< read-heavy, migrated
  double static_optimal_rows_per_sec = 0.0;  ///< pinned-optimal baseline
};

/// One id-keyed flood against `server` run by background producers until
/// *stop; margins are verified exactly (weights 1.0, row r = all (r+1),
/// so every score is the integer dim*(r+1) under ANY placement). Rows
/// and integrity failures accumulate into the shared counters.
void TunerFloodProducers(serve::ServingEngine& server,
                         const std::string& family, Index store_rows,
                         Index dim, int threads, std::atomic<bool>* stop,
                         std::atomic<uint64_t>* rows,
                         std::atomic<uint64_t>* failed,
                         std::vector<std::thread>* out) {
  for (int p = 0; p < threads; ++p) {
    out->emplace_back([=, &server] {
      Index i = static_cast<Index>(p);
      std::vector<std::pair<Index, std::future<double>>> inflight;
      inflight.reserve(64);
      while (!stop->load(std::memory_order_acquire)) {
        inflight.clear();
        for (int k = 0; k < 64; ++k) {
          const Index row = i % store_rows;
          i += threads;
          auto s = server.Score(family, row);
          if (!s.ok()) {
            if (s.status().code() != Status::Code::kResourceExhausted) {
              failed->fetch_add(1, std::memory_order_relaxed);
            }
            std::this_thread::yield();
            continue;
          }
          inflight.emplace_back(row, std::move(s).value());
        }
        for (auto& [row, fut] : inflight) {
          const double want = static_cast<double>(dim) * (row + 1);
          if (fut.get() != want) {
            failed->fetch_add(1, std::memory_order_relaxed);
          } else {
            rows->fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
}

/// A family + store registered under a publish-heavy assumption
/// (kPerMachine model, kSharded store) serve a workload that SHIFTS
/// mid-run to read-heavy. Phase A republishes the model every few ms, so
/// the frozen choices are right; phase B stops republishing and floods
/// gathers, so they are wrong. The tuner's scans must observe the shift,
/// flip at least one placement and tear zero requests doing it; the
/// post-flip throughput is compared against a statically-optimal
/// (kPerNode + kReplicated) run of the same flood.
TunerBenchResult RunTunerShift(const numa::Topology& topo, double phase_sec) {
  models::SvmSpec svm;
  const Index dim = 256;
  const Index store_rows = 1024;
  const int producers = 6;
  std::vector<double> weights(dim, 1.0);
  std::vector<double> table(static_cast<size_t>(store_rows) * dim);
  for (Index r = 0; r < store_rows; ++r) {
    for (Index c = 0; c < dim; ++c) {
      table[static_cast<size_t>(r) * dim + c] = static_cast<double>(r + 1);
    }
  }

  serve::ServingOptions opts;
  opts.topology = topo;
  opts.batch.max_batch_size = 64;
  opts.batch.max_delay = std::chrono::microseconds(200);

  TunerBenchResult res;
  {
    serve::ServingEngine server(opts);
    DW_CHECK(server
                 .RegisterFamily("tuned", &svm,
                                 PinnedFamily(dim,
                                              serve::Replication::kPerMachine))
                 .ok());
    serve::StoreOptions sopts;
    sopts.placement_override = serve::StorePlacement::kSharded;
    DW_CHECK(server.RegisterStore("tuned", store_rows, dim, sopts).ok());
    server.PublishStore("tuned", table);
    server.Publish("tuned", weights);
    DW_CHECK(server.Start().ok());

    opt::TunerOptions topts;
    topts.scan_period = std::chrono::milliseconds(0);  // bench drives scans
    topts.min_advantage = 1.05;
    topts.confirm_scans = 2;
    topts.min_observed_rows = 512;
    opt::PlacementTuner* tuner = server.EnableTuner(topts);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> rows{0};
    std::atomic<uint64_t> failed{0};
    std::vector<std::thread> flood;
    TunerFloodProducers(server, "tuned", store_rows, dim, producers, &stop,
                        &rows, &failed, &flood);

    // Phase A: publish-heavy. A republisher refreshes the model every
    // 500us and the table every 5ms (same bytes, new versions), keeping
    // observed reads-per-publish low enough that the incumbent
    // kPerMachine/kSharded choices stay right and the scans record no
    // decisions.
    std::atomic<bool> stop_republish{false};
    std::thread republisher([&] {
      int tick = 0;
      while (!stop_republish.load(std::memory_order_acquire)) {
        server.Publish("tuned", weights);
        if (++tick % 5 == 0) server.PublishStore("tuned", table);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
    WallTimer phase_a;
    while (phase_a.Seconds() < phase_sec) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      tuner->ScanOnce();
    }

    // Phase B: the shift. Republishing stops, the flood keeps reading:
    // observed reads-per-publish explodes and the scans must migrate.
    stop_republish.store(true, std::memory_order_release);
    republisher.join();
    WallTimer phase_b;
    while (tuner->flips() < 2 && phase_b.Seconds() < 4.0 * phase_sec) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      tuner->ScanOnce();
    }

    // Post-flip window: steady-state throughput under the migrated
    // placement.
    const uint64_t rows_b0 = rows.load();
    WallTimer post;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int64_t>(phase_sec * 1e3)));
    res.post_flip_rows_per_sec = (rows.load() - rows_b0) / post.Seconds();

    stop.store(true, std::memory_order_release);
    for (auto& t : flood) t.join();
    server.Stop();

    res.scans = tuner->scans();
    res.flips = tuner->flips();
    res.model_replication =
        ToString(server.FindFamily("tuned")->replication());
    res.store_placement = ToString(server.FindStore("tuned")->placement());
    res.served = rows.load();
    res.failed = failed.load();
  }

  // Statically-optimal baseline: the read-heavy phase's right answer
  // (kPerNode + kReplicated) pinned from the start, same flood, same
  // window -- what an oracle that knew the shift in advance would serve.
  {
    serve::ServingEngine server(opts);
    DW_CHECK(server
                 .RegisterFamily("tuned", &svm,
                                 PinnedFamily(dim,
                                              serve::Replication::kPerNode))
                 .ok());
    serve::StoreOptions sopts;
    sopts.placement_override = serve::StorePlacement::kReplicated;
    DW_CHECK(server.RegisterStore("tuned", store_rows, dim, sopts).ok());
    server.PublishStore("tuned", table);
    server.Publish("tuned", weights);
    DW_CHECK(server.Start().ok());

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> rows{0};
    std::atomic<uint64_t> failed{0};
    std::vector<std::thread> flood;
    TunerFloodProducers(server, "tuned", store_rows, dim, producers, &stop,
                        &rows, &failed, &flood);
    // Matching warmup before the measured window.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int64_t>(phase_sec * 500)));
    const uint64_t rows0 = rows.load();
    WallTimer window;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int64_t>(phase_sec * 1e3)));
    res.static_optimal_rows_per_sec =
        (rows.load() - rows0) / window.Seconds();
    stop.store(true, std::memory_order_release);
    for (auto& t : flood) t.join();
    server.Stop();
    res.failed += failed.load();
  }
  return res;
}

// --- key path: key vs row-id serving --------------------------------------

/// p99 latency of one keyed-serving run: `total_rows` requests against a
/// kSharded store of identity keys, submitted by row id or by key --
/// everything else identical, so the p99 delta isolates what the index
/// probe costs on the request path.
double KeyedServingP99(const std::vector<double>& table, Index store_rows,
                       Index dim, const models::ModelSpec& spec,
                       const std::vector<double>& weights,
                       const numa::Topology& topo, bool by_key,
                       Index page_rows, int threads, int total_rows) {
  serve::ServingOptions opts;
  opts.topology = topo;
  opts.num_threads = threads;
  opts.batch.max_batch_size = 64;
  opts.batch.max_delay = std::chrono::microseconds(200);
  opts.scoring = serve::ScoringMode::kBatched;
  serve::ServingEngine server(opts);
  DW_CHECK(server
               .RegisterFamily("kv", &spec,
                               PinnedFamily(dim, serve::Replication::kPerNode))
               .ok());
  serve::StoreOptions sopts;
  sopts.placement_override = serve::StorePlacement::kSharded;
  sopts.page_rows = page_rows;
  const Status reg = server.RegisterStore("kv", store_rows, dim, sopts);
  DW_CHECK(reg.ok()) << reg.ToString();
  server.Publish("kv", weights);
  server.PublishStore("kv", table);  // identity keys 0..rows-1
  const Status st = server.Start();
  DW_CHECK(st.ok()) << st.ToString();

  RunClosedLoop(total_rows, [&](int r) {
    const Index row = static_cast<Index>(r) % store_rows;
    return by_key ? server.ScoreKey("kv", static_cast<uint64_t>(row))
                  : server.Score("kv", row);
  });
  server.Stop();

  const obs::RegistrySnapshot snap = server.telemetry().Snapshot();
  DW_CHECK_EQ(snap.CounterValue("serve.rows", {{"family", "kv"}}),
              static_cast<uint64_t>(total_rows));
  return snap.HistogramValue("serve.latency_ms", {{"family", "kv"}})
      .Percentile(99.0);
}

}  // namespace
}  // namespace dw

int main(int argc, char** argv) {
  using namespace dw;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::string topo_name = [] {
    const char* v = std::getenv("DW_BENCH_TOPO");
    return std::string(v != nullptr ? v : "local2");
  }();
  auto topo_or = numa::TopologyByName(topo_name);
  DW_CHECK(topo_or.ok()) << topo_or.status().ToString();
  const numa::Topology topo = topo_or.value();
  const int threads = topo.total_cores();
  const int total_rows =
      smoke ? 2000 : bench::EnvInt("DW_BENCH_SERVE_ROWS", 20000);
  const double kernel_sec =
      bench::EnvDouble("DW_BENCH_KERNEL_SEC", smoke ? 0.05 : 0.4);

  const data::Dataset dataset = bench::BenchRcv1();
  models::LogisticSpec lr;
  std::printf("dataset %s: %u rows, %u features; topology %s (%d nodes)%s\n",
              dataset.name.c_str(), dataset.a.rows(), dataset.a.cols(),
              topo.name.c_str(), topo.num_nodes, smoke ? " [smoke]" : "");

  // Train briefly: serving quality is not under test, the scoring path is
  // (the telemetry trials score these weights).
  engine::EngineOptions train_opts =
      bench::MakeOptions(topo, engine::AccessMethod::kRowWise,
                         engine::ModelReplication::kPerNode,
                         engine::DataReplication::kSharding);
  engine::Engine trainer(&dataset, &lr, train_opts);
  DW_CHECK(trainer.Init().ok());
  engine::RunConfig cfg;
  cfg.max_epochs = smoke ? 2 : 5;
  trainer.Run(cfg);
  const engine::ModelExport exported = trainer.Export();

  Gates gates(smoke);

  // --- speedup: batched vs scalar kernels --------------------------------
  const int dense_rows = smoke ? 256 : 1024;
  const int dense_dim = smoke ? 512 : 4096;
  const double min_speedup = bench::EnvDouble("DW_BENCH_MIN_SPEEDUP", 1.5);
  const KernelCompare kc =
      CompareKernels(dense_rows, dense_dim, threads, kernel_sec);
  gates.Check(kc.speedup >= min_speedup, /*smoke=*/false,
              "batched/scalar speedup: %.2fx (PredictBatch %.0f vs Predict "
              "%.0f rows/s, dense %d x %d, %d threads; gate: >= %.2fx)",
              kc.speedup, kc.batched_rows_per_sec, kc.scalar_rows_per_sec,
              dense_rows, dense_dim, threads, min_speedup);

  // --- admission: cost-aware admission + per-client fair queuing ---------
  const double adm_sec = smoke ? 0.25 : 1.0;
  const int adm_dim = smoke ? 1024 : 4096;
  const int adm_store_rows = 1024;
  std::vector<double> adm_table(static_cast<size_t>(adm_store_rows) *
                                adm_dim);
  {
    Rng rng(59);
    for (auto& v : adm_table) v = rng.Gaussian(0.0, 1.0);
  }
  std::vector<double> adm_weights(adm_dim);
  {
    Rng rng(61);
    for (auto& w : adm_weights) w = rng.Gaussian(0.0, 0.5);
  }
  std::vector<AdmissionRun> adm_runs;
  for (const bool fair : {false, true}) {
    adm_runs.push_back(RunAdmissionOverload(
        adm_table, static_cast<Index>(adm_store_rows),
        static_cast<Index>(adm_dim), lr, adm_weights, topo, fair, adm_sec,
        /*budget_ms=*/4.0, /*n_hogs=*/2, /*n_mice=*/3,
        /*mice_interval_us=*/300));
  }
  const AdmissionRun& adm_fifo = adm_runs[0];
  const AdmissionRun& adm_fair = adm_runs[1];
  gates.Check(adm_fair.mice_p99_ms < adm_fifo.mice_p99_ms &&
                  adm_fair.mice_served_fraction >
                      adm_fifo.mice_served_fraction,
              /*smoke=*/false,
              "admission: mice p99 %.3f ms (fair) vs %.3f ms (fifo), served "
              "fraction %.3f (fair) vs %.3f (fifo) (gate: fair strictly "
              "better on both)",
              adm_fair.mice_p99_ms, adm_fifo.mice_p99_ms,
              adm_fair.mice_served_fraction, adm_fifo.mice_served_fraction);
  // Estimate convergence from the FAIR run (both runs feed the same kind
  // of controller; one suffices for the gate).
  const obs::RegistrySnapshot& adm_snap = adm_fair.telemetry;
  const obs::Labels adm = {{"family", "adm"}};
  const double est_us = adm_snap.GaugeValue("admission.est_row_us", adm);
  const double measured_us =
      adm_snap.GaugeValue("admission.measured_row_us", adm);
  const double est_over_measured =
      measured_us > 0.0 ? est_us / measured_us : 0.0;
  gates.Check(est_over_measured >= 0.5 && est_over_measured <= 2.0,
              /*smoke=*/false,
              "admission estimate: prior %.2f us/row, calibrated %.2f us/row, "
              "measured EWMA %.2f us/row over %llu batches, est/measured %.2f "
              "(gate: within 2x)",
              adm_snap.GaugeValue("admission.prior_row_us", adm), est_us,
              measured_us,
              static_cast<unsigned long long>(
                  adm_snap.CounterValue("admission.cost_reports", adm)),
              est_over_measured);

  // --- telemetry: overhead + stage decomposition -------------------------
  const int tel_trials = 3;
  // Smoke trials are milliseconds long on a shared runner whose noise
  // floor is well above the dedicated-host gate, so the smoke gate is
  // calibrated to catch order-of-magnitude instrument regressions while
  // staying assertable in CI; full runs keep the 3% contract.
  const double tel_max_overhead = smoke ? 0.25 : 0.03;
  TelemetryTrial tel_on;
  double tel_best_pair_ratio = 0.0;
  for (int t = 0; t < tel_trials; ++t) {
    // Interleave off/on so machine drift (thermal, noisy neighbors)
    // hits both sides of the comparison equally.
    const TelemetryTrial off = RunTelemetryTrial(
        dataset, lr, exported.weights, topo, /*telemetry=*/false, threads,
        total_rows);
    tel_on = RunTelemetryTrial(dataset, lr, exported.weights, topo,
                               /*telemetry=*/true, threads, total_rows);
    // Best-of-k over PAIR ratios: the off/on runs of one pair ran back to
    // back, so their ratio shares one noise window and cancels drift; the
    // best pair is the least-perturbed paired comparison of the k, which
    // is the right bound for a <=-gate on a noisy host.
    tel_best_pair_ratio = std::max(
        tel_best_pair_ratio,
        off.rows_per_sec > 0.0 ? tel_on.rows_per_sec / off.rows_per_sec
                               : 1.0);
  }
  const double tel_overhead = 1.0 - tel_best_pair_ratio;
  gates.Check(tel_overhead <= tel_max_overhead, /*smoke=*/true,
              "telemetry overhead: %.2f%% (best of %d interleaved off/on pair "
              "ratios; gate: <= %.1f%%)",
              tel_overhead * 100.0, tel_trials, tel_max_overhead * 100.0);
  // Stage decomposition, from the last telemetry-on trial: the per-stage
  // means must sum to the measured mean end-to-end latency. The sum lands
  // slightly OVER the mean because the complete stage runs to the batch's
  // last resolution while each row's latency stops at its own. A big gap
  // either way means a stage boundary drifted from what the latency
  // histogram measures -- that is the regression this guards.
  const double tel_decomp_ratio =
      tel_on.e2e_mean_us > 0.0 ? tel_on.stage_sum_us / tel_on.e2e_mean_us
                               : 0.0;
  gates.Check(tel_decomp_ratio >= 0.9 && tel_decomp_ratio <= 1.1,
              /*smoke=*/false,
              "stage sum / e2e mean: %.3f (%.2f vs %.2f us; gate: within 10%%)",
              tel_decomp_ratio, tel_on.stage_sum_us, tel_on.e2e_mean_us);

  // --- kernels: SIMD dispatch levels + int8 quantized scoring ------------
  const double simd_min_ratio = 0.9;
  const SimdCompare sc = CompareSimdLevels(dense_rows, dense_dim, threads,
                                           kernel_sec, simd_min_ratio);
  gates.Check(sc.simd_ok, /*smoke=*/false,
              "dispatch: detected %s, active %s, block_cols %u; best SIMD %s "
              "at %.2fx scalar-tiled (gate: >= %.2fx)%s",
              kernels::ToString(kernels::DetectKernelLevel()),
              kernels::ToString(kernels::ActiveKernelLevel()),
              static_cast<unsigned>(kernels::Tuning().block_cols),
              sc.best_simd_level.c_str(), sc.simd_over_scalar, simd_min_ratio,
              sc.best_simd_level == "none" ? " [scalar-only host: vacuous]"
                                           : "");
  gates.Check(sc.int8_within_bound, /*smoke=*/false,
              "int8: %.0f rows/s (%.2fx best f64), max |margin err| %.3e vs "
              "bound %.3e (gate: every row within its own bound)",
              sc.int8_rows_per_sec, sc.int8_over_f64, sc.int8_max_abs_err,
              sc.int8_err_bound);

  // --- tuner: live placement tuning under a traffic shift ----------------
  const double tuner_min_recovery = 0.9;
  const TunerBenchResult tb = RunTunerShift(topo, smoke ? 0.15 : 0.5);
  const double recovery =
      tb.static_optimal_rows_per_sec > 0.0
          ? tb.post_flip_rows_per_sec / tb.static_optimal_rows_per_sec
          : 0.0;
  gates.Check(tb.flips >= 1, /*smoke=*/true,
              "tuner flips: %llu in %llu scans -> model %s, store %s "
              "(gate: >= 1)",
              static_cast<unsigned long long>(tb.flips),
              static_cast<unsigned long long>(tb.scans),
              tb.model_replication.c_str(), tb.store_placement.c_str());
  gates.Check(tb.failed == 0, /*smoke=*/true,
              "tuner failed/torn requests: %llu, %llu rows served "
              "(gate: == 0)",
              static_cast<unsigned long long>(tb.failed),
              static_cast<unsigned long long>(tb.served));
  gates.Check(recovery >= tuner_min_recovery, /*smoke=*/false,
              "tuner recovery: %.2f of static-optimal (%.0f vs %.0f rows/s; "
              "gate: >= %.2f)",
              recovery, tb.post_flip_rows_per_sec,
              tb.static_optimal_rows_per_sec, tuner_min_recovery);

  // --- key path: key vs row-id p99 ---------------------------------------
  const int key_rows = smoke ? 1024 : 8192;
  const int key_dim = smoke ? 64 : 256;
  const int key_page_rows = 32;
  const int key_pairs = 3;
  // Same smoke-vs-dedicated calibration as the telemetry gate: the p99
  // of a milliseconds-long smoke run carries scheduler noise that a 1.5x
  // bound cannot absorb.
  const double key_p99_tol = smoke ? 2.5 : 1.5;
  std::vector<double> key_table(static_cast<size_t>(key_rows) * key_dim);
  std::vector<double> key_weights(key_dim);
  {
    Rng rng(47);
    for (auto& v : key_table) v = rng.Gaussian(0.0, 1.0);
    for (auto& w : key_weights) w = rng.Gaussian(0.0, 1.0);
  }
  // Gate on the best WITHIN-pair p99 ratio: the id and key runs of a
  // pair ran back to back and share one noise window, so their ratio
  // cancels the run-to-run drift that dominates millisecond p99s on a
  // shared host (the same estimator the telemetry gate uses).
  double id_p99 = 0.0;
  double key_p99 = 0.0;
  double key_p99_ratio = 1e300;
  for (int pair = 0; pair < key_pairs; ++pair) {
    const double id = KeyedServingP99(
        key_table, static_cast<Index>(key_rows), static_cast<Index>(key_dim),
        lr, key_weights, topo, /*by_key=*/false,
        static_cast<Index>(key_page_rows), threads, total_rows);
    const double key = KeyedServingP99(
        key_table, static_cast<Index>(key_rows), static_cast<Index>(key_dim),
        lr, key_weights, topo, /*by_key=*/true,
        static_cast<Index>(key_page_rows), threads, total_rows);
    const double ratio = id > 0.0 ? key / id : 1.0;
    if (ratio < key_p99_ratio) {
      key_p99_ratio = ratio;
      id_p99 = id;
      key_p99 = key;
    }
  }
  gates.Check(key_p99_ratio <= key_p99_tol, /*smoke=*/true,
              "key-path p99 %.3f ms vs id-path %.3f ms (best pair ratio "
              "%.2fx; gate: <= %.2fx)",
              key_p99, id_p99, key_p99_ratio, key_p99_tol);

  if (gates.missed() > 0) {
    std::printf("FAIL: %d enforced gate(s) missed%s\n", gates.missed(),
                smoke ? " in --smoke" : "");
    return 1;
  }
  std::printf("all enforced gates ok%s\n", smoke ? " (--smoke)" : "");
  return 0;
}
