#include "baselines/parallel_sum.h"

#include <atomic>

#include "util/aligned.h"
#include "util/thread_util.h"
#include "util/timer.h"

namespace dw::baselines {

namespace {

// Sums [lo, hi) locally before touching any shared state.
double LocalSum(const double* v, size_t lo, size_t hi) {
  double acc = 0.0;
  for (size_t i = lo; i < hi; ++i) acc += v[i];
  return acc;
}

// One whole timed pass, thread spawn included.
SumResult TimedPass(const std::vector<double>& values, int threads,
                    SumStrategy strategy, size_t chunk) {
  const size_t n = values.size();
  const double* v = values.data();
  SumResult result;
  WallTimer timer;

  switch (strategy) {
    case SumStrategy::kDimmWitted: {
      // One padded accumulator per worker-group ("node"): no cacheline
      // ever bounces between groups; a single combine at the end.
      std::vector<Padded<double>> acc(threads);
      RunOnNewThreads(threads, [&](int t) {
        acc[t].value = LocalSum(v, n * t / threads, n * (t + 1) / threads);
      });
      for (int t = 0; t < threads; ++t) result.sum += acc[t].value;
      break;
    }
    case SumStrategy::kHogwild: {
      // All threads hammer one shared cell with plain lock-free adds
      // (paper Sec. 4.2: "all threads write to a single copy of the sum
      // result"). Every add pulls the line from another core's cache;
      // concurrent read-modify-writes may lose updates -- exactly the
      // incoherence Hogwild!-style execution tolerates.
      struct alignas(kCacheLineBytes) SharedCell {
        volatile double value = 0.0;
      };
      SharedCell shared;
      RunOnNewThreads(threads, [&](int t) {
        const size_t hi = n * (t + 1) / threads;
        for (size_t i = n * t / threads; i < hi; ++i) {
          shared.value = shared.value + v[i];
        }
      });
      result.sum = shared.value;
      break;
    }
    case SumStrategy::kGraphLabStyle: {
      // Dynamic per-vertex task scheduling: GraphLab dispatches one task
      // per vertex update, so the queue granularity is a handful of
      // elements, and each task commits to the shared state under its
      // consistency protocol (an atomic update here).
      alignas(kCacheLineBytes) std::atomic<double> shared{0.0};
      std::atomic<size_t> cursor{0};
      const size_t task = std::max<size_t>(1, chunk / 512);
      RunOnNewThreads(threads, [&](int) {
        for (;;) {
          const size_t lo = cursor.fetch_add(task);
          if (lo >= n) break;
          const double part = LocalSum(v, lo, std::min(n, lo + task));
          double cur = shared.load(std::memory_order_relaxed);
          while (!shared.compare_exchange_weak(cur, cur + part,
                                               std::memory_order_relaxed)) {
          }
        }
      });
      result.sum = shared.load();
      break;
    }
    case SumStrategy::kMLlibStyle: {
      // Bulk-synchronous minibatches: workers fill partials, joining them
      // closes the stage, the driver aggregates -- repeated per batch.
      std::vector<Padded<double>> partials(threads);
      const size_t batch = chunk * threads;
      double total = 0.0;
      for (size_t start = 0; start < n; start += batch) {
        RunOnNewThreads(threads, [&](int t) {
          partials[t].value = LocalSum(v, std::min(n, start + chunk * t),
                                       std::min(n, start + chunk * (t + 1)));
        });
        for (int t = 0; t < threads; ++t) total += partials[t].value;
      }
      result.sum = total;
      break;
    }
  }

  result.seconds = timer.Seconds();
  result.gb_per_sec =
      result.seconds > 0
          ? static_cast<double>(n) * sizeof(double) / result.seconds / 1e9
          : 0.0;
  return result;
}

}  // namespace

SumResult RunParallelSum(const std::vector<double>& values, int threads,
                         SumStrategy strategy, size_t chunk) {
  SumResult best;
  for (int pass = 0; pass < kSumPasses; ++pass) {
    const SumResult r = TimedPass(values, threads, strategy, chunk);
    if (pass == 0 || r.seconds < best.seconds) best = r;
  }
  return best;
}

}  // namespace dw::baselines
