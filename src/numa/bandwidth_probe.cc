#include "numa/bandwidth_probe.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <vector>

#include "util/aligned.h"
#include "util/barrier.h"
#include "util/thread_util.h"

namespace dw::numa {

namespace {

// Runs work(t) once on each of `threads` fresh threads released together,
// `iters` times, and returns the shortest time from the earliest start to
// the latest end. Each worker reads the steady clock around its own share.
// A timer on the calling thread would not do: if the caller is preempted
// after the release, the timer covers only the tail of the work, and
// best-of-N keeps that impossible rate.
template <typename Work>
double BestSeconds(int threads, int iters, Work work) {
  using Clock = std::chrono::steady_clock;
  double best = 1e30;
  for (int it = 0; it < iters; ++it) {
    std::vector<Clock::time_point> begin(threads), end(threads);
    Barrier start(threads);
    RunOnNewThreads(threads, [&](int t) {
      start.Wait();
      begin[t] = Clock::now();
      work(t);
      end[t] = Clock::now();
    });
    best = std::min(best, std::chrono::duration<double>(
                              *std::max_element(end.begin(), end.end()) -
                              *std::min_element(begin.begin(), begin.end()))
                              .count());
  }
  return best;
}

// Best bandwidth of kernel(i) over i in [0, n), split into one contiguous
// share per thread.
template <typename Kernel>
double TimeKernel(int threads, size_t n, int iters, size_t bytes_per_elem,
                  Kernel kernel) {
  const double sec = BestSeconds(threads, iters, [&](int t) {
    const size_t hi = n * (t + 1) / threads;
    for (size_t i = n * t / threads; i < hi; ++i) kernel(i);
  });
  return static_cast<double>(n) * bytes_per_elem / sec / 1e9;
}

}  // namespace

BandwidthResult MeasureBandwidth(int threads, size_t array_doubles,
                                 int iters) {
  AlignedArray<double> a(array_doubles), b(array_doubles), c(array_doubles);
  for (size_t i = 0; i < array_doubles; ++i) a[i] = 1.0 + (i & 7);
  const double q = 3.0;
  BandwidthResult r;
  const size_t n = array_doubles;
  r.copy_gbps = TimeKernel(threads, n, iters, 16, [&](size_t i) {
    b[i] = a[i];
  });
  r.scale_gbps = TimeKernel(threads, n, iters, 16, [&](size_t i) {
    b[i] = q * a[i];
  });
  r.add_gbps = TimeKernel(threads, n, iters, 24, [&](size_t i) {
    c[i] = a[i] + b[i];
  });
  r.triad_gbps = TimeKernel(threads, n, iters, 24, [&](size_t i) {
    c[i] = a[i] + q * b[i];
  });
  return r;
}

double MeasureWriteReadCostRatio(int threads, int iters) {
  constexpr size_t kOps = 1 << 20;
  constexpr size_t kArr = 1 << 20;

  // Contended writes: all threads increment the same cacheline.
  alignas(kCacheLineBytes) static std::atomic<uint64_t> shared{0};
  const double write_sec = BestSeconds(threads, iters, [&](int) {
    for (size_t i = 0; i < kOps; ++i) {
      shared.fetch_add(1, std::memory_order_relaxed);
    }
  }) / static_cast<double>(kOps);

  // Private reads: each thread scans its own array.
  std::vector<AlignedArray<double>> arrays;
  arrays.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    arrays.emplace_back(kArr);
    for (size_t i = 0; i < kArr; ++i) arrays[t][i] = 1.0;
  }
  std::atomic<double> sink{0.0};
  const double read_sec = BestSeconds(threads, iters, [&](int t) {
    double acc = 0.0;
    for (size_t i = 0; i < kArr; ++i) acc += arrays[t][i];
    sink.store(acc, std::memory_order_relaxed);
  }) / static_cast<double>(kArr);

  return read_sec > 0.0 ? write_sec / read_sec : 0.0;
}

}  // namespace dw::numa
