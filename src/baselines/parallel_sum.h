// Parallel-sum throughput microbenchmark (paper Sec. 4.2, Fig. 13): "an
// extremely simple task ... DimmWitted maintains one single copy of the
// sum result per NUMA node, so the workers on one NUMA node do not
// invalidate the cache on another NUMA node", while Hogwild!-style keeps
// one shared copy all threads write, GraphLab-style adds dynamic task
// scheduling, and MLlib-style adds per-minibatch synchronization.
#pragma once

#include <cstdint>
#include <vector>

#include "numa/topology.h"

namespace dw::baselines {

/// Which system's execution model to emulate for the sum.
enum class SumStrategy {
  kDimmWitted,     ///< per-node padded accumulators, combined once
  kHogwild,        ///< one shared cell, plain racy adds (may lose updates)
  kGraphLabStyle,  ///< shared accumulator + dynamic task queue
  kMLlibStyle,     ///< per-worker partials, per-minibatch barrier + driver
};

/// Whole passes RunParallelSum times; it reports the fastest. Like STREAM
/// and numa::MeasureBandwidth, best-of-N keeps one pass that a preempted
/// thread or a cold page stalls from standing for the strategy.
inline constexpr int kSumPasses = 3;

/// Result of the fastest pass.
struct SumResult {
  double sum = 0.0;
  double seconds = 0.0;
  double gb_per_sec = 0.0;
};

/// Sums `values` with `threads` workers under the given strategy, timing
/// kSumPasses whole passes (thread spawn included) and returning the
/// fastest. `chunk` is the task granularity for the queue/minibatch
/// variants.
SumResult RunParallelSum(const std::vector<double>& values, int threads,
                         SumStrategy strategy, size_t chunk = 4096);

}  // namespace dw::baselines
