// Per-epoch and per-run measurements: the raw material of every
// experiment. Each epoch records measured wall time, simulated time under
// the configured topology's memory model, the loss after the epoch, and
// the logical traffic counters (the PMU substitute).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "numa/access_counters.h"
#include "numa/memory_model.h"

namespace dw::engine {

/// One epoch's outcome.
struct EpochRecord {
  int epoch = 0;
  double loss = std::numeric_limits<double>::infinity();
  double wall_sec = 0.0;       ///< measured on the host, work phase only
  double sim_sec = 0.0;        ///< memory-model seconds on the topology
  double loss_eval_sec = 0.0;  ///< convergence-check cost (reported apart)
  numa::AccessCounters traffic;  ///< totals across workers
};

/// A full run: the loss curve plus helpers for the paper's
/// "time to come within p% of the optimal loss" metric (Sec. 4.1).
struct RunResult {
  std::vector<EpochRecord> epochs;

  /// Total wall seconds of the work phases.
  double TotalWallSec() const {
    double s = 0.0;
    for (const auto& e : epochs) s += e.wall_sec;
    return s;
  }

  /// Total simulated seconds.
  double TotalSimSec() const {
    double s = 0.0;
    for (const auto& e : epochs) s += e.sim_sec;
    return s;
  }

  /// Best (lowest) loss seen.
  double BestLoss() const {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& e : epochs) best = std::min(best, e.loss);
    return best;
  }

  /// Epochs needed until loss <= target (first crossing); -1 if never.
  int EpochsToLoss(double target) const;

  /// Cumulative wall/simulated seconds until loss <= target; infinity if
  /// the run never got there.
  double WallSecToLoss(double target) const;
  double SimSecToLoss(double target) const;

  /// The paper's threshold: a loss within `fraction` of `optimal`
  /// (e.g. fraction 0.01 = "within 1%"). Handles optima of either sign.
  static double TargetLoss(double optimal, double fraction) {
    return optimal + std::abs(optimal) * fraction + 1e-12;
  }
};

}  // namespace dw::engine
