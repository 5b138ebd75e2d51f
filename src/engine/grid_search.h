// Step-size grid search -- the paper's experimental protocol (Sec. 4.2:
// "for each system, we grid search their statistical parameters, including
// step size ... we always report the best configuration"). Exposed as a
// library utility so applications can tune a plan the same way the
// benchmarks do.
#pragma once

#include <vector>

#include "engine/engine.h"

namespace dw::engine {

/// Outcome of a grid search.
struct GridSearchResult {
  double best_step = 0.0;
  RunResult best_run;
  /// Loss thresholds used for ranking (fractions of the optimal loss).
  std::vector<double> thresholds;
};

/// Runs the engine once per distinct candidate step size and keeps the run
/// that reaches the tightest threshold of `optimal_loss` in the fewest
/// epochs (ties broken by the next threshold, then by best loss).
/// Thresholds are the paper's {1, 10, 50, 100} percent by default.
GridSearchResult GridSearchStepSize(
    const data::Dataset& dataset, const models::ModelSpec& spec,
    EngineOptions options, int max_epochs, double optimal_loss,
    const std::vector<double>& steps = {0.3, 0.1, 0.03, 0.01},
    const std::vector<double>& threshold_percents = {1, 10, 50, 100});

}  // namespace dw::engine
