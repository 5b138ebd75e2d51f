#include "engine/grid_search.h"

#include <algorithm>

#include "util/logging.h"

namespace dw::engine {

GridSearchResult GridSearchStepSize(
    const data::Dataset& dataset, const models::ModelSpec& spec,
    EngineOptions options, int max_epochs, double optimal_loss,
    const std::vector<double>& steps,
    const std::vector<double>& threshold_percents) {
  DW_CHECK(!steps.empty());
  GridSearchResult out;
  out.thresholds = threshold_percents;
  std::vector<double> best_score;
  for (auto it = steps.begin(); it != steps.end(); ++it) {
    const double step = *it;
    // A repeated step would rerun the same configuration; the first run
    // of a step stands for it.
    if (std::find(steps.begin(), it, step) != it) continue;
    options.step_size = step;
    Engine engine(&dataset, &spec, options);
    const Status st = engine.Init();
    DW_CHECK(st.ok()) << st.ToString();
    RunConfig cfg;
    cfg.max_epochs = max_epochs;
    RunResult rr = engine.Run(cfg);

    std::vector<double> score;
    score.reserve(threshold_percents.size() + 1);
    for (double pct : threshold_percents) {
      const int e = rr.EpochsToLoss(
          RunResult::TargetLoss(optimal_loss, pct / 100.0));
      score.push_back(e < 0 ? 1e18 : e);
    }
    score.push_back(rr.BestLoss());
    if (out.best_run.epochs.empty() || score < best_score) {
      out.best_run = std::move(rr);
      out.best_step = step;
      best_score = std::move(score);
    }
  }
  return out;
}

}  // namespace dw::engine
