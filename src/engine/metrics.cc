#include "engine/metrics.h"

namespace dw::engine {

int RunResult::EpochsToLoss(double target) const {
  for (const auto& e : epochs) {
    if (e.loss <= target) return e.epoch + 1;
  }
  return -1;
}

double RunResult::WallSecToLoss(double target) const {
  double acc = 0.0;
  for (const auto& e : epochs) {
    acc += e.wall_sec;
    if (e.loss <= target) return acc;
  }
  return std::numeric_limits<double>::infinity();
}

double RunResult::SimSecToLoss(double target) const {
  double acc = 0.0;
  for (const auto& e : epochs) {
    acc += e.sim_sec;
    if (e.loss <= target) return acc;
  }
  return std::numeric_limits<double>::infinity();
}

}  // namespace dw::engine
