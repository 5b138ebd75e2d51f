// Shared support for the per-figure bench binaries. Every bench prints the
// paper's rows/series through dw::Table and reports both host wall-clock
// measurements and memory-model (simulated) times for the named topology,
// per the substitution described in src/numa/topology.h.
#pragma once

#include <cstdlib>
#include <map>
#include <string>

#include "baselines/baselines.h"
#include "data/paper_datasets.h"
#include "engine/engine.h"
#include "engine/grid_search.h"
#include "models/glm.h"
#include "models/graph_opt.h"
#include "opt/optimizer.h"
#include "util/table.h"

namespace dw::bench {

/// Reads a double knob from the environment (e.g. DW_BENCH_SCALE).
inline double EnvDouble(const char* name, double dflt) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : dflt;
}

/// Reads an integer knob from the environment.
inline int EnvInt(const char* name, int dflt) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : dflt;
}

/// Global dataset scale multiplier (1.0 = the bench defaults; raise to
/// stress the machine, lower for smoke runs).
inline double BenchScale() { return EnvDouble("DW_BENCH_SCALE", 1.0); }

/// Bench-default dataset constructors (paper shapes at CI-friendly size).
inline data::Dataset BenchRcv1() { return data::Rcv1(0.004 * BenchScale()); }
inline data::Dataset BenchReuters() {
  return data::Reuters(0.25 * BenchScale());
}
inline data::Dataset BenchMusic() { return data::Music(0.01 * BenchScale()); }
inline data::Dataset BenchForest() {
  return data::Forest(0.01 * BenchScale());
}
inline data::Dataset BenchAmazonLp() {
  return data::AmazonLp(0.01 * BenchScale());
}
inline data::Dataset BenchGoogleLp() {
  return data::GoogleLp(0.005 * BenchScale());
}
inline data::Dataset BenchAmazonQp() {
  return data::AmazonQp(0.008 * BenchScale());
}
inline data::Dataset BenchGoogleQp() {
  return data::GoogleQp(0.004 * BenchScale());
}

/// Engine options preset for a paper topology.
inline engine::EngineOptions MakeOptions(const numa::Topology& topo,
                                         engine::AccessMethod access,
                                         engine::ModelReplication mrep,
                                         engine::DataReplication drep,
                                         double step = 0.1) {
  engine::EngineOptions o;
  o.topology = topo;
  o.access = access;
  o.model_rep = mrep;
  o.data_rep = drep;
  o.step_size = step;
  return o;
}

/// Runs an engine to completion and returns the loss curve.
inline engine::RunResult RunEngine(const data::Dataset& d,
                                   const models::ModelSpec& spec,
                                   const engine::EngineOptions& options,
                                   int max_epochs,
                                   double stop_loss = -1e300,
                                   double timeout_sec = 1e300) {
  engine::Engine eng(&d, &spec, options);
  const Status st = eng.Init();
  DW_CHECK(st.ok()) << st.ToString();
  engine::RunConfig cfg;
  cfg.max_epochs = max_epochs;
  cfg.stop_loss = stop_loss;
  cfg.wall_timeout_sec = timeout_sec;
  return eng.Run(cfg);
}

/// Reference "optimal loss" (paper Sec. 4.1: lowest loss over a long run),
/// cached per (spec, dataset) within the process. Runs both a row-wise
/// (SGD) and a column (coordinate-descent) reference and keeps the lower
/// loss: SGD is the robust reference for the nonsmooth GLMs, while exact
/// coordinate minimization is far stronger for LP/QP.
inline double OptimalLoss(const data::Dataset& d,
                          const models::ModelSpec& spec, int epochs = 120,
                          double step = 0.1) {
  static std::map<std::string, double> cache;
  const std::string key = spec.name() + "/" + d.name + "/" +
                          std::to_string(d.a.rows());
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  double opt = std::numeric_limits<double>::infinity();
  if (spec.HasRow()) {
    opt = std::min(opt, engine::ReferenceOptimalLoss(
                            d, spec, engine::AccessMethod::kRowWise, epochs,
                            step));
  }
  if (spec.HasCtr() || spec.HasCol()) {
    const engine::AccessMethod col = spec.HasCtr()
                                         ? engine::AccessMethod::kColToRow
                                         : engine::AccessMethod::kColWise;
    opt = std::min(opt,
                   engine::ReferenceOptimalLoss(d, spec, col, epochs, step));
  }
  cache[key] = opt;
  return opt;
}

/// The paper's loss thresholds ("within p% of the optimal loss").
inline double Target(double optimal, double percent) {
  return engine::RunResult::TargetLoss(optimal, percent / 100.0);
}

/// The paper's protocol (Sec. 4.2): "for each system, we grid search their
/// statistical parameters including step size ... we always report the
/// best configuration". Thin wrapper over engine::GridSearchStepSize.
inline engine::RunResult RunBestStep(
    const data::Dataset& d, const models::ModelSpec& spec,
    engine::EngineOptions options, int max_epochs, double optimal_loss,
    const std::vector<double>& steps = {0.3, 0.1, 0.03, 0.01}) {
  return engine::GridSearchStepSize(d, spec, std::move(options), max_epochs,
                                    optimal_loss, steps)
      .best_run;
}

/// Formats a ratio column like "3.2x".
inline std::string Ratio(double num, double denom) {
  if (denom <= 0.0) return "n/a";
  return Table::Num(num / denom, 2) + "x";
}

}  // namespace dw::bench
