// Shared support for the bench binaries: environment knobs, the bench-size
// RCV1 dataset and engine options for a paper topology.
#pragma once

#include <cstdlib>

#include "data/paper_datasets.h"
#include "engine/engine.h"
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

/// RCV1 at bench size, scaled by DW_BENCH_SCALE (1.0 = the bench default;
/// raise to stress the machine, lower for smoke runs).
inline data::Dataset BenchRcv1() {
  return data::Rcv1(0.004 * EnvDouble("DW_BENCH_SCALE", 1.0));
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

}  // namespace dw::bench
