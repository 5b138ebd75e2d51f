// The persistent worker pool behind every epoch loop (paper Sec. 3):
// workers pinned once to their virtual node's CPUs, meeting the caller at
// a barrier before and after each phase. The engine, the MLP trainer, the
// Gibbs sampler and the GraphLab/GraphChi executors run on it.
#pragma once

#include <functional>
#include <thread>
#include <vector>

#include "util/barrier.h"

namespace dw {

class WorkerPool {
 public:
  /// Starts one thread per entry of `cpus`: worker w names itself
  /// dw-worker-w and pins itself once to CPU cpus[w], or stays unpinned
  /// for -1. Returns once every worker has done so, so the first Run
  /// pays no thread start-up.
  explicit WorkerPool(std::vector<int> cpus);
  /// Releases the workers and joins them.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs body(w) once on every worker w in [0, cpus.size()) between two
  /// barrier crossings, and returns when all have finished.
  void Run(const std::function<void(int)>& body);

 private:
  void Loop(int worker, int cpu);

  Barrier barrier_;  // the workers + the caller of Run
  const std::function<void(int)>* body_ = nullptr;  // null: exit
  std::vector<std::thread> threads_;
};

}  // namespace dw
