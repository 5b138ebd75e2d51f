#include "util/worker_pool.h"

#include <string>

#include "util/thread_util.h"

namespace dw {

WorkerPool::WorkerPool(std::vector<int> cpus)
    : barrier_(static_cast<uint32_t>(cpus.size()) + 1) {
  threads_.reserve(cpus.size());
  for (size_t w = 0; w < cpus.size(); ++w) {
    threads_.emplace_back(&WorkerPool::Loop, this, static_cast<int>(w),
                          cpus[w]);
  }
  barrier_.Wait();  // every worker has named and pinned itself
}

WorkerPool::~WorkerPool() {
  body_ = nullptr;
  barrier_.Wait();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::Run(const std::function<void(int)>& body) {
  body_ = &body;
  barrier_.Wait();  // start
  barrier_.Wait();  // finish
}

void WorkerPool::Loop(int worker, int cpu) {
  SetCurrentThreadName("dw-worker-" + std::to_string(worker));
  if (cpu >= 0) (void)PinCurrentThreadToCpu(cpu);
  barrier_.Wait();  // started: the constructor may return
  for (;;) {
    barrier_.Wait();
    if (body_ == nullptr) return;
    (*body_)(worker);
    barrier_.Wait();
  }
}

}  // namespace dw
