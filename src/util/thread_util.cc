#include "util/thread_util.h"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <thread>
#include <vector>

namespace dw {

int NumOnlineCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n > 0) return static_cast<int>(n);
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

Status PinCurrentThreadToCpu(int cpu) {
  const int ncpu = NumOnlineCpus();
  if (cpu < 0) return Status::InvalidArgument("negative cpu id");
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % ncpu, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    return Status::Internal("pthread_setaffinity_np failed");
  }
  return Status::OK();
}

Status UnpinCurrentThread() {
  const int ncpu = NumOnlineCpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int i = 0; i < ncpu; ++i) CPU_SET(i, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    return Status::Internal("pthread_setaffinity_np failed");
  }
  return Status::OK();
}

void SetCurrentThreadName(const std::string& name) {
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
}

void RunOnNewThreads(int threads, const std::function<void(int)>& fn) {
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) pool.emplace_back(fn, t);
  for (std::thread& th : pool) th.join();
}

}  // namespace dw
