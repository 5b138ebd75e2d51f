// OS-thread helpers: CPU pinning and naming. Pinning maps virtual NUMA
// placement decisions onto whatever physical CPUs exist (see src/numa).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "util/status.h"

namespace dw {

/// Number of online logical CPUs.
int NumOnlineCpus();

/// Pins the calling thread to the given logical CPU (modulo the online CPU
/// count, so virtual-core ids larger than the machine still map somewhere
/// deterministic). Returns non-OK only if the affinity syscall fails.
Status PinCurrentThreadToCpu(int cpu);

/// Clears the calling thread's CPU affinity (any online CPU).
Status UnpinCurrentThread();

/// Best-effort thread naming for debuggers (<=15 chars on Linux).
void SetCurrentThreadName(const std::string& name);

/// Runs fn(t) for t in [0, threads) on fresh threads and joins them: for
/// one-shot scans (the parallel loss), MLlib-style stages, Fig. 13's sums
/// and the STREAM probe. Epoch loops run on a WorkerPool instead.
void RunOnNewThreads(int threads, const std::function<void(int)>& fn);

}  // namespace dw
