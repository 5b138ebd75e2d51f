#include "util/barrier.h"

#include <linux/futex.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <climits>

namespace dw {

namespace {

static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t),
              "the futex word must be a bare 32-bit integer");

// A poller reads the word kPollsPerYield times between yields. A barrier
// waiter parks once kSpinWindow has passed. Chosen by timing the ~25 us
// Hogwild epoch of IntegrationTest.SgdBeatsMinibatchOnWallClock's inputs
// on a 4-vCPU AVX-512 Xeon KVM guest, interleaved with the old spin-only
// barrier (median of per-batch p50s, 16-20 batches of 60 runs). Little
// host steal: 1, 2 and 5 ms windows read 27.5, 28.6 and 27.5 us against
// 26.4 (batch IQR 25.2-28.9). Heavy steal: windows of about 0.4, 1.5 and
// 5 ms (256, 1,024 and 4,096 yield rounds) read 36.7 (p90 690), 32.4 and
// 31.4 us against 30.1. Polling with PAUSE was slower still: 2,048
// pauses (45 us, then park) read 39-42 us against 24-28.
constexpr int kPollsPerYield = 1024;
constexpr auto kSpinWindow = std::chrono::milliseconds(5);

long Futex(std::atomic<uint32_t>* word, int op, uint32_t val) {
  return syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), op, val,
                 nullptr, nullptr, 0);
}

}  // namespace

bool PollForChange(const std::atomic<uint32_t>& word, uint32_t seen,
                   std::chrono::nanoseconds window) {
  const auto give_up_at = std::chrono::steady_clock::now() + window;
  do {
    for (int i = 0; i < kPollsPerYield; ++i) {
      if (word.load(std::memory_order_acquire) != seen) return true;
    }
    sched_yield();
  } while (std::chrono::steady_clock::now() < give_up_at);
  return false;
}

void Barrier::Wait() {
  // The generation cannot move before this party arrives, so this is the
  // one being waited out.
  const uint32_t gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    arrived_.store(0, std::memory_order_relaxed);
    // The bump and the sleepers_ load pair with a sleeper's increment and
    // its generation_ load: a Dekker handshake. With all four seq_cst,
    // one store comes first in the single total order, so either the
    // releaser sees the sleeper and wakes it, or the sleeper sees the new
    // generation and never sleeps (FUTEX_WAIT re-checks the word in the
    // kernel for the window between its load and its sleep). A release
    // store would not do: x86 may run the later load while the store
    // still sits in the store buffer, both sides read the old values, and
    // the wakeup is lost.
    generation_.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) != 0) {
      Futex(&generation_, FUTEX_WAKE_PRIVATE, INT_MAX);
    }
    return;
  }
  if (PollForChange(generation_, gen, kSpinWindow)) return;
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  // Every pass, after every wake too, re-reads the word through the atomic
  // (seq_cst, so at least acquire): the ordering with the releaser's
  // writes is carried by the atomic, where ThreadSanitizer sees it, not by
  // the system call. A spurious or stale wake just loops.
  while (generation_.load(std::memory_order_seq_cst) == gen) {
    Futex(&generation_, FUTEX_WAIT_PRIVATE, gen);
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace dw
