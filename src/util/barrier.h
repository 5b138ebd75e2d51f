// Synchronization primitives for the epoch-based execution engine. Workers
// meet at a barrier between epochs. A waiter polls (yielding the CPU now
// and then) for up to 5 ms, so that short epochs cross without a system
// call, and then parks on a futex, so that an idle pool costs no CPU.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/logging.h"

namespace dw {

/// The polling half of poll-then-park: acquire loads of `word` until it
/// differs from `seen` (true) or `window` has passed (false), yielding
/// the CPU every 1,024 loads and reading the clock between those rounds,
/// so at least one round runs. The caller parks on a false return.
bool PollForChange(const std::atomic<uint32_t>& word, uint32_t seen,
                   std::chrono::nanoseconds window);

/// Reusable barrier for a fixed set of participants: spin, then park.
class Barrier {
 public:
  /// `parties` threads must call Wait() before any is released.
  explicit Barrier(uint32_t parties) : parties_(parties) {
    DW_CHECK_GT(parties, 0u);
  }

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Blocks until all parties arrive. Safe to reuse across generations.
  /// Destroy the barrier only after every party has returned from its
  /// last Wait(): the releaser touches it after the others are free.
  void Wait();

 private:
  const uint32_t parties_;
  std::atomic<uint32_t> arrived_{0};
  /// Bumped by the last arrival; also the futex word that sleepers wait
  /// on, hence 32 bits.
  std::atomic<uint32_t> generation_{0};
  /// Waiters that may be in (or about to enter) FUTEX_WAIT.
  std::atomic<uint32_t> sleepers_{0};
};

/// Tiny test-and-test-and-set spinlock (used only on cold paths such as
/// metrics aggregation; the hot data path is lock-free by design).
class SpinLock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      while (locked_hint_.load(std::memory_order_relaxed)) {
      }
    }
    locked_hint_.store(true, std::memory_order_relaxed);
  }

  void unlock() {
    locked_hint_.store(false, std::memory_order_relaxed);
    flag_.clear(std::memory_order_release);
  }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
  std::atomic<bool> locked_hint_{false};
};

}  // namespace dw
