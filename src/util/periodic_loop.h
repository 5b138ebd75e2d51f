// The background-thread lifecycle of the process's periodic loops: the
// engine's asynchronous averager (paper Sec. 3.3: "a separate thread
// averages models, batching many writes together across the cores into
// one write"), its serving twin serve::SnapshotExporter,
// obs::TelemetryExporter and opt::PlacementTuner. Each owner supplies a
// period and a tick; the loop owns the thread, the stop flag and the
// claimed join.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace dw {

/// One named thread that waits `period()` from the end of the previous
/// tick (or from its start), runs `tick()`, and repeats until stopped.
/// `period()` and `tick()` run on the loop thread with none of the loop's
/// locks held, so Stop() never waits behind a tick to set its flag.
///
/// An owner declares its loop after every member the tick reads, so the
/// destructor joins the thread before those members are destroyed.
class PeriodicLoop {
 public:
  /// `name` names the thread (<= 15 chars on Linux). `period` must return
  /// a positive duration; it is called before every wait and after every
  /// Wake(), so it may change between ticks.
  PeriodicLoop(std::string name,
               std::function<std::chrono::nanoseconds()> period,
               std::function<void()> tick);
  /// Stop() without a final tick.
  ~PeriodicLoop();

  PeriodicLoop(const PeriodicLoop&) = delete;
  PeriodicLoop& operator=(const PeriodicLoop&) = delete;

  /// Starts the thread. A second call dies; a loop stopped before it
  /// started starts no thread.
  void Start();

  /// Stops and joins the thread. Idempotent and safe to call from several
  /// threads at once: the join is claimed under the loop's lock, and only
  /// the call that joined a started thread returns true, so an owner that
  /// wants a final tick writes `if (loop.Stop()) Tick();`. A call that
  /// finds the join already claimed returns false at once.
  bool Stop();

  /// Makes the thread re-derive its period now, without ticking. The
  /// period still counts from the end of the previous tick, so wakes
  /// never postpone a tick.
  void Wake();

 private:
  void Run();

  const std::string name_;
  const std::function<std::chrono::nanoseconds()> period_;
  const std::function<void()> tick_;

  std::mutex mu_;  ///< guards the flags and the thread handle below
  std::condition_variable cv_;
  bool started_ = false;
  bool stop_ = false;
  bool woken_ = false;
  std::thread thread_;
};

}  // namespace dw
