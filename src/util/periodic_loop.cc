#include "util/periodic_loop.h"

#include <utility>

#include "util/logging.h"
#include "util/thread_util.h"

namespace dw {

PeriodicLoop::PeriodicLoop(std::string name,
                           std::function<std::chrono::nanoseconds()> period,
                           std::function<void()> tick)
    : name_(std::move(name)),
      period_(std::move(period)),
      tick_(std::move(tick)) {}

PeriodicLoop::~PeriodicLoop() { Stop(); }

void PeriodicLoop::Start() {
  std::lock_guard<std::mutex> lk(mu_);
  DW_CHECK(!started_) << name_ << " started twice";
  started_ = true;
  if (stop_) return;
  thread_ = std::thread([this] { Run(); });
}

bool PeriodicLoop::Stop() {
  std::thread claimed;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    claimed = std::move(thread_);
  }
  cv_.notify_all();
  if (!claimed.joinable()) return false;
  claimed.join();
  return true;
}

void PeriodicLoop::Wake() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    woken_ = true;
  }
  cv_.notify_all();
}

void PeriodicLoop::Run() {
  SetCurrentThreadName(name_);
  auto last_tick = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    // Cleared before period() runs, so a wake that lands while it runs
    // re-derives the period once more instead of being lost.
    woken_ = false;
    lk.unlock();
    const auto due = last_tick + period_();
    lk.lock();
    if (cv_.wait_until(lk, due, [this] { return stop_ || woken_; })) {
      continue;  // stopped, or woken to re-derive the period
    }
    lk.unlock();
    tick_();
    last_tick = std::chrono::steady_clock::now();
    lk.lock();
  }
}

}  // namespace dw
