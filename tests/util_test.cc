// Unit tests for src/util: Status, logging, RNG, stats, table, barrier,
// worker pool, periodic loop.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/aligned.h"
#include "util/barrier.h"
#include "util/json_writer.h"
#include "util/periodic_loop.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"
#include "util/thread_util.h"
#include "util/timer.h"
#include "util/worker_pool.h"

namespace dw {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dims");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dims");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dims");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), Status::Code::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), Status::Code::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), Status::Code::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), Status::Code::kInternal);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            Status::Code::kResourceExhausted);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), Status::Code::kNotFound);
}

TEST(RngTest, DeterministicBySeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, BelowIsBoundedAndCoversSupport) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.Below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(99);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(ZipfTest, ProducesSkewedFrequencies) {
  Rng rng(3);
  ZipfSampler zipf(1000, 1.1);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  // Head must dominate the tail by a wide margin.
  EXPECT_GT(counts[0], counts[100] * 5);
  EXPECT_GT(counts[0], 0);
}

TEST(ZipfTest, StaysInSupport) {
  Rng rng(4);
  ZipfSampler zipf(17, 0.8);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Sample(rng), 17u);
}

TEST(SplitMixTest, ProducesDistinctStreams) {
  uint64_t state = 42;
  const uint64_t a = SplitMix64(state);
  const uint64_t b = SplitMix64(state);
  EXPECT_NE(a, b);
}

TEST(StatsTest, SummarizeBasics) {
  Summary s = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
}

TEST(StatsTest, EmptySummaryIsZero) {
  Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(StatsTest, RelativeError) {
  EXPECT_NEAR(RelativeError(1.1, 1.0), 0.1, 1e-12);
  EXPECT_NEAR(RelativeError(0.0, 0.0), 0.0, 1e-12);
}

TEST(AlignedTest, ArrayIsCacheLineAligned) {
  AlignedArray<double> a(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a.data()) % kCacheLineBytes, 0u);
  EXPECT_EQ(a.size(), 100u);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], 0.0);
}

TEST(AlignedTest, MoveTransfersOwnership) {
  AlignedArray<int> a(10);
  a[3] = 7;
  AlignedArray<int> b = std::move(a);
  EXPECT_EQ(b[3], 7);
  EXPECT_EQ(a.data(), nullptr);
}

TEST(AlignedTest, PaddedOccupiesFullLine) {
  EXPECT_EQ(sizeof(Padded<int>) % kCacheLineBytes, 0u);
  EXPECT_GE(sizeof(Padded<int>), kCacheLineBytes);
}

TEST(BarrierTest, ReleasesAllParties) {
  constexpr int kThreads = 4;
  Barrier barrier(kThreads);
  std::atomic<int> before{0}, after{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      before.fetch_add(1);
      barrier.Wait();
      after.fetch_add(1);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(before.load(), kThreads);
  EXPECT_EQ(after.load(), kThreads);
}

TEST(BarrierTest, ReusableAcrossGenerations) {
  constexpr int kThreads = 3;
  constexpr int kRounds = 50;
  Barrier barrier(kThreads);
  std::atomic<int> counter{0};
  std::vector<std::thread> pool;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        counter.fetch_add(1);
        barrier.Wait();
        // After the barrier every thread must observe a full round.
        if (counter.load() < kThreads * (r + 1)) ok.store(false);
        barrier.Wait();
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(counter.load(), kThreads * kRounds);
}

TEST(BarrierTest, ReleasesALateArrivalAfterTheOthersPark) {
  // The first three parties poll for at most 5 ms and then park; the last
  // arrives 30 ms later and must wake them all. A lost wakeup hangs here,
  // and the ctest timeout fails the test.
  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  Barrier barrier(kThreads);
  std::atomic<int> released{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads - 1; ++t) {
    pool.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        barrier.Wait();
        released.fetch_add(1);
      }
    });
  }
  for (int r = 0; r < kRounds; ++r) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(released.load(), r * (kThreads - 1));
    barrier.Wait();
    while (released.load() < (r + 1) * (kThreads - 1)) {
      std::this_thread::yield();
    }
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(released.load(), kRounds * (kThreads - 1));
}

TEST(WorkerPoolTest, RunCallsEveryWorkerOncePerPhase) {
  constexpr int kWorkers = 4;
  constexpr int kPhases = 1000;
  WorkerPool pool(std::vector<int>(kWorkers, -1));
  // Plain ints, one slot per worker: a repeated or shared `w` shows up as
  // a wrong count (and as a race under TSan).
  std::vector<int> calls(kWorkers, 0);
  std::vector<int> seen_phase(kWorkers, -1);
  int phase = 0;
  for (; phase < kPhases; ++phase) {
    pool.Run([&](int w) {
      ++calls[w];
      seen_phase[w] = phase;
    });
    for (int w = 0; w < kWorkers; ++w) {
      ASSERT_EQ(calls[w], phase + 1) << "worker " << w;
      ASSERT_EQ(seen_phase[w], phase) << "worker " << w;
    }
  }
}

TEST(WorkerPoolTest, DestroysCleanlyWithAndWithoutRun) {
  { WorkerPool never_run(std::vector<int>(3, -1)); }
  std::atomic<int> ran{0};
  {
    WorkerPool ran_once(std::vector<int>(3, -1));
    ran_once.Run([&](int) { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 3);
}

TEST(WorkerPoolTest, PinsEachWorkerToItsCpuOnly) {
  cpu_set_t allowed;
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(allowed), &allowed),
            0);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE && cpus.size() < 2; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  cpus.push_back(-1);  // stays unpinned
  WorkerPool pool(cpus);
  std::vector<cpu_set_t> masks(cpus.size());
  pool.Run([&](int w) {
    pthread_getaffinity_np(pthread_self(), sizeof(masks[w]), &masks[w]);
  });
  for (size_t w = 0; w + 1 < cpus.size(); ++w) {
    EXPECT_EQ(CPU_COUNT(&masks[w]), 1) << "worker " << w;
    EXPECT_TRUE(CPU_ISSET(cpus[w], &masks[w])) << "worker " << w;
  }
  EXPECT_TRUE(CPU_EQUAL(&masks.back(), &allowed));
}

TEST(WorkerPoolTest, ConstructorReturnsWithEveryWorkerNamedAndPinned) {
  cpu_set_t allowed;
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(allowed), &allowed),
            0);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE && cpus.size() < 4; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  WorkerPool pool(cpus);
  // No Run yet: every worker must already carry its name and sit on its
  // CPU (the "processor" field, 39th of /proc/<tid>/stat).
  std::map<std::string, int> cpu_of;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    std::getline(comm, name);
    if (name.rfind("dw-worker-", 0) != 0) continue;
    std::ifstream stat(task.path() / "stat");
    std::string line;
    std::getline(stat, line);
    std::istringstream fields(line.substr(line.rfind(')') + 2));
    std::string field;
    for (int f = 3; f <= 39; ++f) fields >> field;
    cpu_of[name] = std::stoi(field);
  }
  ASSERT_EQ(cpu_of.size(), cpus.size());
  for (size_t w = 0; w < cpus.size(); ++w) {
    const auto it = cpu_of.find("dw-worker-" + std::to_string(w));
    ASSERT_NE(it, cpu_of.end()) << "worker " << w;
    EXPECT_EQ(it->second, cpus[w]) << "worker " << w;
  }
}

double ProcessCpuSeconds() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

TEST(WorkerPoolTest, IdleWorkersParkInsteadOfSpinning) {
  WorkerPool pool(std::vector<int>(4, -1));
  pool.Run([](int) {});  // the workers now wait for the next phase
  const double before = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // Four workers that never park would burn up to 0.8 CPU-s here; these
  // poll for at most 5 ms each first.
  EXPECT_LT(ProcessCpuSeconds() - before, 0.05);
}

TEST(PeriodicLoopTest, TicksAtItsPeriod) {
  // The period counts from the end of the previous tick, so ten ticks
  // take at least ten periods however the host schedules the thread.
  constexpr auto kPeriod = std::chrono::milliseconds(5);
  constexpr int kTicks = 10;
  std::mutex mu;
  std::condition_variable cv;
  int ticks = 0;
  PeriodicLoop loop(
      "dw-test-loop", [&] { return kPeriod; },
      [&] {
        std::lock_guard<std::mutex> lk(mu);
        ++ticks;
        cv.notify_all();
      });
  const auto start = std::chrono::steady_clock::now();
  loop.Start();
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(10),
                            [&] { return ticks >= kTicks; }));
  }
  EXPECT_GE(std::chrono::steady_clock::now() - start, kTicks * kPeriod);
  EXPECT_TRUE(loop.Stop());
}

TEST(PeriodicLoopTest, WakesNeverPostponeATick) {
  // Waking every 2 ms re-derives a 20 ms period ten times per period, but
  // the period still counts from the last tick. A wait restarted on every
  // wake would never tick here.
  std::atomic<int> periods{0};
  std::atomic<int> ticks{0};
  PeriodicLoop loop(
      "dw-test-loop",
      [&] {
        ++periods;
        return std::chrono::milliseconds(20);
      },
      [&] { ++ticks; });
  loop.Start();
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < end) {
    loop.Wake();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(loop.Stop());
  EXPECT_GE(ticks.load(), 5);
  EXPECT_GT(periods.load(), ticks.load() + 1);  // the wakes re-derived it
}

TEST(PeriodicLoopTest, ConcurrentStopsJoinExactlyOnce) {
  for (int i = 0; i < 200; ++i) {
    PeriodicLoop loop(
        "dw-test-loop", [] { return std::chrono::seconds(10); }, [] {});
    loop.Start();
    std::atomic<bool> go{false};
    std::atomic<int> joined{0};
    const auto stop = [&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (loop.Stop()) ++joined;
    };
    std::thread a(stop);
    std::thread b(stop);
    go.store(true, std::memory_order_release);
    a.join();
    b.join();
    ASSERT_EQ(joined.load(), 1) << "iteration " << i;
    EXPECT_FALSE(loop.Stop());
  }
}

TEST(PeriodicLoopTest, StopBeforeStartRunsNoTick) {
  std::atomic<int> ticks{0};
  PeriodicLoop loop(
      "dw-test-loop", [] { return std::chrono::milliseconds(1); },
      [&] { ++ticks; });
  EXPECT_FALSE(loop.Stop());
  loop.Start();  // already stopped: starts no thread
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(loop.Stop());
  EXPECT_EQ(ticks.load(), 0);
}

TEST(PeriodicLoopDeathTest, SecondStartDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        PeriodicLoop loop(
            "dw-test-loop", [] { return std::chrono::seconds(10); }, [] {});
        loop.Start();
        loop.Start();
      },
      "dw-test-loop started twice");
}

TEST(SpinLockTest, MutualExclusion) {
  SpinLock mu;
  int64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard<SpinLock> g(mu);
        ++counter;
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(counter, int64_t{kThreads} * kIters);
}

TEST(TableTest, RendersAlignedCells) {
  Table t("demo");
  t.SetHeader({"a", "long-header"});
  t.AddRow({"1", "2"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("| 1"), std::string::npos);
}

TEST(TableTest, NumFormatsDigits) {
  EXPECT_EQ(Table::Num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::Num(10.0, 0), "10");
}

TEST(TableTest, TimeOrMarksTimeouts) {
  EXPECT_EQ(Table::TimeOr(500.0, 300.0), "> 300.0");
  EXPECT_EQ(Table::TimeOr(1.5, 300.0), "1.50");
}

TEST(ThreadUtilTest, PinAndUnpin) {
  EXPECT_GT(NumOnlineCpus(), 0);
  EXPECT_TRUE(PinCurrentThreadToCpu(0).ok());
  // Pinning to a virtual core beyond the host wraps around.
  EXPECT_TRUE(PinCurrentThreadToCpu(1000).ok());
  EXPECT_TRUE(UnpinCurrentThread().ok());
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(t.Seconds(), 0.009);
  t.Reset();
  EXPECT_LT(t.Seconds(), 0.009);
}

TEST(LoggingTest, LevelGate) {
  const LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  DW_LOG(Info) << "suppressed";
  SetLogLevel(old);
}

TEST(RoundUpTest, Rounds) {
  EXPECT_EQ(RoundUp(1, 64), 64u);
  EXPECT_EQ(RoundUp(64, 64), 64u);
  EXPECT_EQ(RoundUp(65, 64), 128u);
}

TEST(JsonWriterTest, NestedObjectsAndArrays) {
  JsonWriter j;
  j.BeginObject();
  j.Field("name", "bench");
  j.Field("count", 3);
  j.Field("rate", 1.5);
  j.Field("ok", true);
  j.Key("items").BeginArray();
  j.Number(1).Number(2.5).String("x").Bool(false).Null();
  j.BeginObject().Field("k", "v").EndObject();
  j.EndArray();
  j.Key("empty").BeginObject().EndObject();
  j.EndObject();
  EXPECT_EQ(j.str(),
            "{\"name\":\"bench\",\"count\":3,\"rate\":1.5,\"ok\":true,"
            "\"items\":[1,2.5,\"x\",false,null,{\"k\":\"v\"}],"
            "\"empty\":{}}");
}

TEST(JsonWriterTest, EscapesStringsAndHandlesNonFinite) {
  JsonWriter j;
  j.BeginObject();
  j.Field("quote\"back\\slash", "line\nbreak\ttab");
  j.Field("inf", std::numeric_limits<double>::infinity());
  j.Field("nan", std::nan(""));
  j.EndObject();
  EXPECT_EQ(j.str(),
            "{\"quote\\\"back\\\\slash\":\"line\\nbreak\\ttab\","
            "\"inf\":null,\"nan\":null}");
}

TEST(JsonWriterTest, TopLevelArrayOfNumbers) {
  JsonWriter j;
  j.BeginArray();
  j.Number(static_cast<uint64_t>(18446744073709551615ull));
  j.Number(static_cast<int64_t>(-42));
  j.EndArray();
  EXPECT_EQ(j.str(), "[18446744073709551615,-42]");
}

}  // namespace
}  // namespace dw
