#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "numa/bandwidth_probe.h"

namespace perfbench {

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

// --------------------------------------------------------------- tracing --

namespace {

constexpr size_t kRawSpansPerThread = 50000;
constexpr size_t kDurationsPerName = 1 << 22;

struct ThreadTrace {
  struct Open {
    int32_t index;       ///< into raw, or -1 once raw is full
    const char* name;
    int64_t start_ns;
    int64_t child_ns = 0;
  };
  std::vector<Tracer::Record> raw;
  std::vector<Open> stack;
  /// Keyed by the span's name literal (no string building per span).
  std::unordered_map<const char*, Tracer::Aggregate> aggs;
  int thread_id = 0;
};

std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadTrace>> g_threads;  // guarded by g_threads_mu

ThreadTrace* Local() {
  thread_local ThreadTrace* mine = nullptr;
  if (mine == nullptr) {
    auto t = std::make_unique<ThreadTrace>();
    t->raw.reserve(kRawSpansPerThread);
    std::lock_guard<std::mutex> lock(g_threads_mu);
    t->thread_id = static_cast<int>(g_threads.size());
    mine = t.get();
    g_threads.push_back(std::move(t));
  }
  return mine;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

Tracer::Span::Span(const char* name, int64_t req) : on_(enabled()) {
  if (!on_) return;
  ThreadTrace* t = Local();
  const int32_t parent = t->stack.empty() ? -1 : t->stack.back().index;
  int32_t index = -1;
  const int64_t start = NowNs();
  if (t->raw.size() < kRawSpansPerThread) {
    index = static_cast<int32_t>(t->raw.size());
    t->raw.push_back(Record{name, start, 0, parent, req});
  }
  t->stack.push_back(ThreadTrace::Open{index, name, start});
}

Tracer::Span::~Span() {
  if (!on_) return;
  const int64_t end = NowNs();
  ThreadTrace* t = Local();
  const ThreadTrace::Open open = t->stack.back();
  t->stack.pop_back();
  if (open.index >= 0) t->raw[open.index].end_ns = end;
  const int64_t dur = end - open.start_ns;
  if (!t->stack.empty()) t->stack.back().child_ns += dur;
  Aggregate& a = t->aggs[open.name];
  a.self_s += (dur - open.child_ns) * 1e-9;
  if (a.durations_us.size() < kDurationsPerName) {
    a.durations_us.push_back(static_cast<float>(dur * 1e-3));
  }
}

std::map<std::string, Tracer::Aggregate> Tracer::Aggregates() {
  std::map<std::string, Aggregate> out;
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& t : g_threads) {
    for (const auto& [name, a] : t->aggs) {
      Aggregate& m = out[name];
      m.self_s += a.self_s;
      m.durations_us.insert(m.durations_us.end(), a.durations_us.begin(),
                            a.durations_us.end());
    }
  }
  return out;
}

bool Tracer::WriteRaw(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& t : g_threads) {
    for (const Record& r : t->raw) {
      out << "{\"thread\":" << t->thread_id << ",\"name\":\"" << r.name
          << "\",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
          << ",\"parent\":" << r.parent << ",\"req\":" << r.req << "}\n";
    }
  }
  return static_cast<bool>(out);
}

std::map<std::string, double> SelfSecondsByModule(
    const std::map<std::string, Tracer::Aggregate>& aggs) {
  std::map<std::string, double> out;
  for (const auto& [name, a] : aggs) {
    out[name.substr(0, name.find('.'))] += a.self_s;
  }
  return out;
}

double SpanPercentileUs(const std::map<std::string, Tracer::Aggregate>& aggs,
                        const std::string& name, double p) {
  const auto it = aggs.find(name);
  if (it == aggs.end()) return 0.0;
  return Percentile(std::vector<double>(it->second.durations_us.begin(),
                                        it->second.durations_us.end()),
                    p);
}

void ReportTrace(const Args& args, double untraced, double traced,
                 Report* report) {
  const auto aggs = Tracer::Aggregates();
  for (const auto& [module, self_s] : SelfSecondsByModule(aggs)) {
    report->Set(module + ".self_s", self_s, "s");
  }
  report->Set("obs.trace_overhead_frac",
              untraced > 0.0 ? traced / untraced - 1.0 : 0.0, "ratio");
  if (!args.trace_out.empty() && !Tracer::WriteRaw(args.trace_out)) {
    report->info["trace_out"] = "could not write " + args.trace_out;
  } else if (!args.trace_out.empty()) {
    report->info["trace_out"] = args.trace_out;
  }
}

double MeasurePeakGbps(Report* report) {
  Tracer::Span span("numa.MeasureBandwidth");
  // 3 arrays of 2^21 doubles = 48 MB: well past the last-level cache.
  const dw::numa::BandwidthResult bw =
      dw::numa::MeasureBandwidth(UsableCpus(), size_t{1} << 21, 3);
  report->Set("numa.peak_gbps", bw.triad_gbps, "GB/s");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", bw.triad_gbps);
  report->info["peak_gbps"] = buf;
  return bw.triad_gbps;
}

}  // namespace perfbench
