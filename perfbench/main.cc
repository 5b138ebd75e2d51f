// The benchmark runner: one workload per invocation.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--trace-out <file>]
//
// Prints one line per metric (name, value, unit), the host fingerprint,
// and finally `RESULT <json>` with every measured metric, which
// perfbench/run.py turns into the benchmark's result line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "kernels/dispatch.h"

#ifndef DW_PERFBENCH_BUILD_TYPE
#define DW_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (args.workload.empty()) return Usage("--workload is required");
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");

  const int planned = perfbench::PlannedServeThreads(args.workload);
  if (planned < 0) return Usage(("unknown workload " + args.workload).c_str());
  const int cpus = perfbench::UsableCpus();
  if (planned > cpus) {
    std::fprintf(stderr,
                 "perfbench_runner: %s runs %d threads but only %d CPUs are "
                 "usable; its timings would measure oversubscription\n",
                 args.workload.c_str(), planned, cpus);
    return 4;
  }

  perfbench::Report report;
  report.info["workload"] = args.workload;
  report.info["seed"] = std::to_string(args.seed);
  report.info["nproc"] = std::to_string(cpus);
  report.info["threads"] = std::to_string(planned);
  report.info["kernel_level"] =
      dw::kernels::ToString(dw::kernels::ActiveKernelLevel());
  report.info["build_type"] = DW_PERFBENCH_BUILD_TYPE;
  perfbench::RunServeWorkload(args, &report);

  report.Set("harness.fail_frac",
             static_cast<double>(report.failed) /
                 static_cast<double>(report.attempted > 0 ? report.attempted
                                                          : 1),
             "ratio");
  for (auto& [name, m] : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.Fail(name + " is not finite");
      m.value = -1.0;
    }
    std::printf("%-36s %18.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [key, value] : report.info) {
    std::printf("info %-31s %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& p : report.problems) {
    std::printf("problem %s\n", p.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  json += "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : report.info) {
    json += (first ? "" : ", ") + JsonString(key) + ": " + JsonString(value);
    first = false;
  }
  json += "}, \"problems\": [";
  first = true;
  for (const std::string& p : report.problems) {
    json += (first ? "" : ", ") + JsonString(p);
    first = false;
  }
  json += "]}";
  std::printf("RESULT %s\n", json.c_str());
  return 0;
}
