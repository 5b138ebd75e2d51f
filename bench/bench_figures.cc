// Prints the paper's figures: each figure's cells as tables, then the
// verdict of every claim the paper makes about them.
//
//   bench_figures --fig N|all
//
// N is a figure number, `alpha` (Sec. 3.2's alpha microbenchmark) or
// `appendix` (Appendix A). DW_BENCH_SCALE scales every dataset (default
// 1.0). Exits non-zero only on bad usage: claims_test asserts the claims.
#include <cstdio>
#include <cstring>
#include <utility>

#include "bench/bench_common.h"
#include "bench/figures.h"

namespace dw::bench {
namespace {

constexpr std::pair<const char*, Figure (*)(double)> kFigures[] = {
    {"3", Fig03Machines},         {"6", Fig06CostModel},
    {"7", Fig07AccessMethods},    {"8", Fig08ModelReplication},
    {"9", Fig09DataReplication},  {"11", Fig11EndToEnd},
    {"12", Fig12Tradeoffs},       {"13", Fig13Throughput},
    {"14", Fig14OptimizerPlans},  {"15", Fig15ArchAccessRatio},
    {"16", Fig16ReplicationArch}, {"17", Fig17GibbsNn},
    {"20", Fig20Speedup},         {"21", Fig21Scalability},
    {"22", Fig22Importance},      {"alpha", AlphaEstimation},
    {"appendix", AppendixStorage},
};

const char* Verdict(const Claim& c) {
  switch (c.gate) {
    case Gate::kAsserted:
      return c.holds ? "holds" : "FAILS";
    case Gate::kWallClock:
      return c.holds ? "holds (wall clock, not asserted)"
                     : "does not hold (wall clock, not asserted)";
    case Gate::kDeviation:
      return c.holds ? "holds (listed as a known deviation)"
                     : "known deviation";
  }
  return "?";
}

void Print(const Figure& fig) {
  for (const Panel& p : fig.panels) {
    Table t(p.title);
    std::vector<std::string> header = p.label_headers;
    for (const Column& c : p.columns) header.push_back(c.header);
    t.SetHeader(header);
    for (const Panel::Row& r : p.rows) {
      std::vector<std::string> cells = r.labels;
      for (size_t i = 0; i < r.cells.size(); ++i) {
        cells.push_back(p.columns[i].format(r.cells[i]));
      }
      t.AddRow(cells);
    }
    t.Print();
  }
  for (const Claim& c : fig.claims) {
    std::printf("\nClaim: %s\n  paper: %s; here: %s -- %s\n", c.text.c_str(),
                c.paper.c_str(), c.measured.c_str(), Verdict(c));
    if (c.gate == Gate::kDeviation) std::printf("  cause: %s\n", c.cause.c_str());
  }
  std::fflush(stdout);
}

}  // namespace
}  // namespace dw::bench

int main(int argc, char** argv) {
  using namespace dw::bench;
  const char* fig = argc == 3 && std::strcmp(argv[1], "--fig") == 0
                        ? argv[2]
                        : "";
  bool found = false;
  for (const auto& [name, run] : kFigures) {
    if (std::strcmp(fig, "all") == 0 || std::strcmp(fig, name) == 0) {
      found = true;
      Print(run(EnvDouble("DW_BENCH_SCALE", 1.0)));
    }
  }
  if (!found) {
    std::fprintf(stderr, "usage: %s --fig N|all, N one of:", argv[0]);
    for (const auto& entry : kFigures) std::fprintf(stderr, " %s", entry.first);
    std::fprintf(stderr, "\n");
    return 2;
  }
  return 0;
}
