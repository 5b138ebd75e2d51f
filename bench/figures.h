// The paper's figures as data: each function computes one figure's cells at
// a dataset scale (1.0 = the bench defaults) and checks the paper's claims
// on them. bench_figures prints both; claims_test asserts the claims. Times
// are host wall clock or memory-model seconds for the named virtual
// topology, per the substitution in src/numa/topology.h.
#pragma once

#include <deque>
#include <string>
#include <vector>

namespace dw::bench {

/// Renders one cell. A cell is a number; +inf marks a target not reached.
using CellFormat = std::string (*)(double);

struct Column {
  std::string header;
  CellFormat format;
};

/// One printed table: label columns, then numeric columns.
struct Panel {
  struct Row {
    std::vector<std::string> labels;
    std::vector<double> cells;
  };
  std::string title;
  std::vector<std::string> label_headers;
  std::vector<Column> columns;
  std::vector<Row> rows;

  void Add(std::vector<std::string> labels, std::vector<double> cells) {
    rows.push_back({std::move(labels), std::move(cells)});
  }
};

/// Whether claims_test asserts a claim.
enum class Gate {
  kAsserted,   ///< claims_test fails when the claim does not hold
  kWallClock,  ///< reads host wall-clock cells: printed, never asserted
  kDeviation,  ///< known not to hold in this reproduction; `cause` says why
};

/// One statement of the paper, checked on a figure's cells.
struct Claim {
  std::string text;
  std::string paper;     ///< the paper's value
  std::string measured;  ///< the reproduced value, read from the cells
  bool holds = false;
  Gate gate = Gate::kAsserted;
  std::string cause;  ///< why a kDeviation claim misses
};

struct Figure {
  std::deque<Panel> panels;  // a deque keeps AddPanel's references valid
  std::vector<Claim> claims;

  Panel& AddPanel(std::string title, std::vector<std::string> label_headers,
                  std::vector<Column> columns) {
    panels.push_back(
        {std::move(title), std::move(label_headers), std::move(columns), {}});
    return panels.back();
  }
  void AddClaim(std::string text, std::string paper, std::string measured,
                bool holds, Gate gate = Gate::kAsserted,
                std::string cause = "") {
    claims.push_back({std::move(text), std::move(paper), std::move(measured),
                      holds, gate, std::move(cause)});
  }
};

Figure Fig03Machines(double scale);
Figure Fig06CostModel(double scale);
Figure Fig07AccessMethods(double scale);
Figure Fig08ModelReplication(double scale);
Figure Fig09DataReplication(double scale);
Figure Fig11EndToEnd(double scale);
Figure Fig12Tradeoffs(double scale);
Figure Fig13Throughput(double scale);
Figure Fig14OptimizerPlans(double scale);
Figure Fig15ArchAccessRatio(double scale);
Figure Fig16ReplicationArch(double scale);
Figure Fig17GibbsNn(double scale);
Figure Fig20Speedup(double scale);
Figure Fig21Scalability(double scale);
Figure Fig22Importance(double scale);
Figure AlphaEstimation(double scale);
Figure AppendixStorage(double scale);

}  // namespace dw::bench
