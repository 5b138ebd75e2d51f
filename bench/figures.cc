#include "bench/figures.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>

#include "baselines/baselines.h"
#include "baselines/parallel_sum.h"
#include "bench/bench_common.h"
#include "data/transforms.h"
#include "engine/grid_search.h"
#include "factor/gibbs.h"
#include "matrix/dense_matrix.h"
#include "models/glm.h"
#include "models/graph_opt.h"
#include "nn/trainer.h"
#include "numa/bandwidth_probe.h"
#include "opt/cost_model.h"
#include "opt/optimizer.h"
#include "util/rng.h"
#include "util/thread_util.h"
#include "util/timer.h"

namespace dw::bench {
namespace {

using engine::RunResult;
using AM = engine::AccessMethod;
using DR = engine::DataReplication;
using MR = engine::ModelReplication;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::string Int(double v) {
  return std::isinf(v) ? "timeout" : std::to_string(std::llround(v));
}

template <int kDigits>
std::string Fixed(double v) {
  if (std::isnan(v)) return "n/a";
  return std::isinf(v) ? "timeout" : Table::Num(v, kDigits);
}

std::string Times(double v) {
  return std::isfinite(v) ? Table::Num(v, 2) + "x" : "n/a";
}

/// A plan choice (an engine enum) stored as a cell, printed by name.
template <typename Enum>
std::string Name(double v) {
  return engine::ToString(static_cast<Enum>(std::lround(v)));
}
template <typename Enum>
double EnumCell(Enum e) {
  return static_cast<int>(e);
}

// Dense-vs-sparse winner: the cell is sparse s / dense s.
std::string Winner(double v) {
  return v > 1.0 ? "Dense " + Times(v) : "Sparse " + Times(1.0 / v);
}

// Fig. 11 marks a target missed within the wall-clock limit as the paper
// does, "> limit".
constexpr double kFig11TimeoutSec = 20.0;
std::string WallOrTimeout(double v) {
  return Table::TimeOr(std::isinf(v) ? kFig11TimeoutSec : v,
                       kFig11TimeoutSec);
}

/// Columns of one format, e.g. {"100%", "50%", ...}.
std::vector<Column> Cols(CellFormat format, std::vector<std::string> headers) {
  std::vector<Column> cols;
  for (std::string& h : headers) cols.push_back({std::move(h), format});
  return cols;
}

// Paper shapes at CI-friendly size; scale 1.0 is the bench default.
data::Dataset Reuters(double s) { return data::Reuters(0.25 * s); }
data::Dataset Rcv1(double s) { return data::Rcv1(0.004 * s); }
data::Dataset Music(double s) { return data::Music(0.01 * s); }
data::Dataset MusicBin(double s) { return data::WithBinaryLabels(Music(s)); }
data::Dataset Forest(double s) { return data::Forest(0.01 * s); }
data::Dataset AmazonLp(double s) { return data::AmazonLp(0.01 * s); }
data::Dataset GoogleLp(double s) { return data::GoogleLp(0.005 * s); }
data::Dataset AmazonQp(double s) { return data::AmazonQp(0.008 * s); }
data::Dataset GoogleQp(double s) { return data::GoogleQp(0.004 * s); }

struct Specs {
  models::SvmSpec svm;
  models::LogisticSpec lr;
  models::LeastSquaresSpec ls;
  models::LpSpec lp;
  models::QpSpec qp;
};

RunResult RunEngine(const data::Dataset& d, const models::ModelSpec& spec,
                    const engine::EngineOptions& options, int max_epochs) {
  engine::Engine eng(&d, &spec, options);
  const Status st = eng.Init();
  DW_CHECK(st.ok()) << st.ToString();
  engine::RunConfig cfg;
  cfg.max_epochs = max_epochs;
  return eng.Run(cfg);
}

double SimPerEpoch(const RunResult& rr) {
  return rr.TotalSimSec() / rr.epochs.size();
}
double WallPerEpoch(const RunResult& rr) {
  return rr.TotalWallSec() / rr.epochs.size();
}

/// Reference "optimal loss" (paper Sec. 4.1: lowest loss over a long run),
/// cached per (spec, dataset, run) within the process. Runs both a
/// row-wise (SGD) and a column (coordinate-descent) reference and keeps the
/// lower loss: SGD is the robust reference for the nonsmooth GLMs, while
/// exact coordinate minimization is far stronger for LP/QP. SVM skips the
/// column reference: on every bench dataset it ended above SGD's on the
/// nonsmooth hinge loss, and it costs seconds per figure.
double OptimalLoss(const data::Dataset& d, const models::ModelSpec& spec,
                   int epochs = 120, double step = 0.1) {
  static std::map<std::string, double> cache;
  const std::string key = spec.name() + "/" + d.name + "/" +
                          std::to_string(d.a.rows()) + "/" +
                          std::to_string(epochs) + "/" + std::to_string(step);
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  double opt = kInf;
  if (spec.HasRow()) {
    opt = engine::ReferenceOptimalLoss(d, spec, AM::kRowWise, epochs, step);
  }
  const bool svm = dynamic_cast<const models::SvmSpec*>(&spec) != nullptr;
  if ((spec.HasCtr() || spec.HasCol()) && !svm) {
    const AM col = spec.HasCtr() ? AM::kColToRow : AM::kColWise;
    opt = std::min(opt,
                   engine::ReferenceOptimalLoss(d, spec, col, epochs, step));
  }
  return cache[key] = opt;
}

/// The paper's loss threshold, "within `percent` of the optimal loss".
double Target(double optimal, double percent) {
  return RunResult::TargetLoss(optimal, percent / 100.0);
}

/// Epochs until the loss is within `percent` of `optimal`; +inf if never.
double EpochsTo(const RunResult& rr, double optimal, double percent) {
  const int e = rr.EpochsToLoss(Target(optimal, percent));
  return e < 0 ? kInf : e;
}

/// Simulated seconds until the loss is within `percent` of `optimal`.
double SimTo(const RunResult& rr, double optimal, double percent) {
  return rr.SimSecToLoss(Target(optimal, percent));
}

/// One cell per threshold, e.g. epochs or sim seconds to each percent.
std::vector<double> ToEach(double (*to)(const RunResult&, double, double),
                           const RunResult& rr, double optimal,
                           const std::vector<double>& percents) {
  std::vector<double> cells;
  for (double p : percents) cells.push_back(to(rr, optimal, p));
  return cells;
}

std::vector<std::string> PercentHeaders(const std::vector<double>& percents) {
  std::vector<std::string> headers;
  for (double p : percents) headers.push_back(Int(p) + "%");
  return headers;
}

/// a / b, or NaN ("n/a") when either side missed its target.
double Ratio(double a, double b) {
  return std::isfinite(a) && std::isfinite(b) && b > 0 ? a / b : kNaN;
}

/// The paper's protocol (Sec. 4.2): "for each system, we grid search their
/// statistical parameters including step size ... we always report the
/// best configuration".
RunResult RunBestStep(const data::Dataset& d, const models::ModelSpec& spec,
                      engine::EngineOptions options, int max_epochs,
                      double optimal_loss,
                      const std::vector<double>& steps = {0.3, 0.1, 0.03,
                                                          0.01}) {
  return engine::GridSearchStepSize(d, spec, std::move(options), max_epochs,
                                    optimal_loss, steps)
      .best_run;
}

std::string CoresBySockets(const numa::Topology& t) {
  return std::to_string(t.cores_per_node) + "x" +
         std::to_string(t.num_nodes);
}

std::string Joined(const std::vector<double>& v, int digits) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i ? " : " : "") + Table::Num(v[i], digits);
  }
  return out;
}

std::string OutOf(int k, size_t n) {
  return std::to_string(k) + "/" + std::to_string(n);
}

/// True when every value in `by_sockets` rises with the socket count.
bool RisesWithSockets(const std::vector<std::pair<int, double>>& by_sockets) {
  for (const auto& [fewer, lo] : by_sockets) {
    for (const auto& [more, hi] : by_sockets) {
      if (fewer < more && !(lo < hi)) return false;
    }
  }
  return true;
}

}  // namespace

// The paper measured local2's bandwidth with STREAM too (Bergstrom [9]).
Figure Fig03Machines(double) {
  Figure fig;
  Panel& m = fig.AddPanel(
      "Figure 3: machines (virtual topologies + cost-model constants)",
      {"Name", "abbrv"},
      {{"#Node", Int}, {"#Cores/Node", Int}, {"RAM/Node(GB)", Fixed<0>},
       {"Clock(GHz)", Fixed<1>}, {"LLC(MB)", Fixed<0>}, {"alpha", Fixed<1>},
       {"DRAM GB/s/node", Fixed<0>}, {"QPI GB/s", Fixed<1>}});
  for (const numa::Topology& t : numa::PaperMachines()) {
    m.Add({t.name, t.abbrev},
          {static_cast<double>(t.num_nodes),
           static_cast<double>(t.cores_per_node), t.ram_per_node_gb,
           t.cpu_ghz, t.llc_mb, t.alpha, t.dram_gbps_per_node, t.qpi_gbps});
  }
  Panel& stream =
      fig.AddPanel("STREAM bandwidth measured on this host (GB/s)",
                   {"Threads"}, Cols(Fixed<2>, {"Copy", "Scale", "Add", "Triad"}));
  for (int threads = 1; threads <= NumOnlineCpus(); threads *= 2) {
    const numa::BandwidthResult r = numa::MeasureBandwidth(threads, 1 << 22, 3);
    stream.Add({std::to_string(threads)},
               {r.copy_gbps, r.scale_gbps, r.add_gbps, r.triad_gbps});
  }
  const numa::Topology l2 = numa::Local2();
  fig.AddClaim("local2's memory model carries the paper's measured bandwidths",
               "~6 GB/s per worker to local RAM, ~11 GB/s over QPI",
               Table::Num(l2.stream_gbps_per_core, 1) + " GB/s per worker, " +
                   Table::Num(l2.qpi_gbps, 1) + " GB/s QPI",
               std::abs(l2.stream_gbps_per_core - 6.0) < 0.5 &&
                   std::abs(l2.qpi_gbps - 11.0) < 0.5);
  return fig;
}

Figure Fig06CostModel(double scale) {
  Specs m;
  const std::pair<data::Dataset, const models::ModelSpec*> rows[] = {
      {Reuters(scale), &m.svm},  {Rcv1(scale), &m.svm},
      {Music(scale), &m.svm},    {Forest(scale), &m.svm},
      {AmazonLp(scale), &m.lp},  {GoogleLp(scale), &m.lp},
      {AmazonQp(scale), &m.qp},  {GoogleQp(scale), &m.qp}};
  const double alpha = opt::AlphaForTopology(numa::Local2());
  Figure fig;
  Panel& t = fig.AddPanel(
      "Figure 6: per-epoch cost model (alpha = " + Table::Num(alpha, 1) +
          ", local2)",
      {"Model", "Dataset"},
      {{"sum n_i", Int}, {"sum n_i^2", Int}, {"d", Int},
       {"row reads", Fixed<0>}, {"row writes", Fixed<0>},
       {"col reads", Fixed<0>}, {"col writes", Fixed<0>},
       {"cost ratio", Fixed<3>}, {"chosen", Name<AM>}});
  int cheaper = 0, as_paper = 0;
  for (const auto& [d, spec] : rows) {
    const matrix::MatrixStats s = d.Stats();
    const auto rc = opt::EstimateAccessCost(s, AM::kRowWise,
                                            spec->RowWriteSparsity(), false);
    const auto cc = opt::EstimateAccessCost(
        s, spec->HasCtr() ? AM::kColToRow : AM::kColWise,
        spec->RowWriteSparsity(), spec->ColumnStepMaintainsAux());
    const AM chosen = opt::ChooseAccessMethod(s, *spec, alpha);
    t.Add({spec->name(), d.name},
          {static_cast<double>(s.sum_ni), static_cast<double>(s.sum_ni_sq),
           static_cast<double>(s.cols), rc.reads, rc.writes, cc.reads,
           cc.writes, opt::CostRatio(s, alpha), EnumCell(chosen)});
    const bool row = chosen == AM::kRowWise;
    cheaper += row == (rc.Total(alpha) <= cc.Total(alpha));
    as_paper += row == (spec == &m.svm);
  }
  fig.AddClaim(
      "The cost ordering decides the access method: each dataset runs the "
      "method with the lower reads + alpha * writes",
      "SVM row-wise; LP and QP column",
      OutOf(cheaper, 8) + " cheaper, " + OutOf(as_paper, 8) + " as the paper",
      cheaper == 8 && as_paper == 8);
  return fig;
}

Figure Fig07AccessMethods(double scale) {
  constexpr int kMaxEpochs = 60;
  const numa::Topology topo = numa::Local2();
  Specs m;
  const std::vector<double> svm_rows = {0.3, 0.1, 0.03, 0.01};
  const std::vector<double> svm_cols = {1.0, 0.5, 0.1};
  const std::vector<double> lp_steps = {0.1, 0.05, 0.01};
  struct Task {
    std::string label;
    data::Dataset dataset;
    const models::ModelSpec* spec;
    const std::vector<double>& row_steps;
    const std::vector<double>& col_steps;
  };
  const Task tasks[] = {
      {"SVM RCV1", Rcv1(scale), &m.svm, svm_rows, svm_cols},
      {"SVM Reuters", Reuters(scale), &m.svm, svm_rows, svm_cols},
      {"LP Amazon", AmazonLp(scale), &m.lp, lp_steps, lp_steps},
      {"LP Google", GoogleLp(scale), &m.lp, lp_steps, lp_steps}};
  Figure fig;
  Panel& a =
      fig.AddPanel("Figure 7(a): epochs to converge to 10% of optimal loss",
                   {"Task"}, Cols(Int, {"Column-wise", "Row-wise"}));
  double worst_gap = 1.0;
  for (const Task& task : tasks) {
    const double opt_loss = OptimalLoss(task.dataset, *task.spec);
    const double row = EpochsTo(
        RunBestStep(task.dataset, *task.spec,
                    MakeOptions(topo, AM::kRowWise, MR::kPerNode,
                                DR::kFullReplication),
                    kMaxEpochs, opt_loss, task.row_steps),
        opt_loss, 10);
    const double col = EpochsTo(
        RunBestStep(task.dataset, *task.spec,
                    MakeOptions(topo, AM::kColToRow, MR::kPerMachine,
                                DR::kSharding),
                    kMaxEpochs, opt_loss, task.col_steps),
        opt_loss, 10);
    a.Add({task.label}, {col, row});
    worst_gap = std::max(worst_gap, std::max(col, row) / std::min(col, row));
  }
  fig.AddClaim("Row-wise and column access need similar numbers of epochs (a)",
               "within ~50%", "worst gap " + Times(worst_gap),
               worst_gap <= 1.5, Gate::kDeviation,
               "at the bench's step grids, column-to-row SVM on RCV1 and "
               "row-wise SGD on LP stall short of 10% within 60 epochs");

  Panel& b = fig.AddPanel(
      "Figure 7(b): time/epoch vs cost ratio (Music, element subsampling;"
      " sim = local2 memory model; both methods PerMachine as in the"
      " paper's Sec. 3.2 setup)",
      {"keep frac"},
      {{"cost ratio", Fixed<3>}, {"row sim s/epoch", Fixed<6>},
       {"col sim s/epoch", Fixed<6>}, {"row wall s/epoch", Fixed<4>},
       {"col wall s/epoch", Fixed<4>}});
  const data::Dataset music = MusicBin(scale);
  // (cost ratio, row faster?) per keep fraction.
  std::vector<std::pair<double, bool>> winners;
  for (double keep : {0.02, 0.05, 0.1, 0.3, 0.6, 1.0}) {
    const data::Dataset sub =
        keep < 1.0 ? data::SubsampleElements(music, keep, 99) : music;
    const double ratio =
        opt::CostRatio(sub.Stats(), opt::AlphaForTopology(topo));
    const RunResult row = RunEngine(
        sub, m.svm,
        MakeOptions(topo, AM::kRowWise, MR::kPerMachine, DR::kSharding), 3);
    const RunResult col = RunEngine(
        sub, m.svm,
        MakeOptions(topo, AM::kColToRow, MR::kPerMachine, DR::kSharding), 3);
    b.Add({Table::Num(keep, 2)}, {ratio, SimPerEpoch(row), SimPerEpoch(col),
                                  WallPerEpoch(row), WallPerEpoch(col)});
    winners.push_back({ratio, SimPerEpoch(row) < SimPerEpoch(col)});
  }
  // Sorted by cost ratio, the row-wise wins must form the low end and the
  // column wins the high end, both present.
  std::sort(winners.begin(), winners.end());
  const auto first_col = std::find_if(
      winners.begin(), winners.end(), [](const auto& w) { return !w.second; });
  const bool crossover =
      first_col != winners.begin() && first_col != winners.end() &&
      std::none_of(first_col, winners.end(),
                   [](const auto& w) { return w.second; });
  fig.AddClaim(
      "Row-wise wins (sim s/epoch) at low cost ratio and column-wise as the "
      "ratio grows: one crossover that tracks the cost ratio (b)",
      "crossover",
      crossover ? "between cost ratio " +
                      Table::Num(std::prev(first_col)->first, 3) + " and " +
                      Table::Num(first_col->first, 3)
                : "no single crossover",
      crossover);
  return fig;
}

Figure Fig08ModelReplication(double scale) {
  constexpr int kMaxEpochs = 100;
  const numa::Topology topo = numa::Local2();
  const data::Dataset rcv1 = Rcv1(scale);
  const models::SvmSpec svm{};
  const double opt_loss = OptimalLoss(rcv1, svm, 200, 0.03);
  const MR strategies[] = {MR::kPerCore, MR::kPerNode, MR::kPerMachine};
  const std::vector<double> pcts = {100, 50, 10, 1};
  Figure fig;
  Panel& a = fig.AddPanel(
      "Figure 8(a): epochs to converge, SVM (RCV1), step grid-searched"
      " per strategy",
      {"Strategy"}, Cols(Int, PercentHeaders(pcts)));
  std::vector<std::vector<double>> epochs;
  for (MR mrep : strategies) {
    epochs.push_back(ToEach(
        EpochsTo,
        RunBestStep(rcv1, svm,
                    MakeOptions(topo, AM::kRowWise, mrep, DR::kSharding),
                    kMaxEpochs, opt_loss),
        opt_loss, pcts));
    a.Add({ToString(mrep)}, epochs.back());
  }

  // (b) is step-independent, so one short run per strategy suffices.
  Panel& b = fig.AddPanel("Figure 8(b): time per epoch, SVM (RCV1)",
                          {"Strategy"},
                          {{"sim s/epoch (local2)", Fixed<6>},
                           {"wall s/epoch (host)", Fixed<4>},
                           {"cross-node DRAM req/epoch", Int}});
  double sim[3], remote[3];
  for (int i = 0; i < 3; ++i) {
    engine::Engine eng(&rcv1, &svm,
                       MakeOptions(topo, AM::kRowWise, strategies[i],
                                   DR::kSharding, 0.03));
    DW_CHECK(eng.Init().ok());
    engine::RunConfig cfg;
    cfg.max_epochs = 4;
    const RunResult rr = eng.Run(cfg);
    sim[i] = SimPerEpoch(rr);
    remote[i] = static_cast<double>(
        eng.last_epoch_sim().traffic.Total().remote_dram_requests());
    b.Add({ToString(strategies[i])}, {sim[i], WallPerEpoch(rr), remote[i]});
  }
  fig.AddClaim("PerNode beats PerMachine in simulated s/epoch",
               "PerMachine/PerNode ~23x", Times(sim[2] / sim[1]),
               sim[2] > sim[1]);
  fig.AddClaim("PerCore is faster per epoch than PerNode",
               "PerCore/PerNode ~1/1.5", Times(sim[0] / sim[1]),
               sim[0] < sim[1], Gate::kDeviation,
               "the memory model prices no sharing within a socket");
  fig.AddClaim("PMU story (Sec. 4.2): PerNode makes fewer cross-node DRAM "
               "requests than PerMachine",
               "PerNode << PerMachine",
               Int(remote[1]) + " vs " + Int(remote[2]) + " per epoch",
               remote[1] < remote[2]);
  // Raced epoch counts to 10% moved by up to 4 across five runs (PerNode
  // 56-58, PerMachine 38-42), so PerMachine must lead by more than that.
  fig.AddClaim("PerMachine needs fewer epochs than PerNode (a); margin 5 "
               "epochs at 10%, raced counts move by up to 4",
               "PerMachine fewest epochs",
               "to 10%: " + Int(epochs[2][2]) + " vs " + Int(epochs[1][2]),
               epochs[2][2] + 5 <= epochs[1][2]);

  // Ablation: model-synchronization frequency (Sec. 3.3). Period 0 means
  // epoch-boundary-only averaging.
  Panel& c = fig.AddPanel(
      "Ablation: async averaging period, PerNode SVM (RCV1), step = 0.03",
      {"sync period (us)"}, {{"epochs to 50%", Int}, {"best loss", Fixed<4>}});
  for (int period : {0, 50, 200, 1000, 10000}) {
    engine::EngineOptions o = MakeOptions(topo, AM::kRowWise, MR::kPerNode,
                                          DR::kSharding, 0.03);
    o.sync_interval_us = period;
    const RunResult rr = RunEngine(rcv1, svm, o, kMaxEpochs / 2);
    c.Add({std::to_string(period)},
          {EpochsTo(rr, opt_loss, 50), rr.BestLoss()});
  }
  return fig;
}

Figure Fig09DataReplication(double scale) {
  constexpr int kMaxEpochs = 120;
  const data::Dataset reuters = Reuters(scale);
  const models::SvmSpec svm{};
  const double opt_loss = OptimalLoss(reuters, svm, 200);
  const DR dreps[] = {DR::kSharding, DR::kFullReplication};
  const std::vector<double> pcts = {100, 50, 10, 1};
  Figure fig;
  Panel& a = fig.AddPanel(
      "Figure 9(a): epochs to converge, SVM (Reuters), PerNode, local2",
      {"Strategy"}, Cols(Int, PercentHeaders(pcts)));
  std::vector<std::vector<double>> epochs;
  for (DR drep : dreps) {
    epochs.push_back(ToEach(
        EpochsTo,
        RunBestStep(reuters, svm,
                    MakeOptions(numa::Local2(), AM::kRowWise, MR::kPerNode,
                                drep),
                    kMaxEpochs, opt_loss),
        opt_loss, pcts));
    a.Add({ToString(drep)}, epochs.back());
  }

  Panel& b = fig.AddPanel(
      "Figure 9(b): sim time per epoch across machines, SVM (Reuters)",
      {"Machine"},
      {{"Sharding s/epoch", Fixed<6>}, {"FullReplication s/epoch", Fixed<6>},
       {"slowdown", Times}});
  std::vector<double> slowdowns;
  for (const numa::Topology& topo :
       {numa::Local2(), numa::Local4(), numa::Local8()}) {
    double per_epoch[2];
    for (int k = 0; k < 2; ++k) {
      per_epoch[k] = SimPerEpoch(RunEngine(
          reuters, svm,
          MakeOptions(topo, AM::kRowWise, MR::kPerNode, dreps[k], 0.05), 3));
    }
    slowdowns.push_back(Ratio(per_epoch[1], per_epoch[0]));
    b.Add({topo.name}, {per_epoch[0], per_epoch[1], slowdowns.back()});
  }
  fig.AddClaim("FullReplication pays per epoch: its sim s/epoch slowdown over "
               "Sharding exceeds 1 and grows with the node count (b)",
               "grows roughly with #nodes",
               "local2/4/8 " + Joined(slowdowns, 2),
               slowdowns[0] > 1.0 && slowdowns[0] < slowdowns[1] &&
                   slowdowns[1] < slowdowns[2]);
  // Raced epoch counts to 1% moved by up to 2 across five runs (Sharding
  // 23-25, FullReplication 12-13); FullReplication must lead by more.
  fig.AddClaim("FullReplication reaches tight losses in fewer epochs (a); "
               "margin 3 epochs at 1%, raced counts move by up to 2",
               "~10x fewer epochs near 1%",
               "to 1%: " + Int(epochs[1][3]) + " vs " + Int(epochs[0][3]),
               epochs[1][3] + 3 <= epochs[0][3]);
  return fig;
}

// Absolute wall-clock numbers reflect this host; the claim is the ordering.
Figure Fig11EndToEnd(double scale) {
  constexpr int kMaxEpochs = 60;
  Specs m;
  struct Task {
    std::string label;
    data::Dataset dataset;
    const models::ModelSpec* spec;
    double step;
  };
  std::vector<Task> tasks;
  for (const models::ModelSpec* spec :
       std::initializer_list<const models::ModelSpec*>{&m.svm, &m.lr,
                                                       &m.ls}) {
    // Least-squares SGD needs steps below 2/||a_i||^2; text rows carry
    // ~12-77 nonzeros, so its grid sits an order of magnitude lower.
    const bool ls = spec == &m.ls;
    const std::string& name = spec->name();
    tasks.push_back({name + " Reuters", Reuters(scale), spec, ls ? 0.01 : 0.1});
    tasks.push_back({name + " RCV1", Rcv1(scale), spec, ls ? 0.01 : 0.1});
    tasks.push_back({name + " Music", ls ? Music(scale) : MusicBin(scale),
                     spec, ls ? 0.005 : 0.02});
    tasks.push_back({name + " Forest", Forest(scale), spec, 0.02});
  }
  tasks.push_back({"LP Amazon", AmazonLp(scale), &m.lp, 0.05});
  tasks.push_back({"LP Google", GoogleLp(scale), &m.lp, 0.05});
  tasks.push_back({"QP Amazon", AmazonQp(scale), &m.qp, 0.3});
  tasks.push_back({"QP Google", GoogleQp(scale), &m.qp, 0.3});

  using Runner = RunResult (*)(const data::Dataset&, const models::ModelSpec&,
                               const baselines::BaselineOptions&);
  const Runner systems[] = {baselines::RunGraphLabStyle,
                            baselines::RunGraphChiStyle,
                            baselines::RunMLlibStyle, baselines::RunHogwild,
                            baselines::RunDimmWitted};
  const std::vector<Column> columns = Cols(
      WallOrTimeout, {"GraphLab", "GraphChi", "MLlib", "Hogwild!", "DW"});
  Figure fig;
  Panel& t1 = fig.AddPanel(
      "Figure 11: seconds to within 1% of optimal loss (host wall"
      " clock; '> T' = timeout)",
      {"Task"}, columns);
  Panel& t50 = fig.AddPanel(
      "Figure 11: seconds to within 50% of optimal loss", {"Task"}, columns);
  bool ordered = true;
  for (const Task& task : tasks) {
    const double opt_loss =
        OptimalLoss(task.dataset, *task.spec, 150, task.step);
    std::vector<double> best1, best50;
    for (Runner runner : systems) {
      // Paper protocol: grid-search the step size per system and report
      // the best configuration.
      double b1 = kInf, b50 = kInf;
      for (double step : {3.0 * task.step, task.step, task.step / 3.0}) {
        baselines::BaselineOptions o;
        o.topology = numa::Local2();
        // Wall-clock fidelity on this host: one worker per virtual node
        // (no CPU oversubscription). The virtual-topology sweeps that
        // need all 12 workers use simulated time instead (Figs. 8-16).
        o.workers_per_node = 1;
        o.max_epochs = kMaxEpochs;
        o.step_size = step;
        o.stop_loss = Target(opt_loss, 1.0);
        o.wall_timeout_sec = kFig11TimeoutSec;
        const RunResult rr = runner(task.dataset, *task.spec, o);
        b1 = std::min(b1, rr.WallSecToLoss(Target(opt_loss, 1.0)));
        b50 = std::min(b50, rr.WallSecToLoss(Target(opt_loss, 50.0)));
      }
      best1.push_back(b1 >= kFig11TimeoutSec ? kInf : b1);
      best50.push_back(b50 >= kFig11TimeoutSec ? kInf : b50);
    }
    t1.Add({task.label}, best1);
    t50.Add({task.label}, best50);
    // DW (column 4) at least ties every competitor, and strictly beats the
    // row-wise systems (MLlib 2, Hogwild! 3) on LP/QP and the column-wise
    // ones (GraphLab 0, GraphChi 1) on the GLMs.
    const bool graph = task.spec == &m.lp || task.spec == &m.qp;
    const int lag[] = {graph ? 2 : 0, graph ? 3 : 1};
    ordered &= best1[4] <= *std::min_element(best1.begin(), best1.end() - 1) &&
               best1[4] < best1[lag[0]] && best1[4] < best1[lag[1]];
  }
  fig.AddClaim(
      "DW at least ties the best competitor on every task; row-wise systems "
      "(Hogwild!/MLlib) lag on LP/QP, column-wise systems "
      "(GraphLab/GraphChi) on SVM/LR/LS (1%)",
      "this ordering", ordered ? "on every task" : "not on every task",
      ordered, Gate::kWallClock);
  return fig;
}

Figure Fig12Tradeoffs(double scale) {
  constexpr int kMaxEpochs = 80;
  const numa::Topology topo = numa::Local2();
  Specs m;
  struct Task {
    std::string label;
    data::Dataset dataset;
    const models::ModelSpec* spec;
    double row_step;
    double col_step;
  };
  const Task tasks[] = {
      {"SVM (RCV1)", Rcv1(scale), &m.svm, 0.1, 0.5},
      {"SVM (Music)", MusicBin(scale), &m.svm, 0.02, 0.2},
      {"LP (Amazon)", AmazonLp(scale), &m.lp, 0.05, 0.05},
      {"LP (Google)", GoogleLp(scale), &m.lp, 0.05, 0.05}};
  const std::vector<double> pcts = {1, 10, 50, 100};
  const std::vector<Column> columns = Cols(Fixed<5>, PercentHeaders(pcts));
  Figure fig;
  Panel& a = fig.AddPanel(
      "Figure 12(a): access methods -- sim seconds to reach p% of"
      " optimal loss (local2)",
      {"Task", "Method"}, columns);
  int converged_a = 0, dominates = 0;
  for (const Task& task : tasks) {
    const double opt_loss =
        OptimalLoss(task.dataset, *task.spec, 150, task.col_step);
    const std::vector<double> row = ToEach(
        SimTo,
        RunBestStep(task.dataset, *task.spec,
                    MakeOptions(topo, AM::kRowWise, MR::kPerNode,
                                DR::kFullReplication),
                    kMaxEpochs, opt_loss, {0.3, 0.1, 0.03, task.row_step}),
        opt_loss, pcts);
    const std::vector<double> col = ToEach(
        SimTo,
        RunBestStep(task.dataset, *task.spec,
                    MakeOptions(topo,
                                task.spec->HasCtr() ? AM::kColToRow
                                                    : AM::kColWise,
                                MR::kPerMachine, DR::kSharding),
                    kMaxEpochs, opt_loss, {0.5, 0.1, 0.05, task.col_step}),
        opt_loss, pcts);
    a.Add({task.label, "Row-wise"}, row);
    a.Add({task.label, "Column"}, col);
    converged_a += std::isfinite(row[3]) + std::isfinite(col[3]);
    // The paper's method (row-wise for SVM, column for LP) reaches 1%, and
    // sooner than the other.
    const auto& [fast, slow] = task.spec == &m.svm ? std::tie(row, col)
                                                   : std::tie(col, row);
    dominates += std::isfinite(fast[0]) && fast[0] < slow[0];
  }
  fig.AddClaim("Row-wise dominates for SVM and column access for LP: faster "
               "to 1% of the optimal loss (a)",
               "row-wise for SVM, column for LP",
               OutOf(dominates, 4) + " tasks", dominates == 4);
  fig.AddClaim("Every access-method cell converges (reaches 100% of the "
               "optimal loss) (a)",
               "every cell converges", OutOf(converged_a, 8) + " cells",
               converged_a == 8, Gate::kDeviation,
               "column access on SVM (Music) and row-wise SGD on LP stall "
               "short of 100% within 80 epochs at the bench's step grids");

  Panel& b = fig.AddPanel(
      "Figure 12(b): model replication -- sim seconds to reach p% of"
      " optimal loss (local2)",
      {"Task", "Strategy"}, columns);
  int converged_b = 0, paper_winner = 0;
  for (const Task& task : tasks) {
    const double opt_loss =
        OptimalLoss(task.dataset, *task.spec, 150, task.col_step);
    // The access method the optimizer picks (row-wise for the GLMs,
    // column-to-row for LP).
    const AM access = opt::ChoosePlan(task.dataset, *task.spec, topo).access;
    const double step =
        access == AM::kRowWise ? task.row_step : task.col_step;
    std::vector<double> at1;  // sim s to 1%: PerCore, PerNode, PerMachine
    for (MR mrep : {MR::kPerCore, MR::kPerNode, MR::kPerMachine}) {
      const std::vector<double> cells = ToEach(
          SimTo,
          RunBestStep(task.dataset, *task.spec,
                      MakeOptions(topo, access, mrep, DR::kSharding),
                      kMaxEpochs, opt_loss, {0.3, 0.1, 0.03, step}),
          opt_loss, pcts);
      b.Add({task.label, ToString(mrep)}, cells);
      converged_b += std::isfinite(cells[3]);
      at1.push_back(cells[0]);
    }
    // PerNode wins for the SGD tasks, PerMachine for LP.
    const size_t winner = task.spec == &m.svm ? 1 : 2;
    paper_winner += at1[winner] == *std::min_element(at1.begin(), at1.end());
  }
  fig.AddClaim("Every model-replication cell converges (reaches 100% of the "
               "optimal loss) (b)",
               "every cell converges", OutOf(converged_b, 12) + " cells",
               converged_b == 12, Gate::kDeviation,
               "holds at the bench default; at the claims scale (0.25: RCV1 "
               "2,000 rows, Music 1,500) PerCore and PerNode SVM need more "
               "than 80 epochs");
  fig.AddClaim("PerNode wins for the SGD tasks and PerMachine for LP at "
               "tight losses (1%) (b)",
               "as stated", OutOf(paper_winner, 4) + " tasks",
               paper_winner == 4, Gate::kDeviation,
               "PerCore and PerNode cost the same per epoch (no sharing "
               "within a socket in the model), and on LP PerMachine and "
               "PerNode finish within a few raced epochs of each other");
  return fig;
}

Figure Fig13Throughput(double scale) {
  Figure fig;
  std::vector<double> values(static_cast<size_t>(4e6 * scale));
  Rng rng(5);
  for (double& v : values) v = rng.Uniform();
  const int threads = std::max(2, NumOnlineCpus());
  Panel& sum = fig.AddPanel("Figure 13 (parallel sum): GB/s by system style",
                            {"System"}, Cols(Fixed<2>, {"GB/s", "vs DW"}));
  const std::pair<const char*, baselines::SumStrategy> styles[] = {
      {"DimmWitted", baselines::SumStrategy::kDimmWitted},
      {"Hogwild!", baselines::SumStrategy::kHogwild},
      {"GraphLab/GraphChi", baselines::SumStrategy::kGraphLabStyle},
      {"MLlib", baselines::SumStrategy::kMLlibStyle}};
  std::vector<double> sum_gbps;
  for (const auto& [name, strategy] : styles) {
    sum_gbps.push_back(
        baselines::RunParallelSum(values, threads, strategy).gb_per_sec);
    sum.Add({name}, {sum_gbps.back(), sum_gbps.back() / sum_gbps[0]});
  }

  Panel& t = fig.AddPanel(
      "Figure 13 (models): data GB/s per system (host measurement)",
      {"System"},
      Cols(Fixed<3>,
           {"SVM(RCV1)", "LR(RCV1)", "LS(RCV1)", "LP(Google)", "QP(Google)"}));
  Specs m;
  const data::Dataset rcv1 = Rcv1(scale);
  const data::Dataset google_lp = GoogleLp(scale);
  const data::Dataset google_qp = GoogleQp(scale);
  const std::pair<const data::Dataset*, const models::ModelSpec*> cells[] = {
      {&rcv1, &m.svm}, {&rcv1, &m.lr}, {&rcv1, &m.ls},
      {&google_lp, &m.lp}, {&google_qp, &m.qp}};
  using Runner = RunResult (*)(const data::Dataset&, const models::ModelSpec&,
                               const baselines::BaselineOptions&);
  const std::pair<const char*, Runner> systems[] = {
      {"GraphLab", &baselines::RunGraphLabStyle},
      {"GraphChi", &baselines::RunGraphChiStyle},
      {"MLlib", &baselines::RunMLlibStyle},
      {"Hogwild!", &baselines::RunHogwild},
      {"DimmWitted", &baselines::RunDimmWitted}};
  bool dw_top = true;  // DimmWitted is the last row
  std::vector<double> best(5, 0.0);
  for (const auto& [name, runner] : systems) {
    std::vector<double> row;
    for (const auto& [d, spec] : cells) {
      baselines::BaselineOptions o;
      o.topology = numa::Local2();
      o.max_epochs = 3;
      o.step_size = 0.05;
      const RunResult rr = runner(*d, *spec, o);
      // Bytes actually processed: engine runs report exact traffic (e.g.
      // FullReplication sweeps the data once per node); baselines without
      // counters default to one scan per epoch.
      double bytes = 0.0;
      for (const auto& rec : rr.epochs) {
        const uint64_t counted = rec.traffic.total_read_bytes();
        bytes += counted > 0 ? static_cast<double>(counted)
                             : static_cast<double>(d->a.ScanBytes());
      }
      row.push_back(bytes / rr.TotalWallSec() / 1e9);
    }
    t.Add({name}, row);
    for (size_t c = 0; c < row.size(); ++c) {
      dw_top &= name != systems[4].first || row[c] >= best[c];
      best[c] = std::max(best[c], row[c]);
    }
  }
  // Sum rows: DimmWitted 0, Hogwild! 1, GraphLab 2, MLlib 3.
  fig.AddClaim(
      "DimmWitted posts the highest throughput column-wide; Hogwild! trails "
      "it; bulk-synchronous and queue-scheduled systems trail further",
      "this ordering", "parallel sum GB/s " + Joined(sum_gbps, 2),
      dw_top && sum_gbps[0] > sum_gbps[1] && sum_gbps[1] > sum_gbps[2] &&
          sum_gbps[1] > sum_gbps[3],
      Gate::kWallClock);
  return fig;
}

Figure Fig14OptimizerPlans(double scale) {
  Specs m;
  const std::pair<const models::ModelSpec*, data::Dataset> rows[] = {
      {&m.svm, Reuters(scale)}, {&m.svm, Rcv1(scale)},
      {&m.svm, MusicBin(scale)}, {&m.lr, Reuters(scale)},
      {&m.lr, Rcv1(scale)},     {&m.ls, Music(scale)},
      {&m.lp, AmazonLp(scale)}, {&m.lp, GoogleLp(scale)},
      {&m.qp, AmazonQp(scale)}, {&m.qp, GoogleQp(scale)}};
  Figure fig;
  Panel& t = fig.AddPanel(
      "Figure 14: plans chosen by the optimizer (local2)", {"Model", "Dataset"},
      {{"Access Method", Name<AM>}, {"Model Replication", Name<MR>},
       {"Data Replication", Name<DR>}, {"row cost", Fixed<0>},
       {"col cost", Fixed<0>}});
  int cheapest = 0, as_paper = 0;
  for (const auto& [spec, d] : rows) {
    const opt::PlanChoice c = opt::ChoosePlan(d, *spec, numa::Local2());
    t.Add({spec->name(), d.name},
          {EnumCell(c.access), EnumCell(c.model_rep), EnumCell(c.data_rep),
           c.row_cost, c.col_cost});
    const bool row = c.access == AM::kRowWise;
    const bool graph = spec == &m.lp || spec == &m.qp;
    cheapest += row == (c.row_cost <= c.col_cost);
    as_paper += row != graph &&
                c.model_rep == (graph ? MR::kPerMachine : MR::kPerNode) &&
                c.data_rep == DR::kFullReplication;
  }
  fig.AddClaim("The optimizer picks the cheapest access method",
               "lower of row cost and col cost", OutOf(cheapest, 10) + " rows",
               cheapest == 10);
  fig.AddClaim("The plans match the paper's Fig. 14",
               "SVM/LR/LS: Row-wise + PerNode + FullReplication; LP/QP: "
               "Column + PerMachine + FullReplication",
               OutOf(as_paper, 10) + " rows", as_paper == 10);
  return fig;
}

Figure Fig15ArchAccessRatio(double scale) {
  const data::Dataset rcv1 = Rcv1(scale);
  const data::Dataset amazon = AmazonLp(scale);
  Specs m;
  // Row over column(-to-row) time per epoch. Both run PerMachine, as in
  // the paper's Sec. 3.2 setup: the alpha effect is the cost of writes to
  // shared state, so the state must actually be shared.
  auto ratio = [](const data::Dataset& d, const models::ModelSpec& spec,
                  const numa::Topology& topo) {
    double sim[2];
    for (AM access : {AM::kRowWise, AM::kColToRow}) {
      sim[access != AM::kRowWise] = SimPerEpoch(RunEngine(
          d, spec, MakeOptions(topo, access, MR::kPerMachine, DR::kSharding),
          2));
    }
    return sim[0] / sim[1];
  };
  Figure fig;
  Panel& t = fig.AddPanel(
      "Figure 15: row-wise / column-wise time per epoch across"
      " architectures (memory model)",
      {"Machine", "#Cores x #Sockets"},
      Cols(Fixed<3>, {"SVM (RCV1)", "LP (Amazon)"}));
  std::vector<std::pair<int, double>> svm, lp;
  for (const numa::Topology& topo : numa::PaperMachines()) {
    svm.push_back({topo.num_nodes, ratio(rcv1, m.svm, topo)});
    lp.push_back({topo.num_nodes, ratio(amazon, m.lp, topo)});
    t.Add({topo.name, CoresBySockets(topo)},
          {svm.back().second, lp.back().second});
  }
  fig.AddClaim("The row/column ratio increases with the number of sockets: "
               "row-wise becomes relatively slower on larger machines",
               "alpha grows from ~4 to ~12",
               "SVM local2/4/8 " + Joined({svm[0].second, svm[1].second,
                                           svm[2].second},
                                          3),
               RisesWithSockets(svm) && RisesWithSockets(lp));
  return fig;
}

Figure Fig16ReplicationArch(double scale) {
  const models::SvmSpec svm{};
  // PerMachine s, PerNode s and their ratio.
  auto cells = [&](const data::Dataset& d, const numa::Topology& topo,
                   double opt_loss) {
    double s[2];
    for (MR mrep : {MR::kPerMachine, MR::kPerNode}) {
      s[mrep == MR::kPerNode] = SimTo(
          RunBestStep(d, svm,
                      MakeOptions(topo, AM::kRowWise, mrep, DR::kSharding),
                      60, opt_loss),
          opt_loss, 50);
    }
    return std::vector<double>{s[0], s[1], Ratio(s[0], s[1])};
  };
  const std::vector<Column> columns = {{"PerMachine s", Fixed<5>},
                                       {"PerNode s", Fixed<5>},
                                       {"ratio (PM/PN)", Fixed<2>}};
  Figure fig;
  const data::Dataset rcv1 = Rcv1(scale);
  const double opt_rcv1 = OptimalLoss(rcv1, svm);
  Panel& a = fig.AddPanel(
      "Figure 16(a): PerMachine/PerNode sim time to 50% loss, SVM (RCV1)",
      {"Machine", "#Cores x #Sockets"}, columns);
  std::vector<std::pair<int, double>> by_sockets;
  for (const numa::Topology& topo : numa::PaperMachines()) {
    a.Add({topo.name, CoresBySockets(topo)}, cells(rcv1, topo, opt_rcv1));
    by_sockets.push_back({topo.num_nodes, a.rows.back().cells[2]});
  }
  fig.AddClaim("The PerMachine/PerNode ratio rises with the socket count (a)",
               "rises with sockets",
               "local2/4/8 " + Joined({by_sockets[0].second,
                                       by_sockets[1].second,
                                       by_sockets[2].second},
                                      2),
               RisesWithSockets(by_sockets));

  const data::Dataset music = MusicBin(scale);
  Panel& b = fig.AddPanel(
      "Figure 16(b): PerMachine/PerNode sim time to 50% loss vs"
      " update sparsity (Music subsampled, local4)",
      {"keep frac"}, columns);
  std::vector<double> ratios;
  for (double keep : {0.01, 0.05, 0.2, 0.5, 1.0}) {
    const data::Dataset sub =
        keep < 1.0 ? data::SubsampleElements(music, keep, 77) : music;
    b.Add({Table::Num(keep, 2)},
          cells(sub, numa::Local4(), OptimalLoss(sub, svm, 120, 0.02)));
    ratios.push_back(b.rows.back().cells[2]);
  }
  fig.AddClaim("The PerMachine/PerNode ratio rises with update density (b)",
               "rises with density; sparse updates are where PerMachine can "
               "win",
               "keep 0.01..1.0: " + Joined(ratios, 2),
               std::is_sorted(ratios.begin(), ratios.end()) &&
                   ratios.front() < ratios.back());
  return fig;
}

Figure Fig17GibbsNn(double scale) {
  Figure fig;
  const data::Dataset reuters = Reuters(scale);
  const models::SvmSpec svm{};
  const double opt_loss = OptimalLoss(reuters, svm, 250);
  Panel& a = fig.AddPanel(
      "Figure 17(a): FullReplication/Sharding sim time to loss,"
      " SVM (Reuters), PerNode, local2",
      {"error"},
      {{"Sharding s", Fixed<5>}, {"FullRepl s", Fixed<5>},
       {"ratio (FR/Sh)", Fixed<2>}});
  RunResult runs[2];
  for (DR drep : {DR::kSharding, DR::kFullReplication}) {
    runs[drep == DR::kFullReplication] = RunBestStep(
        reuters, svm,
        MakeOptions(numa::Local2(), AM::kRowWise, MR::kPerNode, drep), 100,
        opt_loss);
  }
  for (double pct : {0.5, 1.0, 10.0, 50.0, 100.0}) {
    const double ts = SimTo(runs[0], opt_loss, pct);
    const double tf = SimTo(runs[1], opt_loss, pct);
    a.Add({Table::Num(pct, 1) + "%"}, {ts, tf, Ratio(tf, ts)});
  }

  const factor::FactorGraph graph = factor::MakePaleoLike(3e-4 * scale, 7);
  factor::GibbsOptions go;
  go.topology = numa::Local4();
  go.sweeps = 6;
  go.burn_in = 2;
  go.strategy = factor::GibbsStrategy::kPerMachine;
  const double gibbs_classic = factor::RunGibbs(graph, go).SimSamplesPerSec();
  go.strategy = factor::GibbsStrategy::kPerNode;
  const double gibbs_dw = factor::RunGibbs(graph, go).SimSamplesPerSec();

  nn::MlpConfig cfg;
  cfg.layer_sizes = {784, 120, 80, 60, 40, 20, 10};  // 7 layers, CI-sized
  const nn::Mlp mlp(cfg);
  const nn::DigitData digits =
      nn::MakeMnistLike(static_cast<int>(256 * scale), 3);
  nn::NnTrainOptions no;
  no.topology = numa::Local4();
  no.workers_per_node = 2;
  no.epochs = 1;
  no.eval_examples = 32;
  no.strategy = nn::NnStrategy::kClassic;
  const double nn_classic =
      nn::TrainParallel(mlp, digits, no).SimNeuronsPerSec();
  no.strategy = nn::NnStrategy::kDimmWitted;
  const double nn_dw = nn::TrainParallel(mlp, digits, no).SimNeuronsPerSec();

  Panel& b = fig.AddPanel(
      "Figure 17(b): variables/second (millions, local4 memory model)",
      {"Task"},
      {{"Classic choice", Fixed<2>}, {"DimmWitted", Fixed<2>},
       {"speedup", Times}});
  b.Add({"Gibbs (Paleo-like)"},
        {gibbs_classic / 1e6, gibbs_dw / 1e6, gibbs_dw / gibbs_classic});
  b.Add({"NN (MNIST-like)"},
        {nn_classic / 1e6, nn_dw / 1e6, nn_dw / nn_classic});
  fig.AddClaim("PerNode-based execution beats the classic "
               "(PerMachine/Sharding) choice for both extensions (b)",
               "~4x for Gibbs, >10x for the NN",
               Times(gibbs_dw / gibbs_classic) + " Gibbs, " +
                   Times(nn_dw / nn_classic) + " NN",
               gibbs_dw > gibbs_classic && nn_dw > nn_classic);
  return fig;
}

// Speedups come from memory-model epoch times, so the virtual 12-core
// local2 is exercised, not the host's cores. The DSL baseline is
// Delite-like: a shared model with OS data placement.
Figure Fig20Speedup(double scale) {
  const data::Dataset music = MusicBin(scale);
  const models::LogisticSpec lr{};
  // PerCore, PerNode, PerMachine with collocated data; the DSL baseline.
  const std::pair<MR, bool> configs[] = {{MR::kPerCore, true},
                                         {MR::kPerNode, true},
                                         {MR::kPerMachine, true},
                                         {MR::kPerMachine, false}};
  Figure fig;
  Panel& t = fig.AddPanel(
      "Figure 20: speedup vs #threads, LR (Music), local2 memory model",
      {"Threads"},
      Cols(Fixed<2>, {"PerCore", "PerNode", "PerMachine", "DSL baseline"}));
  // Thread counts 1..12 on local2 (6 cores/socket): up to 6 threads stay
  // on one socket, beyond that the second socket joins.
  double base[4];
  std::map<int, std::vector<double>> speedup;
  for (int threads : {1, 2, 4, 6, 8, 10, 12}) {
    const int nodes = threads <= 6 ? 1 : 2;
    for (int c = 0; c < 4; ++c) {
      numa::Topology topo = numa::Local2();
      topo.num_nodes = nodes;
      engine::EngineOptions o = MakeOptions(topo, AM::kRowWise,
                                            configs[c].first, DR::kSharding,
                                            0.02);
      o.workers_per_node = threads / nodes;
      o.collocate_data = configs[c].second;
      const double t_epoch = SimPerEpoch(RunEngine(music, lr, o, 2));
      if (threads == 1) base[c] = t_epoch;
      speedup[threads].push_back(base[c] / t_epoch);
    }
    t.Add({std::to_string(threads)}, speedup[threads]);
  }
  const std::vector<double>& s6 = speedup[6];
  const std::vector<double>& s12 = speedup[12];
  fig.AddClaim("PerCore and PerNode keep speeding up once the second socket "
               "joins, while the DSL-like baseline (shared model, OS "
               "placement) flattens",
               "PerCore/PerNode scale across sockets; DSL flat past 6 threads",
               "6 -> 12 threads: PerNode " + Joined({s6[1], s12[1]}, 2) +
                   ", DSL " + Joined({s6[3], s12[3]}, 2),
               s12[0] > s6[0] && s12[1] > s6[1] && s12[3] <= s6[3]);
  return fig;
}

Figure Fig21Scalability(double scale) {
  const data::Dataset full = data::ClueWeb(4e-4 * scale);
  const models::LeastSquaresSpec ls{};
  Figure fig;
  Panel& t = fig.AddPanel(
      "Figure 21: time per epoch vs scale (ClueWeb-like, LS, rule-of-"
      "thumb plan, local2)",
      {"scale"},
      {{"rows", Int}, {"nnz", Int}, {"sim s/epoch", Fixed<6>},
       {"wall s/epoch", Fixed<4>}, {"sim ratio vs 1%", Fixed<1>}});
  std::vector<double> ratios;
  for (double frac : {0.01, 0.1, 0.5, 1.0}) {
    const data::Dataset d =
        frac < 1.0 ? data::SubsampleRows(full, frac, 31) : full;
    const RunResult rr = RunEngine(
        d, ls,
        MakeOptions(numa::Local2(), AM::kRowWise, MR::kPerNode,
                    DR::kFullReplication, 0.05),
        3);
    ratios.push_back(SimPerEpoch(rr) /
                     (ratios.empty() ? SimPerEpoch(rr)
                                     : t.rows.front().cells[2]));
    t.Add({Table::Num(frac, 2)},
          {static_cast<double>(d.a.rows()), static_cast<double>(d.a.nnz()),
           SimPerEpoch(rr), WallPerEpoch(rr), ratios.back()});
  }
  fig.AddClaim("Epoch time grows linearly with the number of examples",
               "1 : 10 : 50 : 100", Joined(ratios, 1),
               ratios[3] > 80 && ratios[3] < 120, Gate::kDeviation,
               "the memory model's fixed per-epoch overhead (barrier and "
               "dispatch, MemoryModelParams::epoch_overhead_sec) dominates "
               "the 1% cell");
  return fig;
}

Figure Fig22Importance(double scale) {
  const data::Dataset music = Music(scale);
  const models::LeastSquaresSpec ls{};
  const double opt_loss = OptimalLoss(music, ls, 200, 0.005);
  // Tolerances chosen so the loose one samples ~10% of the rows per epoch
  // and the tight one saturates at the full dataset (the same regimes as
  // the paper's Importance0.1 / Importance0.01 on the full-size Music).
  const double n = music.a.rows();
  const double d = music.a.cols();
  const double loose_eps = std::sqrt(2.0 * d * std::log(d) / (0.1 * n));
  const double tight_eps = std::sqrt(2.0 * d * std::log(d) / (1.5 * n));
  const std::tuple<std::string, DR, double> strategies[] = {
      {"Sharding", DR::kSharding, 0.1},
      {"FullReplication", DR::kFullReplication, 0.1},
      {"Importance(loose)", DR::kImportance, loose_eps},
      {"Importance(tight)", DR::kImportance, tight_eps}};
  Figure fig;
  Panel& t = fig.AddPanel(
      "Figure 22: time to loss, LS (Music), local2", {"Strategy"},
      {{"rows/epoch/worker", Int}, {"sim s to 50%", Fixed<5>},
       {"sim s to 10%", Fixed<5>}, {"sim s to 1%", Fixed<5>}});
  std::vector<std::vector<double>> rows;
  for (const auto& [label, drep, eps] : strategies) {
    engine::EngineOptions o = MakeOptions(numa::Local2(), AM::kRowWise,
                                          MR::kPerNode, drep, 0.005);
    o.importance_epsilon = eps;
    engine::Engine eng(&music, &ls, o);
    DW_CHECK(eng.Init().ok());
    engine::RunConfig cfg;
    cfg.max_epochs = 60;
    const RunResult rr = eng.Run(cfg);
    rows.push_back(ToEach(SimTo, rr, opt_loss, {50, 10, 1}));
    rows.back().insert(
        rows.back().begin(),
        static_cast<double>(eng.plan().workers.front().work.size()));
    t.Add({label}, rows.back());
  }
  // Rows: Sharding 0, FullReplication 1, loose 2, tight 3.
  const double share = rows[2][0] / rows[0][0];
  fig.AddClaim("Loose-tolerance importance sampling processes ~10% of the "
               "tuples per epoch",
               "~10%", Table::Num(100 * share, 1) + "% of Sharding's rows",
               share > 0.05 && share < 0.2);
  fig.AddClaim("Loose-tolerance importance sampling reaches moderate losses "
               "(50%) fastest",
               "fastest to 50%",
               "sim s to 50%: loose " + Fixed<5>(rows[2][1]) +
                   ", Sharding " + Fixed<5>(rows[0][1]),
               rows[2][1] <= std::min({rows[0][1], rows[1][1], rows[3][1]}),
               Gate::kDeviation,
               "the fixed per-epoch overhead dominates a loose epoch, so "
               "sampling a tenth of the rows does not make it ten times "
               "cheaper");
  fig.AddClaim("The tight tolerance degenerates to FullReplication-like "
               "behaviour",
               "as many samples as the full data",
               "rows/epoch/worker " + Int(rows[3][0]) + " vs " +
                   Int(rows[1][0]),
               rows[3][0] >= rows[1][0], Gate::kDeviation,
               "the tight tolerance saturates at n samples per epoch split "
               "across all workers (Sharding's work), while FullReplication "
               "sweeps n rows on every node");
  return fig;
}

// Sec. 3.2's installation-time microbenchmark of alpha.
Figure AlphaEstimation(double scale) {
  Figure fig;
  Panel& host = fig.AddPanel(
      "Host-measured write/read cost ratio (contended RMW vs streaming read)",
      {"Threads"}, {{"alpha", Fixed<2>}});
  for (int threads = 1; threads <= NumOnlineCpus(); ++threads) {
    host.Add({std::to_string(threads)}, {opt::MeasureAlphaOnHost(threads)});
  }
  Panel& calib = fig.AddPanel(
      "Calibrated alpha per topology (paper Sec. 3.2: 4..12,"
      " growing with sockets)",
      {"Machine", "Sockets"}, {{"alpha", Fixed<1>}});
  std::vector<std::pair<int, double>> alphas;
  for (const numa::Topology& t : numa::PaperMachines()) {
    alphas.push_back({t.num_nodes, opt::AlphaForTopology(t)});
    calib.Add({t.name, std::to_string(t.num_nodes)}, {alphas.back().second});
  }
  const auto [lo, hi] = std::minmax_element(
      alphas.begin(), alphas.end(),
      [](const auto& x, const auto& y) { return x.second < y.second; });
  fig.AddClaim("Calibrated alpha lies in 4..12 and grows with the sockets",
               "4..12, growing with sockets",
               "local2/4/8 " + Joined({alphas[0].second, alphas[1].second,
                                       alphas[2].second},
                                      1),
               lo->second >= 4.0 && hi->second <= 12.0 &&
                   RisesWithSockets(alphas));

  // Robustness: the choice between row and column access is stable for
  // alpha anywhere in [4, 100] (paper Sec. 3.2).
  Specs m;
  const matrix::MatrixStats rcv1 = Rcv1(scale).Stats();
  const matrix::MatrixStats amazon = AmazonLp(scale).Stats();
  Panel& rob = fig.AddPanel("Decision robustness across alpha", {"alpha"},
                            Cols(Name<AM>, {"SVM (RCV1)", "LP (Amazon)"}));
  bool stable = true;
  for (double alpha : {4.0, 8.0, 12.0, 25.0, 50.0, 100.0}) {
    const AM s = opt::ChooseAccessMethod(rcv1, m.svm, alpha);
    const AM l = opt::ChooseAccessMethod(amazon, m.lp, alpha);
    rob.Add({Table::Num(alpha, 0)}, {EnumCell(s), EnumCell(l)});
    stable &= s == AM::kRowWise && l != AM::kRowWise;
  }
  fig.AddClaim(
      "The access-method decision is the same for any alpha in [4, 100]",
      "stable: SVM row-wise, LP column",
      stable ? "stable" : "changes with alpha", stable);
  return fig;
}

Figure AppendixStorage(double scale) {
  // Best-of-30 seconds of one full sweep (the host is shared, so means are
  // noisy); the sink keeps the compiler from dropping the sweeps.
  static volatile double sink = 0.0;
  auto best_sweep_sec = [](const std::function<double()>& sweep) {
    double best = kInf;
    for (int r = 0; r < 30; ++r) {
      WallTimer timer;
      sink = sink + sweep();
      best = std::min(best, timer.Seconds());
    }
    return best;
  };
  constexpr matrix::Index kRows = 2000;
  constexpr matrix::Index kCols = 512;
  const std::vector<double> x(kCols, 1.0);
  auto row_sweep = [&](const auto& m) {
    return best_sweep_sec([&] {
      double acc = 0.0;
      for (matrix::Index i = 0; i < kRows; ++i) {
        acc += m.Row(i).Dot(x.data());
      }
      return acc;
    });
  };
  Figure fig;
  // The paper: Dense up to 2x faster at density 1.0, Sparse up to 4x at
  // density 0.01.
  Panel& ds = fig.AddPanel(
      "Appendix A: dense vs sparse kernels (same logical matrix,"
      " row access, host measurement)",
      {"density"},
      {{"dense s/sweep", Fixed<6>}, {"sparse s/sweep", Fixed<6>},
       {"winner", Winner}});
  for (double density : {0.01, 0.05, 0.2, 0.5, 1.0}) {
    Rng rng(11);
    std::vector<matrix::Triplet> trips;
    for (matrix::Index i = 0; i < kRows; ++i) {
      for (matrix::Index j = 0; j < kCols; ++j) {
        if (rng.Bernoulli(density)) trips.push_back({i, j, rng.Uniform()});
      }
    }
    auto csr = matrix::CsrMatrix::FromTriplets(kRows, kCols, trips);
    DW_CHECK(csr.ok());
    matrix::DenseMatrix dense(kRows, kCols, matrix::Layout::kRowMajor);
    for (const auto& t : trips) dense.At(t.row, t.col) = t.value;
    const double dense_sec = row_sweep(dense);
    const double sparse_sec = row_sweep(csr.value());
    ds.Add({Table::Num(density, 2)},
           {dense_sec, sparse_sec, sparse_sec / dense_sec});
  }

  Rng rng(3);
  matrix::DenseMatrix row_major(kRows, kCols, matrix::Layout::kRowMajor);
  for (auto& v : row_major.data()) v = rng.Uniform();
  const matrix::DenseMatrix col_major =
      row_major.WithLayout(matrix::Layout::kColMajor);
  Panel& layout = fig.AddPanel(
      "Appendix A: row-major vs column-major storage (row access,"
      " host measurement)",
      {"layout"}, {{"s/sweep", Fixed<6>}, {"vs row-major", Times}});
  const double row_sec = row_sweep(row_major);
  // Row-wise traversal of a column-major matrix: the strided pattern whose
  // L1 behaviour the paper measured at 9x more misses.
  const double col_sec = best_sweep_sec([&] {
    double acc = 0.0;
    for (matrix::Index i = 0; i < kRows; ++i) {
      for (matrix::Index j = 0; j < kCols; ++j) {
        acc += col_major.At(i, j) * x[j];
      }
    }
    return acc;
  });
  layout.Add({"Row-major"}, {row_sec, 1.0});
  layout.Add({"Column-major"}, {col_sec, col_sec / row_sec});

  const data::Dataset rcv1 = Rcv1(scale);
  const models::SvmSpec svm{};
  Panel& t = fig.AddPanel(
      "Appendix A: data/worker collocation (SVM RCV1, PerNode,"
      " memory model)",
      {"Machine"},
      {{"OS placement s/epoch", Fixed<6>},
       {"NUMA placement s/epoch", Fixed<6>}, {"speedup", Times}});
  std::vector<double> speedups;
  for (const numa::Topology& topo : {numa::Local2(), numa::Local4()}) {
    double per_epoch[2];
    for (bool collocate : {false, true}) {
      engine::EngineOptions o =
          MakeOptions(topo, AM::kRowWise, MR::kPerNode, DR::kSharding);
      o.collocate_data = collocate;
      per_epoch[collocate] = SimPerEpoch(RunEngine(rcv1, svm, o, 2));
    }
    speedups.push_back(per_epoch[0] / per_epoch[1]);
    t.Add({topo.name}, {per_epoch[0], per_epoch[1], speedups.back()});
  }
  fig.AddClaim("NUMA placement beats OS placement (sim s/epoch)", "up to 2x",
               "local2/4 " + Joined(speedups, 2),
               speedups[0] > 1.0 && speedups[1] > 1.0);
  const double sparse_low = ds.rows.front().cells[2];
  const double sparse_high = ds.rows.back().cells[2];
  fig.AddClaim("Row-major beats column-major under row access; sparse "
               "kernels win at low density, dense kernels at high density",
               "row-major (9x fewer L1 misses); Sparse up to 4x at 0.01, "
               "Dense up to 2x at 1.0",
               "column-major " + Times(col_sec / row_sec) + " slower; " +
                   Winner(sparse_low) + " at 0.01, " + Winner(sparse_high) +
                   " at 1.0",
               row_sec < col_sec && sparse_low < 1.0 && sparse_high > 1.0,
               Gate::kWallClock);
  return fig;
}

}  // namespace dw::bench
