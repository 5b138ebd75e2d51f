// The training engine's per-layer numbers (engine.*, numa.*, matrix.*):
// a side run of engine::Engine, the paper's epoch loop, at its headline
// point -- row-wise SGD over an RCV1-shaped SVM with PerNode replicas on
// the local2 topology. serve-carried's traced run calls it after its
// serving window, the way it times PredictBatch.
//
// Training is not a workload with end-to-end metrics of its own: on the
// shared host the benchmark was built on, identical epoch loops drifted by
// 2-4x within minutes (a cache-resident dataset as much as a DRAM-sized
// one), so no epoch timing could hold a bound. The numbers here are
// diagnostics that locate a change, not the figures that accept it.
//
// The side run is a series of TRIALS until kSideSeconds are used. A trial
// constructs and Init()s a fresh engine, runs a fixed epoch budget through
// RunEpochNoEval() timing every call, and evaluates the loss after each
// epoch outside the timed calls.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "data/paper_datasets.h"
#include "engine/engine.h"
#include "harness.h"
#include "matrix/csc_matrix.h"
#include "models/glm.h"

namespace perfbench {
namespace {

constexpr double kStepSize = 0.03;
constexpr int kEpochsPerTrial = 40;
constexpr double kSideSeconds = 2.0;
constexpr size_t kMinTrials = 2;
/// A trial whose best loss exceeds this multiple of the serial
/// reference's (or is not finite) fails the run.
constexpr double kMaxLossRatio = 1.5;
/// engine.epochs_to_target / time_to_loss_s: the first epoch within this
/// fraction of the serial reference loss (paper Sec. 4.1's "within x% of
/// the optimal loss").
constexpr double kTargetFraction = 0.05;

dw::engine::EngineOptions EngineOptionsFor(uint64_t seed) {
  dw::engine::EngineOptions o;
  o.topology = dw::numa::Local2();
  o.workers_per_node = 1;
  o.access = dw::engine::AccessMethod::kRowWise;
  o.model_rep = dw::engine::ModelReplication::kPerNode;
  o.data_rep = dw::engine::DataReplication::kSharding;
  o.step_size = kStepSize;
  o.seed = seed;
  return o;
}

struct Trial {
  double init_s = 0.0;
  std::vector<double> epoch_s;  ///< harness-timed RunEpochNoEval
  std::vector<double> work_s;   ///< EpochRecord::wall_sec
  std::vector<double> sim_s;    ///< EpochRecord::sim_sec
  std::vector<double> eval_s;
  std::vector<double> loss;
  std::vector<dw::numa::AccessCounters> traffic;
};

Trial RunTrial(const dw::data::Dataset& data, const dw::models::ModelSpec& spec,
               uint64_t seed) {
  Trial t;
  Tracer::Span trial_span("harness.trial");
  std::unique_ptr<dw::engine::Engine> engine;
  {
    Tracer::Span span("engine.Engine");
    engine = std::make_unique<dw::engine::Engine>(&data, &spec,
                                                  EngineOptionsFor(seed));
  }
  const int64_t init_start = NowNs();
  dw::Status st;
  {
    Tracer::Span span("engine.Init");
    st = engine->Init();
  }
  t.init_s = SecondsSince(init_start);
  if (!st.ok()) {
    std::fprintf(stderr, "Engine::Init failed: %s\n", st.ToString().c_str());
    std::exit(3);
  }
  for (int e = 0; e < kEpochsPerTrial; ++e) {
    const int64_t start = NowNs();
    dw::engine::EpochRecord rec;
    {
      Tracer::Span span("engine.RunEpochNoEval");
      rec = engine->RunEpochNoEval();
    }
    t.epoch_s.push_back(SecondsSince(start));
    t.work_s.push_back(rec.wall_sec);
    t.sim_s.push_back(rec.sim_sec);
    t.traffic.push_back(rec.traffic);
    const int64_t eval_start = NowNs();
    {
      Tracer::Span span("engine.EvaluateLoss");
      t.loss.push_back(engine->EvaluateLoss());
    }
    t.eval_s.push_back(SecondsSince(eval_start));
  }
  {
    Tracer::Span span("engine.~Engine");
    engine.reset();
  }
  return t;
}

std::vector<double> Concat(const std::vector<Trial>& trials,
                           std::vector<double> Trial::*field) {
  std::vector<double> out;
  for (const Trial& t : trials) {
    out.insert(out.end(), (t.*field).begin(), (t.*field).end());
  }
  return out;
}

}  // namespace

int EngineSideThreads() {
  // One worker per node, the PerNode averager, and the harness thread
  // that waits at the epoch barrier.
  return dw::numa::Local2().num_nodes + 2;
}

void ReportEngineLayers(const Args& args, double peak_gbps, Report* report) {
  // Input, generated from the seed before any timing: 15.6k rows, 1.2M nnz.
  const dw::data::Dataset data = dw::data::Rcv1(0.02, args.seed);
  const dw::models::SvmSpec spec;
  report->info["engine_dataset"] =
      data.name + " " + std::to_string(data.a.rows()) + "x" +
      std::to_string(data.a.cols()) + ", nnz " + std::to_string(data.a.nnz());

  std::vector<Trial> trials;
  const int64_t start = NowNs();
  while (trials.size() < kMinTrials || SecondsSince(start) < kSideSeconds) {
    trials.push_back(RunTrial(data, spec, args.seed));
  }

  // ---- output checks ------------------------------------------------------
  // The quality reference: the library's single-threaded, single-replica
  // run over the same data and epoch budget.
  const double ref_loss = dw::engine::ReferenceOptimalLoss(
      data, spec, dw::engine::AccessMethod::kRowWise, kEpochsPerTrial,
      kStepSize);
  const double target = ref_loss + std::abs(ref_loss) * kTargetFraction;
  std::vector<double> best_losses;
  for (const Trial& t : trials) {
    const double best = *std::min_element(t.loss.begin(), t.loss.end());
    best_losses.push_back(best);
    const bool finite = std::all_of(t.loss.begin(), t.loss.end(),
                                    [](double l) { return std::isfinite(l); });
    if (!(finite && std::isfinite(ref_loss) && ref_loss > 0 &&
          best <= kMaxLossRatio * ref_loss)) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "engine side run: best loss %.6g above %.2fx the "
                    "reference loss %.6g",
                    best, kMaxLossRatio, ref_loss);
      report->Fail(buf);
    }
  }
  report->info["engine_trials"] = std::to_string(trials.size());

  // ---- engine --------------------------------------------------------------
  const double epoch = Median(Concat(trials, &Trial::epoch_s));
  const double work = Median(Concat(trials, &Trial::work_s));
  const double sim = Median(Concat(trials, &Trial::sim_s));
  std::vector<double> sync, init, to_target_epochs, to_target_s;
  for (const Trial& t : trials) {
    init.push_back(t.init_s);
    double cumulative = 0.0;
    int reached = -1;
    for (size_t e = 0; e < t.epoch_s.size(); ++e) {
      sync.push_back(t.epoch_s[e] - t.work_s[e]);
      cumulative += t.epoch_s[e];
      if (reached < 0 && t.loss[e] <= target) {
        reached = static_cast<int>(e) + 1;
        to_target_s.push_back(cumulative);
      }
    }
    to_target_epochs.push_back(reached);
  }
  report->Set("engine.epoch_s", epoch, "s");
  report->Set("engine.best_loss", Median(best_losses), "objective");
  report->Set("engine.ref_loss", ref_loss, "objective");
  report->Set("engine.work_s", work, "s");
  report->Set("engine.sync_s", Median(sync), "s");
  report->Set("engine.init_s", Median(init), "s");
  report->Set("engine.eval_s", Median(Concat(trials, &Trial::eval_s)), "s");
  report->Set("engine.epochs_to_target", Median(to_target_epochs), "count");
  report->Set("engine.time_to_loss_s",
              to_target_s.size() == trials.size() ? Median(to_target_s) : -1.0,
              "s");

  // ---- numa ----------------------------------------------------------------
  // Traffic counters are exact; every epoch of a trial repeats them, so
  // the median epoch is the representative one.
  using Counters = dw::numa::AccessCounters;
  auto median_counter = [&](uint64_t Counters::*field) {
    std::vector<double> xs;
    for (const Trial& t : trials) {
      for (const Counters& c : t.traffic) {
        xs.push_back(static_cast<double>(c.*field));
      }
    }
    return Median(xs);
  };
  const struct {
    const char* name;
    uint64_t Counters::*field;
  } kCounters[] = {
      {"numa.local_read_bytes", &Counters::local_read_bytes},
      {"numa.remote_read_bytes", &Counters::remote_read_bytes},
      {"numa.local_write_bytes", &Counters::local_write_bytes},
      {"numa.shared_write_bytes", &Counters::shared_write_bytes},
      {"numa.model_read_bytes", &Counters::model_read_bytes},
  };
  double bytes = 0.0;  // everything the epoch reads and writes
  for (const auto& c : kCounters) {
    const double v = median_counter(c.field);
    report->Set(c.name, v, "B");
    bytes += v;
  }
  report->Set("numa.updates", median_counter(&Counters::updates), "count");
  report->Set("numa.sim_epoch_s", sim, "s");
  report->Set("numa.model_error", sim > 0.0 ? work / sim : 0.0, "ratio");
  report->Set("engine.frac_peak",
              work > 0.0 && peak_gbps > 0.0 ? bytes / work / (peak_gbps * 1e9)
                                            : 0.0,
              "ratio");

  // ---- matrix --------------------------------------------------------------
  // The column access methods build a CSC copy of the data inside Init();
  // time that build on the same input.
  std::vector<double> builds;
  for (int i = 0; i < 5; ++i) {
    const int64_t build_start = NowNs();
    Tracer::Span span("matrix.FromCsr");
    const dw::matrix::CscMatrix csc = dw::matrix::CscMatrix::FromCsr(data.a);
    builds.push_back(SecondsSince(build_start));
    if (csc.nnz() != data.a.nnz()) report->Fail("CSC build lost nonzeros");
  }
  report->Set("matrix.csc_build_s", Median(builds), "s");
}

}  // namespace perfbench
