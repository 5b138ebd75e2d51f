#include "baselines/baselines.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>

#include "matrix/csc_matrix.h"
#include "opt/optimizer.h"
#include "util/barrier.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_util.h"
#include "util/timer.h"
#include "util/worker_pool.h"

namespace dw::baselines {

using data::Dataset;
using engine::EpochRecord;
using engine::RunResult;
using matrix::Index;
using models::ModelSpec;
using models::StepContext;

namespace {

// The CPU each baseline worker pins to (-1: unpinned).
std::vector<int> WorkerCpus(const BaselineOptions& o) {
  return o.topology.WorkerCpus(o.workers_per_node > 0
                                   ? o.workers_per_node
                                   : o.topology.cores_per_node,
                               o.pin_threads);
}

// Runs the engine at the strategy point in `opts`, with the rest of its
// options taken from `options`.
RunResult RunEngine(const Dataset& dataset, const ModelSpec& spec,
                    const BaselineOptions& options,
                    engine::EngineOptions opts) {
  opts.topology = options.topology;
  opts.workers_per_node = options.workers_per_node;
  opts.step_size = options.step_size;
  opts.step_decay = options.step_decay;
  opts.pin_threads = options.pin_threads;
  opts.seed = options.seed;
  engine::Engine eng(&dataset, &spec, opts);
  const Status st = eng.Init();
  DW_CHECK(st.ok()) << st.ToString();
  engine::RunConfig cfg;
  cfg.max_epochs = options.max_epochs;
  cfg.stop_loss = options.stop_loss;
  cfg.wall_timeout_sec = options.wall_timeout_sec;
  return eng.Run(cfg);
}

// The epoch loop of the hand-written executors: epoch(e) updates `model`,
// and the loop times it, scans the loss and applies the stop rules.
RunResult RunEpochs(const Dataset& dataset, const ModelSpec& spec,
                    const BaselineOptions& options, const double* model,
                    const std::function<void(int)>& epoch) {
  RunResult result;
  double wall_acc = 0.0;
  for (int e = 0; e < options.max_epochs; ++e) {
    EpochRecord rec;
    rec.epoch = e;
    WallTimer timer;
    epoch(e);
    rec.wall_sec = timer.Seconds();
    rec.loss = engine::ParallelLoss(dataset, spec, model);
    wall_acc += rec.wall_sec;
    result.epochs.push_back(rec);
    if (rec.loss <= options.stop_loss) break;
    if (wall_acc > options.wall_timeout_sec) break;
  }
  return result;
}

}  // namespace

RunResult RunHogwild(const Dataset& dataset, const ModelSpec& spec,
                     const BaselineOptions& options) {
  engine::EngineOptions opts;
  opts.access = engine::AccessMethod::kRowWise;
  opts.model_rep = engine::ModelReplication::kPerMachine;
  opts.data_rep = engine::DataReplication::kSharding;
  opts.sync_interval_us = 0;
  opts.collocate_data = false;  // Hogwild! does not place data per node
  return RunEngine(dataset, spec, options, opts);
}

RunResult RunDimmWitted(const Dataset& dataset, const ModelSpec& spec,
                        const BaselineOptions& options) {
  engine::EngineOptions opts;
  opt::ApplyChoice(opt::ChoosePlan(dataset, spec, options.topology), &opts);
  return RunEngine(dataset, spec, options, opts);
}

namespace {

// Shared implementation of the GraphLab/GraphChi executors.
RunResult RunGraphStyle(const Dataset& dataset, const ModelSpec& spec,
                        const BaselineOptions& options, bool shard_reload) {
  DW_CHECK(spec.HasCol() || spec.HasCtr())
      << spec.name() << " has no column method for a GraphLab-style run";
  const bool use_ctr = spec.HasCtr();
  const matrix::CscMatrix csc = matrix::CscMatrix::FromCsr(dataset.a);
  const Index dim = spec.ModelDim(dataset);

  std::vector<double> model(dim, 0.0);
  spec.Project(model.data(), dim);
  // f_ctr recomputes everything from rows; only f_col keeps the aux.
  std::vector<double> aux(use_ctr ? 0 : spec.AuxDim(dataset), 0.0);
  if (!aux.empty()) spec.RefreshAux(dataset, model.data(), aux.data());
  double* const aux_or_null = aux.empty() ? nullptr : aux.data();

  // GraphLab's consistency model: a lock per variable (column).
  std::vector<SpinLock> locks(dim);
  std::vector<Index> tasks(dataset.a.cols());
  for (Index j = 0; j < dataset.a.cols(); ++j) tasks[j] = j;

  // Scratch for the GraphChi shard-reload pass.
  std::vector<double> shard_buffer;
  if (shard_reload) shard_buffer.resize(csc.values().size());

  WorkerPool pool(WorkerCpus(options));
  Rng rng(options.seed);
  return RunEpochs(dataset, spec, options, model.data(), [&](int epoch) {
    if (shard_reload) {
      // GraphChi re-materializes each shard before processing it; with a
      // memory buffer this is a full copy of the column arrays.
      std::memcpy(shard_buffer.data(), csc.values().data(),
                  csc.values().size() * sizeof(double));
    }
    rng.Shuffle(tasks);
    std::atomic<size_t> cursor{0};
    const StepContext ctx{&dataset, &csc,
                          options.step_size *
                              std::pow(options.step_decay, epoch)};
    pool.Run([&](int) {
      for (;;) {
        const size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
        if (k >= tasks.size()) break;
        const Index j = tasks[k];
        std::lock_guard<SpinLock> g(locks[j]);
        if (use_ctr) {
          spec.CtrStep(ctx, j, model.data(), aux_or_null);
        } else {
          spec.ColStep(ctx, j, model.data(), aux_or_null);
        }
      }
    });
  });
}

}  // namespace

RunResult RunGraphLabStyle(const Dataset& dataset, const ModelSpec& spec,
                           const BaselineOptions& options) {
  return RunGraphStyle(dataset, spec, options, /*shard_reload=*/false);
}

RunResult RunGraphChiStyle(const Dataset& dataset, const ModelSpec& spec,
                           const BaselineOptions& options) {
  return RunGraphStyle(dataset, spec, options, /*shard_reload=*/true);
}

RunResult RunMLlibStyle(const Dataset& dataset, const ModelSpec& spec,
                        const BaselineOptions& options) {
  const Index dim = spec.ModelDim(dataset);
  const Index n = dataset.a.rows();
  const std::vector<int> cpus = WorkerCpus(options);
  const int workers = static_cast<int>(cpus.size());

  std::vector<double> model(dim, 0.0);
  spec.Project(model.data(), dim);

  // PerCore gradient accumulators (the Spark executors).
  std::vector<std::vector<double>> partials(workers,
                                            std::vector<double>(dim, 0.0));
  std::vector<Index> order(n);
  for (Index i = 0; i < n; ++i) order[i] = i;
  Rng rng(options.seed);

  const Index batch = std::max<Index>(
      1, static_cast<Index>(options.batch_fraction * n));

  return RunEpochs(dataset, spec, options, model.data(), [&](int epoch) {
    rng.Shuffle(order);
    const StepContext ctx{&dataset, nullptr,
                          options.step_size *
                              std::pow(options.step_decay, epoch)};
    for (Index start = 0; start < n; start += batch) {
      const Index end = std::min<Index>(n, start + batch);
      // Stage 1: executors compute partial gradients (task scheduling =
      // one thread spawn per executor per minibatch, as in Spark stages).
      RunOnNewThreads(workers, [&](int w) {
        if (cpus[w] >= 0) (void)PinCurrentThreadToCpu(cpus[w]);
        std::fill(partials[w].begin(), partials[w].end(), 0.0);
        for (Index k = start + w; k < end; k += workers) {
          spec.RowGradient(ctx, order[k], model.data(), partials[w].data());
        }
      });
      // Stage 2: the single driver aggregates and applies the update.
      const double scale = ctx.step_size / static_cast<double>(end - start);
      for (int w = 0; w < workers; ++w) {
        for (Index k = 0; k < dim; ++k) {
          model[k] -= scale * partials[w][k];
        }
      }
      spec.Project(model.data(), dim);
    }
  });
}

}  // namespace dw::baselines
