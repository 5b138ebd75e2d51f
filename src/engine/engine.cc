#include "engine/engine.h"

#include <algorithm>
#include <cmath>

#include "data/leverage.h"
#include "util/logging.h"
#include "util/thread_util.h"
#include "util/timer.h"

namespace dw::engine {

using matrix::Index;

// A model replica: one contiguous node-local buffer holding the model
// vector followed by the auxiliary state (paper Sec. 3.3 locality groups).
struct Engine::Replica {
  numa::NodeArray<double> storage;
  Index model_dim = 0;

  double* model() { return storage.data(); }
  double* aux() { return storage.data() + model_dim; }
  const double* model() const { return storage.data(); }
};

Engine::Engine(const data::Dataset* dataset, const models::ModelSpec* spec,
               EngineOptions options)
    : dataset_(dataset),
      spec_(spec),
      options_(std::move(options)),
      memory_model_(options_.topology),
      last_sim_(options_.topology.num_nodes) {
  DW_CHECK(dataset_ != nullptr);
  DW_CHECK(spec_ != nullptr);
}

Engine::~Engine() {
  if (averager_.joinable()) {
    averager_quit_.store(true);
    averager_.join();
  }
}

Status Engine::Init() {
  if (initialized_) return Status::FailedPrecondition("Init called twice");

  // Column access needs the CSC index (and the loss scan uses CSR).
  if (options_.access != AccessMethod::kRowWise) {
    csc_ = std::make_unique<matrix::CscMatrix>(
        matrix::CscMatrix::FromCsr(dataset_->a));
  }

  auto plan_or = BuildPlan(*dataset_, *spec_, options_, csc_.get());
  if (!plan_or.ok()) return plan_or.status();
  plan_ = std::move(plan_or).value();

  allocator_ = std::make_unique<numa::NumaAllocator>(options_.topology);

  // Register the plan's *logical* data placement (paper Appendix A:
  // data/worker collocation). Physical copies are unnecessary on a
  // single-domain host; the ledger and the traffic counters carry the
  // placement decision instead.
  const size_t data_bytes = static_cast<size_t>(dataset_->SparseBytes());
  const int nodes = options_.topology.num_nodes;
  if (!options_.collocate_data) {
    allocator_->NoteLogicalBytes(0, data_bytes);
  } else if (options_.data_rep == DataReplication::kFullReplication) {
    for (int n = 0; n < nodes; ++n) {
      allocator_->NoteLogicalBytes(n, data_bytes);
    }
  } else {
    for (int n = 0; n < nodes; ++n) {
      allocator_->NoteLogicalBytes(n, data_bytes / nodes);
    }
  }

  // Replicas. The auxiliary state (SCD margins/residuals) only exists for
  // f_col plans; f_row never reads it and f_ctr recomputes everything from
  // the rows, so neither allocates nor refreshes it.
  model_dim_ = spec_->ModelDim(*dataset_);
  aux_dim_ = options_.access == AccessMethod::kColWise
                 ? spec_->AuxDim(*dataset_)
                 : 0;
  replicas_.clear();
  for (int r = 0; r < plan_.num_replicas; ++r) {
    auto rep = std::make_unique<Replica>();
    rep->model_dim = model_dim_;
    rep->storage = allocator_->AllocateOnNode<double>(
        plan_.replica_node[r], model_dim_ + aux_dim_);
    spec_->Project(rep->model(), model_dim_);
    if (aux_dim_ > 0) {
      spec_->RefreshAux(*dataset_, rep->model(), rep->aux());
    }
    replicas_.push_back(std::move(rep));
  }
  consensus_.assign(model_dim_, 0.0);

  // Importance sampling: leverage-score CDF (paper Sec. C.4).
  if (options_.data_rep == DataReplication::kImportance) {
    auto scores = data::LeverageScores(dataset_->a);
    if (!scores.ok()) return scores.status();
    importance_cdf_.resize(scores.value().size());
    double acc = 0.0;
    for (size_t i = 0; i < scores.value().size(); ++i) {
      acc += scores.value()[i];
      importance_cdf_[i] = acc;
    }
    if (acc <= 0.0) {
      return Status::Internal("degenerate leverage scores");
    }
  }

  // Worker pool: one thread per virtual core, pinned by the topology map.
  const int nw = plan_.num_workers;
  worker_rngs_.clear();
  uint64_t sm = options_.seed ^ 0xd1b54a32d192ed03ULL;
  for (int w = 0; w < nw; ++w) worker_rngs_.emplace_back(SplitMix64(sm));
  pool_ = std::make_unique<WorkerPool>(options_.topology.WorkerCpus(
      plan_.options.workers_per_node, options_.pin_threads));

  // Async model averager (paper Sec. 3.3): DimmWitted's PerNode novelty.
  // PerCore deliberately stays a classical shared-nothing architecture
  // (Bismarck/Spark style, averaged only at epoch boundaries) -- that
  // difference IS the statistical-efficiency gap of Fig. 8(a). Specs with
  // auxiliary state cannot be averaged mid-epoch (the aux would go
  // stale), which is the mechanism behind the SCD => PerMachine rule.
  const bool async_ok =
      options_.model_rep == ModelReplication::kPerNode &&
      plan_.num_replicas > 1 && options_.sync_interval_us > 0 &&
      aux_dim_ == 0;
  if (async_ok) {
    averager_ = std::thread([this] { AveragerLoop(); });
  }

  // Seed the export buffer so Export() is valid (and thread-safe) from
  // the moment Init() returns, before any epoch has run.
  RefreshExportBuffer(replicas_[0]->model(), 0);

  initialized_ = true;
  return Status::OK();
}

void Engine::WorkerEpoch(int worker_id, double step_size) {
  WorkerPlan& wp = plan_.workers[worker_id];
  // Random traversal order each epoch (paper Sec. 2.1: "typically some
  // randomness in the ordering is desired").
  worker_rngs_[worker_id].Shuffle(wp.work);

  models::StepContext ctx;
  ctx.dataset = dataset_;
  ctx.csc = csc_.get();
  ctx.step_size = step_size;

  Replica& rep = *replicas_[wp.replica_index];
  double* model = rep.model();
  double* aux = aux_dim_ > 0 ? rep.aux() : nullptr;

  switch (options_.access) {
    case AccessMethod::kRowWise:
      for (Index i : wp.work) spec_->RowStep(ctx, i, model, aux);
      break;
    case AccessMethod::kColWise:
      for (Index j : wp.work) spec_->ColStep(ctx, j, model, aux);
      break;
    case AccessMethod::kColToRow:
      for (Index j : wp.work) spec_->CtrStep(ctx, j, model, aux);
      break;
  }
}

void Engine::ResampleImportanceWork() {
  // Each worker draws m = 2 eps^-2 d log d rows (capped at N) by leverage
  // score, then recomputes its traffic coefficients.
  const size_t m_total = std::min<size_t>(
      data::ImportanceSampleCount(options_.importance_epsilon, model_dim_),
      dataset_->a.rows());
  const size_t m_per_worker =
      std::max<size_t>(1, m_total / static_cast<size_t>(plan_.num_workers));
  const double total = importance_cdf_.back();
  const bool dense_write =
      spec_->RowWriteSparsity() == models::UpdateSparsity::kDense;

  for (WorkerPlan& wp : plan_.workers) {
    Rng& rng = worker_rngs_[wp.worker_id];
    wp.work.clear();
    wp.work.reserve(m_per_worker);
    wp.per_epoch = ItemCost{};
    for (size_t s = 0; s < m_per_worker; ++s) {
      const double u = rng.Uniform() * total;
      const auto it = std::lower_bound(importance_cdf_.begin(),
                                       importance_cdf_.end(), u);
      const Index i =
          static_cast<Index>(it - importance_cdf_.begin());
      wp.work.push_back(i);
      wp.per_epoch +=
          RowItemCost(dataset_->a.RowNnz(i), model_dim_, dense_write);
    }
  }
}

void Engine::AverageReplicasOnce() {
  const int nr = plan_.num_replicas;
  if (nr <= 1) return;
  const double inv = 1.0 / static_cast<double>(nr);
  for (Index k = 0; k < model_dim_; ++k) {
    double acc = 0.0;
    for (int r = 0; r < nr; ++r) acc += replicas_[r]->model()[k];
    consensus_[k] = acc * inv;
  }
  for (int r = 0; r < nr; ++r) {
    double* m = replicas_[r]->model();
    for (Index k = 0; k < model_dim_; ++k) m[k] = consensus_[k];
  }
  // The freshly-averaged consensus is exactly what a serving export
  // should carry; refreshing here (also from the async averager thread)
  // is what makes mid-epoch Export() lag by at most one averaging round.
  RefreshExportBuffer(consensus_.data(), /*epochs=*/-1);
}

void Engine::RefreshExportBuffer(const double* weights, int epochs) {
  std::lock_guard<std::mutex> lk(export_mu_);
  export_weights_.assign(weights, weights + model_dim_);
  if (epochs >= 0) export_epochs_ = epochs;
  export_refreshed_at_ = std::chrono::steady_clock::now();
}

void Engine::AveragerLoop() {
  SetCurrentThreadName("dw-averager");
  const auto period = std::chrono::microseconds(
      std::max(1, options_.sync_interval_us));
  while (!averager_quit_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(period);
    if (epoch_active_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lk(averaging_mu_);
      AverageReplicasOnce();
    }
  }
}

void Engine::EpochBoundarySync() {
  // Wait out (and exclude) any in-flight async averaging round: from here
  // to the export-buffer refresh below, the replicas must not be half
  // rewritten by the averager, or serving would be handed torn weights.
  // Bounded wait: one O(replicas x dim) averaging pass at most.
  std::lock_guard<std::mutex> boundary_lock(averaging_mu_);
  if (plan_.num_replicas > 1) {
    AverageReplicasOnce();
  }
  for (auto& rep : replicas_) {
    spec_->Project(rep->model(), model_dim_);
    if (aux_dim_ > 0) {
      // Averaged model invalidates the maintained margins/residuals, and
      // on a shared replica concurrent column steps lose racy aux updates;
      // the rebuild is a full data pass per replica -- the real cost that
      // makes fine-grained sharing unattractive for SCD.
      spec_->RefreshAux(*dataset_, rep->model(), rep->aux());
    }
  }
  // Workers are parked at the barrier here, so replica 0 is quiescent and
  // holds the projected consensus: the canonical post-epoch export. The
  // boundary runs before ++epoch_counter_, hence the +1.
  RefreshExportBuffer(replicas_[0]->model(), epoch_counter_ + 1);
}

numa::SimulationInput Engine::BuildSimInput() const {
  // Analytic traffic accounting (the PMU substitute; see
  // numa/access_counters.h): each worker's epoch cost from the plan,
  // placed by where its data and its replica live.
  std::vector<numa::WorkerCost> workers;
  for (const WorkerPlan& wp : plan_.workers) {
    workers.push_back({wp.per_epoch, wp.node,
                       plan_.replica_node[wp.replica_index],
                       wp.data_is_local});
  }
  numa::SimulationInput in = numa::PlaceTraffic(
      options_.topology.num_nodes, workers, plan_.sharing_sockets,
      plan_.replica_bytes * static_cast<uint64_t>(plan_.replicas_per_node));
  if (aux_dim_ > 0) {
    // Aux refresh traffic at the epoch boundary.
    const uint64_t scan = static_cast<uint64_t>(dataset_->a.ScanBytes());
    for (int r = 0; r < plan_.num_replicas; ++r) {
      numa::AccessCounters extra;
      extra.local_read_bytes = scan;
      extra.local_write_bytes = aux_dim_ * sizeof(double);
      in.traffic.Add(plan_.replica_node[r], extra);
    }
  }
  return in;
}

EpochRecord Engine::RunEpochNoEval() {
  DW_CHECK(initialized_) << "call Init() first";
  const double step =
      options_.step_size * std::pow(options_.step_decay, epoch_counter_);
  if (options_.data_rep == DataReplication::kImportance) {
    ResampleImportanceWork();
  }

  EpochRecord rec;
  rec.epoch = epoch_counter_;

  epoch_active_.store(true, std::memory_order_release);
  WallTimer timer;
  pool_->Run([this, step](int w) { WorkerEpoch(w, step); });
  epoch_active_.store(false, std::memory_order_release);
  EpochBoundarySync();
  rec.wall_sec = timer.Seconds();

  last_sim_ = BuildSimInput();
  rec.sim_sec = memory_model_.SimulateEpoch(last_sim_).total_sec;
  rec.traffic = last_sim_.traffic.Total();

  ++epoch_counter_;
  return rec;
}

RunResult Engine::Run(const RunConfig& config) {
  RunResult result;
  double wall_acc = 0.0;
  for (int e = 0; e < config.max_epochs; ++e) {
    EpochRecord rec = RunEpochNoEval();
    wall_acc += rec.wall_sec;
    WallTimer eval_timer;
    rec.loss = EvaluateLoss();
    rec.loss_eval_sec = eval_timer.Seconds();
    result.epochs.push_back(rec);
    if (rec.loss <= config.stop_loss) break;
    if (wall_acc > config.wall_timeout_sec) break;
  }
  return result;
}

std::vector<double> Engine::ConsensusModel() {
  std::vector<double> out(model_dim_, 0.0);
  const double inv = 1.0 / static_cast<double>(plan_.num_replicas);
  for (int r = 0; r < plan_.num_replicas; ++r) {
    const double* m = replicas_[r]->model();
    for (Index k = 0; k < model_dim_; ++k) out[k] += m[k] * inv;
  }
  return out;
}

ModelExport Engine::Export() {
  DW_CHECK(initialized_) << "call Init() first";
  ModelExport out;
  out.spec_name = spec_->name();
  std::lock_guard<std::mutex> lk(export_mu_);
  out.epochs_trained = export_epochs_;
  out.weights = export_weights_;
  out.exported_at = export_refreshed_at_;
  return out;
}

double Engine::EvaluateLoss() {
  // Replicas are synchronized at epoch boundaries; replica 0 holds the
  // consensus.
  return ParallelLoss(*dataset_, *spec_, replicas_[0]->model());
}

double ParallelLoss(const data::Dataset& dataset,
                    const models::ModelSpec& spec, const double* model) {
  const Index n = dataset.a.rows();
  const int threads = std::clamp(NumOnlineCpus(), 1, 8);
  std::vector<double> partial(threads, 0.0);
  // Host-sized fresh threads, not the engine's plan-sized pool. A
  // short-lived WorkerPool polls through three barrier crossings per scan,
  // which made the wall-clock tests flake more under ctest -j4.
  RunOnNewThreads(threads, [&](int t) {
    const Index lo = static_cast<Index>(static_cast<uint64_t>(n) * t / threads);
    const Index hi =
        static_cast<Index>(static_cast<uint64_t>(n) * (t + 1) / threads);
    double acc = 0.0;
    for (Index i = lo; i < hi; ++i) acc += spec.RowLoss(dataset, i, model);
    partial[t] = acc;
  });
  double sum = 0.0;
  for (double p : partial) sum += p;
  return sum / std::max<double>(1.0, n) + spec.GlobalLossTerm(dataset, model);
}

double ReferenceOptimalLoss(const data::Dataset& dataset,
                            const models::ModelSpec& spec,
                            AccessMethod access, int epochs,
                            double step_size) {
  EngineOptions opts;
  opts.topology = numa::Topology{};
  opts.topology.name = "reference";
  opts.topology.num_nodes = 1;
  opts.topology.cores_per_node = 1;
  opts.access = access;
  opts.model_rep = ModelReplication::kPerMachine;
  opts.data_rep = DataReplication::kSharding;
  opts.step_size = step_size;
  opts.step_decay = 0.95;
  opts.sync_interval_us = 0;
  opts.pin_threads = false;
  Engine engine(&dataset, &spec, opts);
  const Status st = engine.Init();
  DW_CHECK(st.ok()) << st.ToString();
  RunConfig cfg;
  cfg.max_epochs = epochs;
  const RunResult rr = engine.Run(cfg);
  return rr.BestLoss();
}

}  // namespace dw::engine
