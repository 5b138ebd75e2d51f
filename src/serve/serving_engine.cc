#include "serve/serving_engine.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
#include <mutex>
#include <optional>
#include <utility>

#include "kernels/dispatch.h"
#include "numa/access_counters.h"
#include "util/logging.h"
#include "util/thread_util.h"
#include "util/timer.h"

namespace dw::serve {

using matrix::Index;

const char* ToString(ScoringMode m) {
  return m == ScoringMode::kBatched ? "Batched" : "Scalar";
}

namespace {

// Span ring capacity: the most recent sampled request traces kept.
constexpr size_t kTraceCapacity = 256;

// The pool size, resolved once: one worker per virtual core unless the
// caller sized it.
ServingOptions WithWorkerCount(ServingOptions options) {
  if (options.num_threads <= 0) {
    options.num_threads = options.topology.total_cores();
  }
  return options;
}

// The one wait behind the sync forms. A keyed row that vanished between
// admission and the gather (a delta evicted its slot) surfaces as the
// same NotFound an admission-time miss returns, so callers see one code
// either way; carried rows never throw StoreKeyMiss.
StatusOr<double> AwaitScore(StatusOr<std::future<double>> fut) {
  if (!fut.ok()) return fut.status();
  // Waited through a shared_future, which keeps the shared state -- and
  // the StoreKeyMiss in it -- referenced until the handler below is done.
  // future::get() drops that reference before the handler runs, leaving
  // the exception's own refcount, kept inside the uninstrumented C++
  // runtime, as the only order between the handler's read and the worker
  // freeing the exception: correct, but ThreadSanitizer cannot see it and
  // reports a race.
  const std::shared_future<double> result = std::move(fut).value().share();
  try {
    return result.get();
  } catch (const StoreKeyMiss& miss) {
    return Status::NotFound(miss.what());
  }
}

}  // namespace

ServingEngine::ServingEngine(ServingOptions options)
    : options_(WithWorkerCount(std::move(options))),
      obs_(obs::RegistryOptions{options_.telemetry}),
      spans_(options_.telemetry ? kTraceCapacity : 0),
      // The admission controller shares the engine's drain parallelism:
      // N workers retire a family's backlog N times faster than one, so
      // the queueing-delay estimate divides by the pool size.
      admission_(options_.topology,
                 opt::AdmissionControllerOptions{options_.num_threads}),
      allocator_(std::make_shared<numa::NumaAllocator>(options_.topology)),
      table_(std::make_shared<const FamilyTable>()) {
  // Admission and the batcher publish their counters on the engine's
  // registry; attach before any family registration resolves instruments.
  admission_.AttachRegistry(&obs_);
  batcher_.AttachRegistry(&obs_);
  batcher_.AttachController(&admission_);
  // Serve-time NUMA traffic per node (the serving analogue of the
  // training counters the paper reports); on a disabled registry these
  // are no-op instruments and the adds vanish.
  node_traffic_.resize(options_.topology.num_nodes);
  for (int n = 0; n < options_.topology.num_nodes; ++n) {
    const obs::Labels labels = {{"node", std::to_string(n)}};
    node_traffic_[n].local_read_bytes =
        obs_.GetCounter("numa.local_read_bytes", labels);
    node_traffic_[n].remote_read_bytes =
        obs_.GetCounter("numa.remote_read_bytes", labels);
    node_traffic_[n].model_read_bytes =
        obs_.GetCounter("numa.model_read_bytes", labels);
    node_traffic_[n].updates = obs_.GetCounter("numa.updates", labels);
    node_traffic_[n].flops = obs_.GetCounter("numa.flops", labels);
  }
  const numa::Topology& topo = options_.topology;
  const int nw = options_.num_threads;
  // Round-robin workers over nodes so every socket serves traffic at any
  // thread count (core ids are node-major: node n owns cores
  // [n*cores_per_node, (n+1)*cores_per_node)).
  worker_cores_.reserve(nw);
  worker_nodes_.reserve(nw);
  for (int w = 0; w < nw; ++w) {
    const numa::NodeId node = w % topo.num_nodes;
    const int slot = (w / topo.num_nodes) % topo.cores_per_node;
    const numa::CoreId core = node * topo.cores_per_node + slot;
    worker_cores_.push_back(core);
    worker_nodes_.push_back(node);
  }
}

ServingEngine::~ServingEngine() { Stop(); }

std::shared_ptr<const ServingEngine::FamilyTable> ServingEngine::Table()
    const {
  return std::atomic_load_explicit(&table_, std::memory_order_acquire);
}

const ServingEngine::FamilyState* ServingEngine::FamilyTable::Find(
    const std::string& family) const {
  const auto it = ids.find(family);
  return it == ids.end() ? nullptr : &families[it->second];
}

int ServingEngine::num_families() const {
  return static_cast<int>(Table()->families.size());
}

Status ServingEngine::RegisterFamily(const std::string& family,
                                     const models::ModelSpec* spec,
                                     const ServingFamilyOptions& fopts) {
  if (spec == nullptr) {
    return Status::InvalidArgument("family needs a ModelSpec");
  }
  if (running_.load(std::memory_order_acquire) || stopped_) {
    return Status::FailedPrecondition(
        "families must be registered before Start()");
  }
  if (fopts.traffic.dim == 0) {
    return Status::InvalidArgument("traffic estimate needs dim: " + family);
  }
  // Refused up front rather than CHECK-failing in a worker: quantized
  // serving needs the spec's dequantize-free int8 kernel.
  if (fopts.quantized && !spec->SupportsQuantizedPredict()) {
    return Status::InvalidArgument(
        "family " + family + ": spec " + spec->name() +
        " does not support quantized scoring");
  }
  std::lock_guard<std::mutex> lk(register_mu_);
  // Re-checked under the lock: Start() holds register_mu_ for its whole
  // setup, so a registration racing Start() either lands before the
  // worker pool snapshots the table or is refused here -- never between.
  if (running_.load(std::memory_order_acquire) || stopped_) {
    return Status::FailedPrecondition(
        "families must be registered before Start()");
  }
  const auto current = Table();
  if (current->ids.count(family) > 0) {
    return Status::InvalidArgument("family already registered: " + family);
  }
  FamilyState fs;
  fs.family = std::make_shared<ModelFamily>(family, allocator_, fopts);
  fs.spec = spec;
  fs.traffic = fopts.traffic;
  RequestBatcher::Options bopts = fopts.batch.value_or(options_.batch);
  // Engine-level trace sampling flows into the queue unless the family
  // set its own; a disabled registry keeps the spans ring empty anyway
  // (spans_ has capacity 0), but skipping the sampler saves the branch.
  if (options_.telemetry && bopts.trace_sample_every == 0) {
    bopts.trace_sample_every = options_.trace_sample_every;
  }
  fs.queue = batcher_.AddQueue(bopts, family);
  // Queue ids and family ids stay aligned: families[id].queue == id, so
  // a popped Batch::family indexes the table directly.
  DW_CHECK_EQ(fs.queue, static_cast<FamilyId>(current->families.size()));
  // The family's serving instruments, resolved once; workers hold these
  // raw pointers and never touch the registry again.
  {
    const obs::Labels labels = {{"family", family}};
    fs.inst.rows = obs_.GetCounter("serve.rows", labels);
    fs.inst.batches = obs_.GetCounter("serve.batches", labels);
    fs.inst.local_replica_batches =
        obs_.GetCounter("serve.local_replica_batches", labels);
    fs.inst.remote_replica_batches =
        obs_.GetCounter("serve.remote_replica_batches", labels);
    fs.inst.id_rows = obs_.GetCounter("store.id_rows", labels);
    fs.inst.local_store_rows =
        obs_.GetCounter("store.local_gather_rows", labels);
    fs.inst.remote_store_rows =
        obs_.GetCounter("store.remote_gather_rows", labels);
    fs.inst.store_local_bytes =
        obs_.GetCounter("store.local_gather_bytes", labels);
    fs.inst.store_remote_bytes =
        obs_.GetCounter("store.remote_gather_bytes", labels);
    fs.inst.key_rows = obs_.GetCounter("store.key_rows", labels);
    fs.inst.key_misses = obs_.GetCounter("store.key_misses", labels);
    fs.inst.store_delta_bytes = obs_.GetCounter("store.delta_bytes", labels);
    fs.inst.store_full_bytes = obs_.GetCounter("store.full_bytes", labels);
    fs.inst.store_evictions = obs_.GetCounter("store.evictions", labels);
    // The dispatch level is resolved once per process, so the label is
    // fixed here; `weights` says which replica the batched kernel reads.
    obs::Labels kernel_labels = labels;
    kernel_labels.emplace_back(
        "kernel", kernels::ToString(kernels::ActiveKernelLevel()));
    kernel_labels.emplace_back("weights",
                               fopts.quantized ? "int8" : "f64");
    fs.inst.kernel_rows =
        obs_.GetCounter("serve.kernel_rows", std::move(kernel_labels));
    fs.inst.latency_ms = obs_.GetHistogram("serve.latency_ms", labels);
    fs.inst.staleness_ms = obs_.GetHistogram("serve.staleness_ms", labels);
    fs.inst.versions_behind =
        obs_.GetHistogram("serve.versions_behind", labels);
    for (int st = 0; st < obs::kNumStages; ++st) {
      obs::Labels stage_labels = labels;
      stage_labels.emplace_back("stage", obs::StageName(st));
      fs.inst.stage_us[st] =
          obs_.GetHistogram("serve.stage_us", std::move(stage_labels));
    }
  }
  // The admission controller's ids stay aligned too: the batcher indexes
  // it by FamilyId at admission time. Its prior is seeded from the same
  // traffic estimate the replication chooser used, against the
  // replication that chooser actually picked.
  opt::AdmissionFamilyProfile prof;
  prof.name = family;
  prof.dim = fopts.traffic.dim;
  prof.expected_batch_rows = fopts.traffic.expected_batch_rows;
  prof.model_touch_fraction = fopts.traffic.model_touch_fraction;
  prof.model_sharing_sockets =
      fs.family->replication() == Replication::kPerMachine
          ? options_.topology.num_nodes
          : 1;
  DW_CHECK_EQ(admission_.AddFamily(prof), fs.queue);
  for (const auto& [client, weight] : fopts.client_weights) {
    batcher_.SetClientWeight(fs.queue, client, weight);
  }
  auto next = std::make_shared<FamilyTable>(*current);
  next->ids[family] = fs.queue;
  next->families.push_back(std::move(fs));
  std::atomic_store_explicit(
      &table_, std::shared_ptr<const FamilyTable>(std::move(next)),
      std::memory_order_release);
  return Status::OK();
}

Status ServingEngine::RegisterStore(const std::string& family,
                                    matrix::Index rows, matrix::Index dim,
                                    const StoreOptions& sopts) {
  if (rows == 0 || dim == 0) {
    return Status::InvalidArgument("feature store needs rows and dim: " +
                                   family);
  }
  std::lock_guard<std::mutex> lk(register_mu_);
  // Same freeze discipline as RegisterFamily: the COW table is immutable
  // once workers snapshot it, so stores attach before Start() only.
  if (running_.load(std::memory_order_acquire) || stopped_) {
    return Status::FailedPrecondition(
        "stores must be registered before Start()");
  }
  const auto current = Table();
  const FamilyState* fs = current->Find(family);
  if (fs == nullptr) {
    return Status::NotFound("unknown family: " + family);
  }
  if (fs->store != nullptr) {
    return Status::InvalidArgument("store already registered for family " +
                                   family);
  }
  if (dim != fs->family->dim()) {
    return Status::InvalidArgument(
        "store dim " + std::to_string(dim) + " does not match family dim " +
        std::to_string(fs->family->dim()) + " for " + family);
  }
  auto store =
      std::make_shared<FeatureStore>(family, allocator_, rows, dim, sopts);
  // The store writes its own publish odometers onto the family's
  // counters, so tuner-driven Republish flips (which bypass the engine's
  // PublishStore wrapper) are accounted exactly like caller publishes.
  const FamilyInstruments& inst = fs->inst;
  store->AttachInstruments(inst.store_delta_bytes, inst.store_full_bytes,
                           inst.store_evictions);
  auto next = std::make_shared<FamilyTable>(*current);
  next->families[fs->queue].store = std::move(store);
  std::atomic_store_explicit(
      &table_, std::shared_ptr<const FamilyTable>(std::move(next)),
      std::memory_order_release);
  return Status::OK();
}

ModelFamily* ServingEngine::FindFamily(const std::string& family) const {
  const auto table = Table();
  const FamilyState* fs = table->Find(family);
  return fs == nullptr ? nullptr : fs->family.get();
}

const FeatureStore* ServingEngine::FindStore(const std::string& family) const {
  const auto table = Table();
  const FamilyState* fs = table->Find(family);
  return fs == nullptr ? nullptr : fs->store.get();
}

FeatureStore* ServingEngine::StoreToPublish(const std::string& family) const {
  const auto table = Table();
  const FamilyState* fs = table->Find(family);
  DW_CHECK(fs != nullptr) << "publish to unregistered family " << family;
  DW_CHECK(fs->store != nullptr)
      << "no feature store registered for family " << family;
  return fs->store.get();
}

uint64_t ServingEngine::PublishStore(const std::string& family,
                                     const std::vector<double>& row_major) {
  return StoreToPublish(family)->Publish(row_major);
}

StorePublishReport ServingEngine::PublishStoreDelta(
    const std::string& family, const std::vector<uint64_t>& keys,
    const std::vector<double>& row_major) {
  return StoreToPublish(family)->PublishDelta(keys, row_major);
}

uint64_t ServingEngine::Publish(const std::string& family,
                                const std::vector<double>& weights) {
  ModelFamily* f = FindFamily(family);
  DW_CHECK(f != nullptr) << "publish to unregistered family " << family;
  return f->Publish(weights);
}

uint64_t ServingEngine::Publish(const std::string& family,
                                const engine::ModelExport& exported) {
  ModelFamily* f = FindFamily(family);
  DW_CHECK(f != nullptr) << "publish to unregistered family " << family;
  return f->Publish(exported.weights, exported.exported_at);
}

Status ServingEngine::Start() {
  // Held through worker spawn and the running_ store: a RegisterFamily
  // racing Start() must not slip a family in after the workers cached
  // the table (their per-family state would be sized without it).
  std::lock_guard<std::mutex> lk(register_mu_);
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("already started");
  }
  if (stopped_) {
    // Stop() shuts the batcher down for good (drain semantics); a stopped
    // engine cannot be revived -- construct a fresh one.
    return Status::FailedPrecondition("engine was stopped; not restartable");
  }
  const auto table = Table();
  if (table->families.empty()) {
    return Status::FailedPrecondition("no families registered");
  }
  for (const FamilyState& fs : table->families) {
    if (fs.family->current_version() == 0) {
      return Status::FailedPrecondition("no model published for family " +
                                        fs.family->name());
    }
    // A registered store promises the id-keyed form works; starting with
    // an empty table would make every Score(family, row_id) fail until
    // the first refresh lands.
    if (fs.store != nullptr && fs.store->current_version() == 0) {
      return Status::FailedPrecondition(
          "no feature table published for family " + fs.family->name());
    }
  }
  // The family set is final (RegisterFamily refuses once running_ is
  // set, checked under register_mu_ which we hold): freeze a raw pointer
  // for the admission hot path. table_ keeps the object alive.
  frozen_table_.store(table.get(), std::memory_order_release);
  const int nw = num_workers();
  workers_.reserve(nw);
  for (int w = 0; w < nw; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

opt::PlacementTuner* ServingEngine::EnableTuner(
    const opt::TunerOptions& topts) {
  std::lock_guard<std::mutex> lk(register_mu_);
  // The tuner diffs live registry counters; before Start() there is no
  // traffic to observe, and after Stop() there is nothing to migrate.
  DW_CHECK(running_.load(std::memory_order_acquire))
      << "EnableTuner: start the engine first";
  DW_CHECK(tuner_ == nullptr) << "tuner already enabled";
  DW_CHECK(options_.telemetry)
      << "the tuner is blind without telemetry: every observed rate on a "
         "disabled registry reads 0";
  tuner_ = std::make_unique<opt::PlacementTuner>(options_.topology, &obs_,
                                                 topts);
  // The family set froze at Start(), so this walk sees every family.
  for (const FamilyState& fs : Table()->families) {
    tuner_->AddFamily(fs.family.get(), fs.store.get(), &admission_, fs.queue,
                      fs.traffic);
  }
  tuner_->Start();
  return tuner_.get();
}

void ServingEngine::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  // Tuner first: no migration may land while the drain runs down, and its
  // scan thread holds raw pointers into the family table, which must
  // outlive it (keep this order).
  if (tuner_ != nullptr) tuner_->Stop();
  batcher_.Shutdown();
  for (auto& t : workers_) t.join();
  workers_.clear();
  running_.store(false, std::memory_order_release);
  stopped_ = true;
}

StatusOr<std::future<double>> ServingEngine::Score(
    const std::string& family, std::vector<Index> indices,
    std::vector<double> values, ClientId client) {
  return Admit(family, ScoreRequest::Carried(std::move(indices),
                                             std::move(values),
                                             std::move(client)));
}

StatusOr<std::future<double>> ServingEngine::Score(const std::string& family,
                                                   Index row_id,
                                                   ClientId client) {
  return Admit(family, ScoreRequest::RowId(row_id, std::move(client)));
}

StatusOr<std::future<double>> ServingEngine::ScoreKey(
    const std::string& family, uint64_t key, ClientId client) {
  return Admit(family, ScoreRequest::Key(key, std::move(client)));
}

StatusOr<double> ServingEngine::ScoreSync(const std::string& family,
                                          std::vector<Index> indices,
                                          std::vector<double> values,
                                          ClientId client) {
  return AwaitScore(Score(family, std::move(indices), std::move(values),
                          std::move(client)));
}

StatusOr<double> ServingEngine::ScoreSync(const std::string& family,
                                          Index row_id, ClientId client) {
  return AwaitScore(Score(family, row_id, std::move(client)));
}

StatusOr<double> ServingEngine::ScoreKeySync(const std::string& family,
                                             uint64_t key, ClientId client) {
  return AwaitScore(ScoreKey(family, key, std::move(client)));
}

StatusOr<std::future<double>> ServingEngine::Admit(const std::string& family,
                                                   ScoreRequest req) {
  // Span anchor: validation from here to enqueue is the admit stage.
  // One clock read per submit, skipped on the no-telemetry baseline.
  const auto admitted_at = options_.telemetry
                               ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
  // Post-Start the table is frozen and the raw pointer skips the
  // shared_ptr machinery; pre-Start (cold setup/validation calls) fall
  // back to the COW load that tolerates concurrent registration.
  std::shared_ptr<const FamilyTable> keepalive;
  const FamilyTable* table = frozen_table_.load(std::memory_order_acquire);
  if (table == nullptr) {
    keepalive = Table();
    table = keepalive.get();
  }
  const FamilyState* found = table->Find(family);
  if (found == nullptr) {
    return Status::NotFound("unknown family: " + family);
  }
  const FamilyState& fs = *found;
  // The kind's own checks. Their order fixes which Status code a request
  // failing several of them gets; the admission parity tests pin it.
  const bool keyed = req.kind != RequestKind::kCarried;
  if (keyed && fs.store == nullptr) {
    return Status::FailedPrecondition(
        "no feature store registered for family " + family);
  }
  if (fs.family->current_version() == 0) {
    return Status::FailedPrecondition("no model published for family " +
                                      family);
  }
  if (!keyed) {
    // The family's dimension is fixed at registration, so admission can
    // validate feature indices once, and the check holds for whichever
    // version eventually scores the batch. Requests cross a trust
    // boundary: an out-of-range index would read past the replica inside
    // SparseVectorView::Dot.
    const Index dim = fs.family->dim();
    std::vector<Index>& indices = req.indices;
    if (indices.empty()) {
      // Explicit dense form: value k scores against coordinate k.
      if (req.values.size() > dim) {
        return Status::InvalidArgument("dense row wider than the model");
      }
    } else {
      // The validation scan doubles as an identity test: an
      // identity-indexed row is rewritten to the dense form for free, so
      // it skips index traffic and takes the tiled kernel downstream.
      bool identity = indices.size() <= dim;
      Index pos = 0;
      for (const Index i : indices) {
        if (i >= dim) {
          return Status::InvalidArgument("feature index out of range");
        }
        identity = identity && i == pos++;
      }
      if (identity && indices.size() == req.values.size()) {
        indices.clear();
      }
    }
  } else {
    // Same trust boundary as the carried form's index scan, same Status
    // code: the table shape is fixed at registration, so this one check
    // holds for whichever version eventually serves the batch (an
    // out-of-range id would read past a shard in RowForNode).
    if (req.kind == RequestKind::kRowId && req.row_id >= fs.store->rows()) {
      return Status::InvalidArgument("row id out of range for family " +
                                     family);
    }
    if (fs.store->current_version() == 0) {
      return Status::FailedPrecondition(
          "no feature table published for family " + family);
    }
    // The admission-time analogue of the row-id range check, probed
    // lock-free against the current index. Unlike the shape check this
    // one is best-effort -- a delta landing after admission can still
    // evict the key, which the worker surfaces as a StoreKeyMiss -- but
    // it turns the common case (a key that was never published, or
    // evicted long ago) into a cheap synchronous NotFound instead of a
    // queued failure.
    if (req.kind == RequestKind::kKey && !fs.store->ContainsKey(req.key)) {
      fs.inst.key_misses->Add(1);
      return Status::NotFound(
          "key " + std::to_string(req.key) +
          " not present in the feature store for family " + family);
    }
  }
  // Without workers a queued promise would never resolve (ScoreSync would
  // hang); the batcher itself only rejects after Shutdown.
  if (!running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("engine not started");
  }
  return batcher_.Submit(fs.queue, std::move(req), admitted_at);
}

void ServingEngine::WorkerLoop(int worker_id) {
  SetCurrentThreadName("dw-serve-" + std::to_string(worker_id));
  const numa::Topology& topo = options_.topology;
  const numa::NodeId node = worker_nodes_[worker_id];
  (void)PinCurrentThreadToCpu(
      topo.PhysicalCpuOfCore(worker_cores_[worker_id], NumOnlineCpus()));
  const bool batched = options_.scoring == ScoringMode::kBatched;
  // One table load for the worker's whole life: the set is frozen once
  // Start() succeeds (RegisterFamily refuses while running).
  const auto table = Table();

  Batch batch;
  // Per-batch scratch, reused across batches (no per-batch allocation
  // once warm).
  std::vector<matrix::SparseVectorView> views;
  std::vector<size_t> view_req;
  std::vector<double> scores;
  std::vector<size_t> traced_rows;
  while (batcher_.NextBatch(&batch)) {
    // Wall time of this batch's whole service (snapshot acquire, view
    // build, kernel, promise resolution) -- the measured quantity that
    // calibrates the admission controller's cost estimate online.
    WallTimer batch_timer;
    // Stage boundary: formed_at -> picked_at is the batch-form stage
    // (a ready batch waiting for a free worker).
    const auto picked_at = std::chrono::steady_clock::now();
    const FamilyState& fs = table->families[batch.family];
    const FamilyInstruments& inst = fs.inst;
    // One model acquire per BATCH: the snapshot is pinned for the whole
    // scan, so a concurrent Publish can never tear a batch across
    // versions. The null retry covers the first-publish window where the
    // version counter is visible a beat before the snapshot pointer
    // (admission gates on the counter).
    auto snap = fs.family->Acquire();
    while (snap == nullptr) {
      std::this_thread::yield();
      snap = fs.family->Acquire();
    }
    // One STORE acquire per batch, same discipline: every id- or
    // key-keyed row in the batch gathers from a single table version, so
    // a concurrent PublishStore/PublishStoreDelta can refresh the store
    // mid-flight without ever tearing a batch across feature versions
    // (keys resolve through the SNAPSHOT's index, not the live one).
    std::shared_ptr<const FeatureStoreSnapshot> store_snap;
    for (const ScoreRequest& req : batch.requests) {
      if (req.kind != RequestKind::kCarried) {
        store_snap = fs.store->Acquire();
        while (store_snap == nullptr) {
          std::this_thread::yield();
          store_snap = fs.store->Acquire();
        }
        break;
      }
    }
    const double* weights = snap->WeightsForNode(node);
    const bool replica_local = snap->ReplicaNodeFor(node) == node;
    // Quantized serving is a batched-kernel property: scalar mode (the
    // per-row bench baseline) keeps reading the f64 replica. A family
    // registered quantized builds int8 replicas on every Publish.
    const bool use_int8 = batched && snap->quantized();
    // Staleness of the version this batch serves: how long ago its
    // weights left the trainer, and how many publishes have landed since.
    const auto acquired_at = std::chrono::steady_clock::now();
    const double staleness_ms =
        std::chrono::duration<double, std::milli>(acquired_at -
                                                  snap->exported_at())
            .count();
    // Clamped: Publish() orders counter-before-pointer, but a belt to
    // that suspender keeps a reordering bug from poisoning the stats
    // with a 2^64 underflow.
    const uint64_t cur_version = fs.family->current_version();
    const uint64_t versions_behind =
        cur_version > snap->version() ? cur_version - snap->version() : 0;

    // Views for every row: carried rows view their own payload; id- and
    // key-keyed rows view the store snapshot directly in the explicit
    // dense form -- zero copies, and the feature bytes come from
    // wherever the store's placement put the row (the quantity the
    // Fig. 9-style bench varies). A key the snapshot's index no longer
    // holds (evicted since admission) resolves its promise with
    // StoreKeyMiss here and drops out of the batch, so the kernel below
    // scores a compacted view array; view_req maps each view back to its
    // request.
    const size_t submitted_rows = batch.rows();
    views.clear();
    views.reserve(submitted_rows);
    view_req.clear();
    view_req.reserve(submitted_rows);
    traced_rows.clear();
    numa::AccessCounters delta;
    uint64_t id_rows = 0;
    uint64_t key_rows = 0;
    uint64_t key_misses = 0;
    uint64_t local_store_rows = 0;
    uint64_t remote_store_rows = 0;
    uint64_t store_local_bytes = 0;
    uint64_t store_remote_bytes = 0;
    for (size_t ri = 0; ri < batch.requests.size(); ++ri) {
      ScoreRequest& req = batch.requests[ri];
      Index slot = 0;
      switch (req.kind) {
        case RequestKind::kCarried:
          views.push_back(req.View());
          view_req.push_back(ri);
          // Carried payload arrives node-local (the batch was just
          // written). Dense requests carry no index array.
          delta.local_read_bytes += req.values.size() * sizeof(double) +
                                    req.indices.size() * sizeof(Index);
          continue;
        case RequestKind::kRowId:
          slot = req.row_id;
          if (!store_snap->SlotLive(slot)) {
            // The row id named a slot a delta has since evicted; same
            // surfacing as a key miss (the row-id form predates eviction,
            // so this only fires on stores mixing deltas with id traffic).
            ++key_misses;
            req.result.set_exception(std::make_exception_ptr(
                StoreKeyMiss(fs.family->name(), static_cast<uint64_t>(slot))));
            continue;
          }
          break;
        case RequestKind::kKey: {
          const std::optional<Index> found = store_snap->LookupSlot(req.key);
          if (!found.has_value()) {
            ++key_misses;
            req.result.set_exception(std::make_exception_ptr(
                StoreKeyMiss(fs.family->name(), req.key)));
            continue;
          }
          slot = *found;
          ++key_rows;
          break;
        }
      }
      // A keyed row resolved to a live slot. Feed the eviction clock: a
      // gathered page is a hot page.
      store_snap->TouchRow(slot);
      const size_t fdim = store_snap->dim();
      views.push_back({nullptr, store_snap->RowForNode(node, slot), fdim});
      view_req.push_back(ri);
      ++id_rows;
      const uint64_t feature_bytes = fdim * sizeof(double);
      if (store_snap->OwnerNodeFor(node, slot) == node) {
        ++local_store_rows;
        store_local_bytes += feature_bytes;
        delta.local_read_bytes += feature_bytes;
      } else {
        ++remote_store_rows;
        store_remote_bytes += feature_bytes;
        delta.remote_read_bytes += feature_bytes;
      }
    }
    const size_t rows = views.size();
    // Stage boundary: picked_at -> gathered_at is the gather stage
    // (snapshot acquires + view build + store row gathers).
    const auto gathered_at = std::chrono::steady_clock::now();

    // The kernel. Scalar mode scores every row before resolving any, so
    // the score/complete stage boundary means the same thing in both
    // modes (the pre-PredictBatch code resolved row r before scoring
    // r+1, which folded the kernel into the completion loop).
    scores.resize(rows);
    if (use_int8) {
      fs.spec->PredictBatchQuantized(snap->QuantizedWeightsForNode(node),
                                     snap->int8_scale(), snap->dim(),
                                     views.data(), rows, scores.data());
    } else if (batched) {
      fs.spec->PredictBatch(weights, snap->dim(), views.data(), rows,
                            scores.data());
    } else {
      for (size_t r = 0; r < rows; ++r) {
        scores[r] = fs.spec->Predict(weights, views[r]);
      }
    }
    const auto scored_at = std::chrono::steady_clock::now();

    uint64_t batch_nnz = 0;
    for (size_t r = 0; r < rows; ++r) {
      ScoreRequest& req = batch.requests[view_req[r]];
      req.result.set_value(scores[r]);
      // Stamped after set_value so the recorded latency covers the full
      // submit-to-resolution interval, including this batch's scoring.
      const auto resolved_at = std::chrono::steady_clock::now();
      const uint64_t nnz = views[r].nnz;
      batch_nnz += nnz;
      if (!batched) {
        // Scalar mode re-gathers the replica per row.
        const uint64_t model_bytes = nnz * sizeof(double);
        if (replica_local) {
          delta.model_read_bytes += model_bytes;
        } else {
          delta.remote_read_bytes += model_bytes;
        }
      }
      delta.flops += 2 * nnz;
      ++delta.updates;
      inst.latency_ms->Record(
          std::chrono::duration<double, std::milli>(resolved_at -
                                                    req.enqueued_at)
              .count());
      // Per-row stages: the admit time rode in on the request, the queue
      // stage ends when the flush policy formed this batch.
      if (req.admit_us > 0.0) {
        inst.stage_us[static_cast<int>(obs::Stage::kAdmit)]->Record(
            req.admit_us);
      }
      inst.stage_us[static_cast<int>(obs::Stage::kQueue)]->Record(
          std::chrono::duration<double, std::micro>(batch.formed_at -
                                                    req.enqueued_at)
              .count());
      if (req.traced) traced_rows.push_back(view_req[r]);
    }
    const auto completed_at = std::chrono::steady_clock::now();
    if (batched && rows > 0) {
      // The spec reports what its batched kernel actually streams: the
      // blocked GLM kernels read each model tile once per row chunk; the
      // reference default re-gathers per row like scalar mode.
      const uint64_t model_bytes =
          use_int8 ? fs.spec->PredictBatchQuantizedModelBytes(
                         snap->dim(), batch_nnz, rows)
                   : fs.spec->PredictBatchModelBytes(snap->dim(), batch_nnz,
                                                     rows);
      if (replica_local) {
        delta.model_read_bytes += model_bytes;
      } else {
        delta.remote_read_bytes += model_bytes;
      }
    }
    // Feed the measured service time back into admission BEFORE the
    // stats merge: the next Submit's drain estimate should already see
    // this batch's evidence.
    admission_.ReportBatch(batch.family, rows, batch_timer.Seconds());

    // Batch-level stages, row-weighted so the stage histograms' means
    // stay per-row (one Record call, not `rows` identical ones).
    const auto us = [](std::chrono::steady_clock::duration d) {
      return std::chrono::duration<double, std::micro>(d).count();
    };
    const double batch_form_us = us(picked_at - batch.formed_at);
    const double gather_us = us(gathered_at - picked_at);
    const double score_us = us(scored_at - gathered_at);
    const double complete_us = us(completed_at - scored_at);
    inst.stage_us[static_cast<int>(obs::Stage::kBatchForm)]->Record(
        batch_form_us, rows);
    inst.stage_us[static_cast<int>(obs::Stage::kGather)]->Record(gather_us,
                                                                 rows);
    inst.stage_us[static_cast<int>(obs::Stage::kScore)]->Record(score_us,
                                                                rows);
    inst.stage_us[static_cast<int>(obs::Stage::kComplete)]->Record(
        complete_us, rows);

    // Family counters: lock-free sharded adds, no spinlock.
    inst.batches->Increment();
    inst.rows->Add(rows);
    if (batched) inst.kernel_rows->Add(rows);
    (replica_local ? inst.local_replica_batches
                   : inst.remote_replica_batches)
        ->Increment();
    inst.staleness_ms->Record(staleness_ms);
    inst.versions_behind->Record(static_cast<double>(versions_behind));
    if (id_rows > 0) {
      inst.id_rows->Add(id_rows);
      inst.local_store_rows->Add(local_store_rows);
      inst.remote_store_rows->Add(remote_store_rows);
      inst.store_local_bytes->Add(store_local_bytes);
      inst.store_remote_bytes->Add(store_remote_bytes);
    }
    if (key_rows > 0) inst.key_rows->Add(key_rows);
    if (key_misses > 0) inst.key_misses->Add(key_misses);
    // Per-node logical traffic: the one record SimInput() reads back.
    const NodeTraffic& nt = node_traffic_[node];
    nt.local_read_bytes->Add(delta.local_read_bytes);
    nt.remote_read_bytes->Add(delta.remote_read_bytes);
    nt.model_read_bytes->Add(delta.model_read_bytes);
    nt.updates->Add(delta.updates);
    nt.flops->Add(delta.flops);

    // Sampled spans: stage boundaries chain (queue ends at formed_at,
    // batch-form at picked_at, ...), so the stages sum to total_us
    // exactly, up to the shared batch-level tail.
    for (const size_t r : traced_rows) {
      const ScoreRequest& req = batch.requests[r];
      obs::SpanRecord rec;
      rec.family = fs.family->name();
      rec.client = req.client.str();
      rec.kind = ToString(req.kind);
      rec.batch_rows = rows;
      rec.stage_us[static_cast<int>(obs::Stage::kAdmit)] = req.admit_us;
      rec.stage_us[static_cast<int>(obs::Stage::kQueue)] =
          us(batch.formed_at - req.enqueued_at);
      rec.stage_us[static_cast<int>(obs::Stage::kBatchForm)] = batch_form_us;
      rec.stage_us[static_cast<int>(obs::Stage::kGather)] = gather_us;
      rec.stage_us[static_cast<int>(obs::Stage::kScore)] = score_us;
      rec.stage_us[static_cast<int>(obs::Stage::kComplete)] = complete_us;
      rec.total_us = req.admit_us + us(completed_at - req.enqueued_at);
      spans_.Record(std::move(rec));
    }
  }
}

// Read from the same instruments a registry snapshot exports (no lock
// beyond the batcher's and the admission controller's own). With
// options_.telemetry == false every counter here reads zero.
ServingStats ServingEngine::Stats() const {
  ServingStats s;
  const auto table = Table();
  s.families.reserve(table->families.size());
  for (const FamilyState& fs : table->families) {
    const FamilyInstruments& inst = fs.inst;
    FamilyServingStats out;
    out.family = fs.family->name();
    const uint64_t batches = inst.batches->Value();
    if (batches > 0) {
      out.mean_batch_rows = static_cast<double>(inst.rows->Value()) /
                            static_cast<double>(batches);
    }
    RequestBatcher::QueueStats qs = batcher_.queue_stats(fs.queue);
    out.clients = std::move(qs.clients);
    out.flush_size = qs.flush_size;
    out.flush_deadline = qs.flush_deadline;
    out.flush_drain = qs.flush_drain;
    out.rejected = qs.rejected_full + qs.rejected_cost;
    out.rejected_cost = qs.rejected_cost;
    const opt::AdmissionEstimate est = admission_.Estimate(fs.queue);
    out.est_row_us = est.est_row_sec * 1e6;
    out.measured_row_us_ewma = est.measured_row_sec_ewma * 1e6;
    out.local_store_rows = inst.local_store_rows->Value();
    out.remote_store_rows = inst.remote_store_rows->Value();
    s.families.push_back(std::move(out));
  }
  return s;
}

numa::SimulationInput ServingEngine::SimInput() const {
  const numa::Topology& topo = options_.topology;
  numa::SimulationInput in(topo.num_nodes);
  for (int n = 0; n < topo.num_nodes; ++n) {
    const NodeTraffic& nt = node_traffic_[n];
    numa::AccessCounters& c = in.traffic.per_node[n];
    c.local_read_bytes = nt.local_read_bytes->Value();
    c.remote_read_bytes = nt.remote_read_bytes->Value();
    c.model_read_bytes = nt.model_read_bytes->Value();
    c.updates = nt.updates->Value();
    c.flops = nt.flops->Value();
  }
  for (const numa::NodeId node : worker_nodes_) ++in.active_workers[node];
  // Read-only serving never writes shared lines, but a PerMachine replica
  // is still read by every socket; the memory model charges the remote
  // reads accounted above. model_bytes is the served working set: one
  // replica per family (what a node's LLC must hold to serve everything).
  in.model_sharing_sockets = 1;
  uint64_t served_bytes = 0;
  const auto table = Table();
  for (const FamilyState& fs : table->families) {
    if (fs.family->replication() == Replication::kPerMachine) {
      in.model_sharing_sockets = topo.num_nodes;
    }
    served_bytes += static_cast<uint64_t>(fs.family->dim()) * sizeof(double);
  }
  in.model_bytes = served_bytes;
  return in;
}

}  // namespace dw::serve
