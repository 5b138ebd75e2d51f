// The model serving engine: a concurrent scoring service over trained
// models (ROADMAP north star: heavy read traffic, as fast as the hardware
// allows), serving many named model FAMILIES at once.
//
// Architecture: callers RegisterFamily() each model they serve (wide LR,
// narrow SVM, ...), each with its own ModelSpec and traffic estimate; each
// ModelFamily picks its replication through the opt:: cost model
// (override for benches). Producers Score(family, row); the
// RequestBatcher coalesces each family's requests in its own bounded
// queue; a pool of worker threads -- pinned to physical CPUs through the
// same virtual-topology map the trainer uses -- pops single-family
// mini-batches round-robin and scores every row with that family's
// ModelSpec against the family's replica on the worker's own NUMA node.
// Inference never writes shared state, so with kPerNode replication the
// hot path touches only node-local memory: the read-mostly endpoint of
// the paper's Sec. 3.3 tradeoff.
//
// Requests come in three forms, one ScoreRequest kind each. CARRIED
// requests ship their own feature vector (Score(family, indices,
// values)). ROW-ID requests name a row in the family's registered
// serve::FeatureStore (Score(family, row_id)), and KEY requests name an
// entity key the store's index resolves (ScoreKey(family, key)): the
// payload is one integer, and the worker gathers the features at scoring
// time from the store's placement on its own node -- the data/worker
// collocation of the paper's Fig. 9 applied to serving-time feature
// fetch. All three share one admission path, so analogous failures
// report identical Status codes. Stores hot-swap atomically like model
// snapshots, and a worker acquires ONE store snapshot per batch, so a
// refresh can never tear the rows of an in-flight batch across table
// versions.
//
// Workers account their logical traffic with numa::AccessCounters exactly
// like training epochs do, so a serving run can be priced by the same
// numa::MemoryModel on the paper's topologies (serve_test and
// feature_store_test check the Fig. 8/9 orderings that way).
//
// TELEMETRY: the engine owns an obs::Registry and every serving counter
// is a registry instrument -- lock-free sharded counters for rows/bytes,
// bounded-error histograms for latency, staleness, and the per-stage
// decomposition (admit/queue/batch-form/gather/score/complete), with the
// worker's NUMA traffic drained into per-node numa.* counters so
// serve-time local/remote DRAM requests are visible the way the paper
// reports them for training. The registry is the one record of those
// numbers: a caller reads a family's numbers from telemetry().Snapshot()
// by exported name and labels (RegistrySnapshot::CounterValue("serve.rows",
// {{"family", name}})), and live object state from its owner (FindFamily()
// for replication and version, FindStore() for the table, SimInput() for
// traffic). Stats() keeps only the ten per-family numbers a benchmark
// report reads, computed from the same instruments, plus the client
// roster no instrument records. A sampled obs::SpanRecorder keeps whole
// per-request stage breakdowns; options_.telemetry=false swaps in a no-op
// registry (the baseline bench_serving's telemetry-overhead gate measures
// against).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "models/model_spec.h"
#include "numa/memory_model.h"
#include "numa/topology.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "opt/admission_controller.h"
#include "opt/placement_tuner.h"
#include "serve/feature_store.h"
#include "serve/model_family.h"
#include "serve/request_batcher.h"
#include "util/status.h"

namespace dw::serve {

/// How a worker scores a flushed mini-batch.
enum class ScoringMode {
  /// One ModelSpec::PredictBatch call per batch: the GLM kernels tile the
  /// node-local replica through the cache hierarchy (column-blocked for
  /// dense rows, monotone-cursor gather for sparse rows), so each model
  /// block is read once per batch instead of once per row.
  kBatched,
  /// N ModelSpec::Predict calls, one per row; the pre-PredictBatch
  /// behavior, kept as a baseline (every row re-reads the replica, which
  /// is the traffic the replication comparison prices).
  kScalar,
};

const char* ToString(ScoringMode m);

/// Thrown through a KEY-KEYED request's future when the key vanished
/// between admission and the gather: the worker resolves keys against the
/// batch's pinned store snapshot, and a key the admission check saw can
/// be evicted by a delta publish that lands in between. Callers holding
/// the raw future see this from .get(); ScoreKeySync translates it to
/// Status::NotFound. Counted per family as store.key_misses.
class StoreKeyMiss : public std::runtime_error {
 public:
  StoreKeyMiss(const std::string& family, uint64_t key)
      : std::runtime_error("key " + std::to_string(key) +
                           " not present in the feature store for family " +
                           family),
        key_(key) {}
  uint64_t key() const { return key_; }

 private:
  uint64_t key_;
};

struct ServingOptions {
  numa::Topology topology = numa::HostTopology();
  /// Scoring threads; -1 means one per virtual core. Workers are assigned
  /// to nodes round-robin so every socket serves traffic at any count,
  /// and each is pinned to a physical CPU through the topology map.
  int num_threads = -1;
  /// Default per-family queue options (overridable per family).
  RequestBatcher::Options batch;
  ScoringMode scoring = ScoringMode::kBatched;
  /// Full telemetry (registry instruments + stage histograms + sampled
  /// spans). false swaps in a DISABLED registry: every instrument write
  /// is a no-op and the registry snapshot is empty -- the baseline of
  /// bench_serving's telemetry-overhead gate, not a production mode.
  bool telemetry = true;
  /// Sample every Nth accepted request into the span ring; 0 disables.
  /// Forwarded into each family's RequestBatcher::Options (an explicit
  /// per-family trace_sample_every in ServingFamilyOptions::batch wins).
  uint64_t trace_sample_every = 64;
};

/// Per-family knobs at registration: the ModelFamily's own options plus
/// the engine's queue and fair-queuing knobs. Replication is NOT one of
/// them: the family derives it from `traffic` through
/// opt::ChooseModelPlacement unless the bench-only override is set.
/// `traffic.dim` is required (it also fixes the admission dimension
/// check), and the same estimate seeds the admission controller's
/// memory-model prior for the family's per-row service time. A
/// `quantized` family is scored through the spec's dequantize-free
/// PredictBatchQuantized kernel; RegisterFamily refuses it for specs
/// without SupportsQuantizedPredict(), and scalar-mode workers (the
/// bench baseline) keep scoring the f64 replica.
struct ServingFamilyOptions : FamilyOptions {
  /// Family-specific queue bounds; defaults to ServingOptions::batch.
  std::optional<RequestBatcher::Options> batch;
  /// Fair-queuing weights for known clients (relative shares of the
  /// family's batches and admission capacity). Clients not listed here
  /// get weight 1 on first Submit.
  std::vector<std::pair<ClientId, double>> client_weights;
};

/// The per-family serving numbers a benchmark report reads, plus the
/// client roster (order, weights, depth), which no instrument records.
/// Every other serving number is read from the registry by its exported
/// name (telemetry().Snapshot(), RegistrySnapshot::CounterValue and
/// friends) or from the object that owns it (FindFamily, FindStore).
struct FamilyServingStats {
  std::string family;
  /// The fair-queuing roster (client, weight, depth), first-seen order;
  /// per-client counts are queue.client_{accepted,rejected,served}.
  std::vector<RequestBatcher::RosterEntry> clients;
  /// serve.rows / serve.batches.
  double mean_batch_rows = 0.0;
  /// queue.flush_{size,deadline,drain}.
  uint64_t flush_size = 0;
  uint64_t flush_deadline = 0;
  uint64_t flush_drain = 0;
  /// queue.rejected_full + queue.rejected_cost: every back-pressure
  /// refusal; `rejected_cost` is the delay-budget subset.
  uint64_t rejected = 0;
  uint64_t rejected_cost = 0;
  /// admission.est_row_us and admission.measured_row_us: the calibrated
  /// per-row service estimate and the workers' measured EWMA behind it.
  double est_row_us = 0.0;
  double measured_row_us_ewma = 0.0;
  /// store.{local,remote}_gather_rows: id- and key-keyed rows gathered
  /// from the worker's own node and across the interconnect.
  uint64_t local_store_rows = 0;
  uint64_t remote_store_rows = 0;
};

struct ServingStats {
  std::vector<FamilyServingStats> families;  ///< registration order
};

/// Construct, RegisterFamily() + Publish() each model, Start(), then
/// Score(family, row).
class ServingEngine {
 public:
  explicit ServingEngine(ServingOptions options);
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Registers a named family served by `spec` (must outlive the engine).
  /// The family chooses its replication from the traffic estimate.
  /// Fails after Start() and on duplicate names.
  Status RegisterFamily(const std::string& family,
                        const models::ModelSpec* spec,
                        const ServingFamilyOptions& fopts);

  /// Registers a read-only feature table of `rows` x `dim` doubles for
  /// `family`, enabling the id-keyed request form Score(family, row_id).
  /// The table's placement across sockets (replicated vs sharded) is
  /// chosen by opt::ChooseStorePlacement from `sopts.reads_per_refresh`,
  /// `sopts.churn_per_refresh` and the table shape unless the bench-only
  /// `sopts.placement_override` pins it. `dim` must equal the family's
  /// model dimension (an id-keyed row feeds the family's PredictBatch
  /// directly). Fails after Start(), on unknown families, on duplicate
  /// stores, and on shape mismatches.
  Status RegisterStore(const std::string& family, matrix::Index rows,
                       matrix::Index dim, const StoreOptions& sopts = {});

  /// Publishes a new feature table version into `family`'s store
  /// (atomic hot-swap; callable any time, also while serving -- a batch
  /// in flight keeps gathering from the snapshot it acquired, so a
  /// refresh never tears a batch). `row_major` is rows x dim doubles,
  /// row r at offset r * dim. The store must be registered (checked).
  /// Returns the new table version.
  uint64_t PublishStore(const std::string& family,
                        const std::vector<double>& row_major);

  /// Publishes a DELTA into `family`'s store: upserts `keys[i]` with row
  /// `row_major[i*dim .. (i+1)*dim)`, writing each row once at a position
  /// no live version reads and cloning only the touched pages' row maps
  /// into a new snapshot (everything else is shared with the previous
  /// version), then hot-swapping it exactly like PublishStore. Row ids
  /// keep naming their keys. Refresh cost therefore scales with churned
  /// rows, not table size. When the store is at capacity, cold pages are
  /// evicted (clock over pages) to make room; evicted keys miss until
  /// re-published. The store must be registered (checked); a delta may
  /// also BOOTSTRAP a store that has never seen a full PublishStore
  /// (never-touched pages simply stay unallocated). Returns the publish
  /// report (new version + byte accounting).
  StorePublishReport PublishStoreDelta(const std::string& family,
                                       const std::vector<uint64_t>& keys,
                                       const std::vector<double>& row_major);

  /// Publishes a model version into `family` (atomic hot-swap; callable
  /// any time, also while serving). The family must be registered
  /// (checked). Returns the new version.
  uint64_t Publish(const std::string& family,
                   const std::vector<double>& weights);

  /// Publishes a trainer export: `server.Publish("ctr", engine.Export())`.
  /// Carries the export timestamp through for staleness accounting.
  uint64_t Publish(const std::string& family,
                   const engine::ModelExport& exported);

  /// Starts the worker pool. Fails unless at least one family is
  /// registered and every registered family has a published version.
  Status Start();

  /// Drains the queues (every accepted request is still scored), then
  /// stops and joins the workers (the tuner's scan thread first, so no
  /// migration races the drain). Idempotent and final: a stopped engine
  /// cannot be Start()ed again.
  void Stop();

  /// Enables the live placement tuner over every registered family: a
  /// control loop that re-runs the registration-time choosers on the
  /// traffic the registry actually observed and live-migrates
  /// replication / store placement when the decision flips (see
  /// opt::PlacementTuner). Call AFTER Start() -- the tuner reads live
  /// traffic -- and at most once; requires telemetry (a disabled
  /// registry leaves the tuner blind, checked). Returns the tuner
  /// (engine-owned; also reachable through tuner()) so callers can
  /// AttachExporter() or drive ScanOnce() manually in tests/benches.
  opt::PlacementTuner* EnableTuner(const opt::TunerOptions& topts);

  /// The live placement tuner; nullptr until EnableTuner().
  opt::PlacementTuner* tuner() { return tuner_.get(); }

  /// Enqueues one CARRIED sparse row for scoring against `family`,
  /// attributed to `client` for fair queuing and per-client admission
  /// shares. The future resolves with that family's ModelSpec::Predict of
  /// the row under the family's current model. NotFound for an unknown
  /// family, InvalidArgument for an out-of-range feature index, a
  /// mismatched row, or a bad client id, FailedPrecondition before
  /// Start() or a first Publish, ResourceExhausted on back-pressure.
  StatusOr<std::future<double>> Score(const std::string& family,
                                      std::vector<matrix::Index> indices,
                                      std::vector<double> values,
                                      ClientId client = kDefaultClient);

  /// Enqueues one ROW-ID request: the features for `row_id` come from
  /// the family's registered FeatureStore, gathered by the scoring worker
  /// from its node's placement -- the data/worker collocation of the
  /// paper's Fig. 9, applied to serving. Same Status codes as the carried
  /// form: InvalidArgument for an out-of-range row id (as for an
  /// out-of-range feature index), plus FailedPrecondition when no store
  /// is registered or nothing is published yet.
  StatusOr<std::future<double>> Score(const std::string& family,
                                      matrix::Index row_id,
                                      ClientId client = kDefaultClient);

  /// Enqueues one KEY request: the request ships a 64-bit key (hash
  /// string keys with FeatureStore::HashKey) and the scoring worker
  /// resolves it through the store's sharded key index against the
  /// batch's pinned snapshot (lock-free probe, no master lock on the hot
  /// path). Same Status codes as the row-id form, plus NotFound for a key
  /// absent from the current index (also counted as a store.key_misses
  /// hit -- the caller-visible symptom of eviction). A key evicted
  /// between admission and the gather resolves the future with a
  /// StoreKeyMiss exception instead.
  StatusOr<std::future<double>> ScoreKey(const std::string& family,
                                         uint64_t key,
                                         ClientId client = kDefaultClient);

  /// Convenience: Score()/ScoreKey() and wait for the result. A row that
  /// vanished between admission and the gather (StoreKeyMiss through the
  /// future) comes back as Status::NotFound, same as an admission-time
  /// miss.
  StatusOr<double> ScoreSync(const std::string& family,
                             std::vector<matrix::Index> indices,
                             std::vector<double> values,
                             ClientId client = kDefaultClient);
  StatusOr<double> ScoreSync(const std::string& family, matrix::Index row_id,
                             ClientId client = kDefaultClient);
  StatusOr<double> ScoreKeySync(const std::string& family, uint64_t key,
                                ClientId client = kDefaultClient);

  /// Looks up a registered family; nullptr when unknown. Valid for the
  /// engine's lifetime.
  ModelFamily* FindFamily(const std::string& family) const;

  /// Looks up a family's registered feature store; nullptr when the
  /// family is unknown or has no store. Valid for the engine's lifetime.
  const FeatureStore* FindStore(const std::string& family) const;

  /// The per-family numbers a benchmark report reads (callable while
  /// serving); every other serving number lives in telemetry().
  ServingStats Stats() const;

  /// Serving traffic shaped for numa::MemoryModel::SimulateEpoch -- the
  /// serving analogue of engine::Engine::last_epoch_sim(). Read off the
  /// per-node numa.* counters, so its traffic is zero with telemetry off.
  numa::SimulationInput SimInput() const;

  /// The admission cost model (estimates readable while serving).
  const opt::AdmissionController& admission() const { return admission_; }
  /// The engine's metric registry: every serving counter/histogram lives
  /// here (disabled when options().telemetry is false). Exposed so an
  /// obs::TelemetryExporter can scrape it while serving.
  obs::Registry& telemetry() { return obs_; }
  const obs::Registry& telemetry() const { return obs_; }
  /// Sampled request traces (readable while serving).
  const obs::SpanRecorder& spans() const { return spans_; }
  const ServingOptions& options() const { return options_; }
  int num_workers() const { return static_cast<int>(worker_nodes_.size()); }
  int num_families() const;

 private:
  /// A family's registry instruments, resolved once at RegisterFamily
  /// (labels {family=<name>}). Raw pointers into obs_, stable for the
  /// engine's life; copyable so COW table copies share them. On a
  /// disabled registry these are no-op instruments, never nullptr.
  struct FamilyInstruments {
    obs::Counter* rows = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* local_replica_batches = nullptr;
    obs::Counter* remote_replica_batches = nullptr;
    obs::Counter* id_rows = nullptr;
    obs::Counter* local_store_rows = nullptr;
    obs::Counter* remote_store_rows = nullptr;
    /// store.key_rows / store.key_misses: KV-keyed requests resolved
    /// through the sharded key index, and the lookups that missed it
    /// (the caller-visible symptom of eviction).
    obs::Counter* key_rows = nullptr;
    obs::Counter* key_misses = nullptr;
    /// queue.flush_{size,deadline,drain} and queue.rejected_{full,cost}:
    /// the batcher's own instruments, resolved by the same names so
    /// Stats() reads them (no-op zeros with telemetry off).
    obs::Counter* flush_size = nullptr;
    obs::Counter* flush_deadline = nullptr;
    obs::Counter* flush_drain = nullptr;
    obs::Counter* rejected_full = nullptr;
    obs::Counter* rejected_cost = nullptr;
    /// serve.kernel_rows{family=...,kernel=<level>,weights=f64|int8}:
    /// rows scored through the batched dispatch kernels.
    obs::Counter* kernel_rows = nullptr;
    obs::Histogram* latency_ms = nullptr;
    obs::Histogram* staleness_ms = nullptr;
    obs::Histogram* versions_behind = nullptr;
    /// serve.stage_us{family=...,stage=<name>}, obs::Stage order.
    std::array<obs::Histogram*, obs::kNumStages> stage_us{};
  };

  /// One registered family (index == its FamilyId). Owns the family's
  /// model and feature store; shared_ptr so COW table copies share them.
  struct FamilyState {
    std::shared_ptr<ModelFamily> family;
    const models::ModelSpec* spec = nullptr;
    /// Feature table for id-keyed requests; nullptr when none is
    /// registered.
    std::shared_ptr<FeatureStore> store;
    FamilyId queue = 0;
    /// The registration-time traffic estimate, kept so EnableTuner can
    /// seed the tuner's choosers with the family's batch shape (the
    /// observed read rate then replaces the estimated one every scan).
    opt::ServingTrafficEstimate traffic;
    FamilyInstruments inst;
  };

  /// The registered families plus their name index, published as one
  /// immutable unit: the engine's only record of a family. Score() may
  /// race RegisterFamily() before Start() (two services booting), so
  /// every lookup reads a COW table with a single atomic load.
  struct FamilyTable {
    std::vector<FamilyState> families;
    std::unordered_map<std::string, FamilyId> ids;

    /// The named family's state; nullptr when unknown.
    const FamilyState* Find(const std::string& family) const;
  };

  void WorkerLoop(int worker_id);

  /// Current table (atomic_load; never nullptr).
  std::shared_ptr<const FamilyTable> Table() const;

  /// The store a PublishStore/PublishStoreDelta writes; CHECKs that the
  /// family and its store are registered.
  FeatureStore* StoreToPublish(const std::string& family) const;

  /// The one admission path behind every public Score form: stamps the
  /// admit-stage anchor, looks up the family, runs the request kind's
  /// own trust-boundary checks, and enqueues. A carried row whose indices
  /// are the identity is rewritten to the dense form on the way.
  StatusOr<std::future<double>> Admit(const std::string& family,
                                      ScoreRequest req);

  ServingOptions options_;
  /// Declared before everything that resolves instruments out of it
  /// (admission_, batcher_, the family table), so it outlives every
  /// raw instrument pointer on teardown.
  obs::Registry obs_;
  obs::SpanRecorder spans_;
  /// numa.{local,remote,model}_read_bytes, numa.updates and numa.flops
  /// {node=N}: serve-time logical traffic per node, the serving analogue
  /// of the training epochs' AccessCounters report (indexed by NodeId).
  /// The only record of serving traffic: Stats() and SimInput() read it.
  struct NodeTraffic {
    obs::Counter* local_read_bytes = nullptr;
    obs::Counter* remote_read_bytes = nullptr;
    obs::Counter* model_read_bytes = nullptr;
    obs::Counter* updates = nullptr;
    obs::Counter* flops = nullptr;
  };
  std::vector<NodeTraffic> node_traffic_;
  /// Estimates per-family batch service times (memory-model prior +
  /// worker-measured EWMA); the batcher consults it at admission and the
  /// workers feed measured batch times back into it.
  opt::AdmissionController admission_;
  RequestBatcher batcher_;
  /// Places every family's model replicas and feature-store pages.
  std::shared_ptr<numa::NumaAllocator> allocator_;

  /// Serializes RegisterFamily (copy + swap of table_) and Start().
  std::mutex register_mu_;
  /// Accessed only through std::atomic_load/atomic_store.
  std::shared_ptr<const FamilyTable> table_;
  /// Set once by Start() to the final table (frozen from then on, and
  /// kept alive by table_): Score() reads this raw pointer instead of
  /// paying a shared_ptr atomic load + refcount bounce per single-row
  /// submit on the admission hot path. nullptr before Start().
  std::atomic<const FamilyTable*> frozen_table_{nullptr};
  /// Live placement tuner (EnableTuner). It holds raw ModelFamily* and
  /// FeatureStore* owned by table_, so the families must outlive it:
  /// Stop() joins its scan thread before anything else, and it is
  /// declared after table_ (and everything else it scans) so it is
  /// destroyed first.
  std::unique_ptr<opt::PlacementTuner> tuner_;

  std::vector<numa::CoreId> worker_cores_;
  std::vector<numa::NodeId> worker_nodes_;
  std::vector<std::thread> workers_;
  /// Atomic: Score() and RegisterFamily() read it on other threads.
  std::atomic<bool> running_{false};
  bool stopped_ = false;  ///< owner-thread only (Start/Stop)
};

}  // namespace dw::serve
