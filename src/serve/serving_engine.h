// The model serving engine: a concurrent scoring service over trained
// models (ROADMAP north star: heavy read traffic, as fast as the hardware
// allows), serving many named model FAMILIES at once.
//
// Architecture: callers RegisterFamily() each model they serve (wide LR,
// narrow SVM, ...), each with its own ModelSpec and traffic estimate; the
// registry picks the family's replication through the opt:: cost model
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
// like training epochs do, so bench_serving can report both measured
// rows/sec and memory-model throughput on the paper's topologies.
//
// TELEMETRY: the engine owns an obs::Registry and every serving counter
// is a registry instrument -- lock-free sharded counters for rows/bytes,
// bounded-error histograms for latency, staleness, and the per-stage
// decomposition (admit/queue/batch-form/gather/score/complete), with the
// worker's NUMA traffic drained into per-node numa.* counters so
// serve-time local/remote DRAM requests are visible the way the paper
// reports them for training. ServingStats()/FamilyServingStats are THIN
// VIEWS over the registry (plus live queue state), so existing callers
// keep working; a sampled obs::SpanRecorder keeps whole per-request
// stage breakdowns; options_.telemetry=false swaps in a no-op registry
// (the bench_serving overhead baseline).
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
#include "numa/access_counters.h"
#include "numa/memory_model.h"
#include "numa/topology.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "opt/admission_controller.h"
#include "opt/placement_tuner.h"
#include "serve/feature_store.h"
#include "serve/model_registry.h"
#include "serve/request_batcher.h"
#include "util/barrier.h"
#include "util/status.h"
#include "util/timer.h"

namespace dw::serve {

/// How a worker scores a flushed mini-batch.
enum class ScoringMode {
  /// One ModelSpec::PredictBatch call per batch: the GLM kernels tile the
  /// node-local replica through the cache hierarchy (column-blocked for
  /// dense rows, monotone-cursor gather for sparse rows), so each model
  /// block is read once per batch instead of once per row.
  kBatched,
  /// N ModelSpec::Predict calls, one per row; the pre-PredictBatch
  /// behavior, kept as the bench_serving baseline.
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
  /// to nodes round-robin so every socket serves traffic at any count.
  int num_threads = -1;
  /// Default per-family queue options (overridable per family).
  RequestBatcher::Options batch;
  /// Pin workers to physical CPUs through the topology map.
  bool pin_threads = true;
  ScoringMode scoring = ScoringMode::kBatched;
  /// Full telemetry (registry instruments + stage histograms + sampled
  /// spans). false swaps in a DISABLED registry: every instrument write
  /// is a no-op, every Stats() counter reads 0 -- the bench_serving
  /// overhead baseline, not a production mode.
  bool telemetry = true;
  /// Span ring capacity (0 disables tracing but keeps stage histograms).
  size_t trace_capacity = 256;
  /// Sample every Nth accepted request into the span ring; 0 disables.
  /// Forwarded into each family's RequestBatcher::Options (an explicit
  /// per-family trace_sample_every in ServingFamilyOptions::batch wins).
  uint64_t trace_sample_every = 64;
};

/// Per-family knobs at registration. Replication is NOT one of them: the
/// registry derives it from `traffic` through opt::ChooseServingReplication
/// unless the bench-only override is set.
struct ServingFamilyOptions {
  /// Traffic estimate for the replication chooser; `traffic.dim` is
  /// required (it also fixes the admission dimension check). The same
  /// estimate seeds the admission controller's memory-model prior for
  /// the family's per-row service time.
  opt::ServingTrafficEstimate traffic;
  /// Bench/ablation escape hatch; leave unset in production.
  std::optional<Replication> replication_override;
  /// Family-specific queue bounds; defaults to ServingOptions::batch.
  std::optional<RequestBatcher::Options> batch;
  /// Fair-queuing weights for known clients (relative shares of the
  /// family's batches and admission capacity). Clients not listed here
  /// get weight 1 on first Submit.
  std::vector<std::pair<ClientId, double>> client_weights;
  /// Serve this family from int8-quantized replicas: every Publish also
  /// builds an int8 image (symmetric per-family scale, zero point 0) and
  /// batched workers score through the spec's dequantize-free
  /// PredictBatchQuantized kernel, moving 1/8 the model bytes. Scores
  /// carry the bounded quantization error documented at
  /// kernels::QuantizeWeights. RegisterFamily refuses this for specs
  /// without SupportsQuantizedPredict(). Scalar-mode workers (the bench
  /// baseline) keep scoring the f64 replica.
  bool quantized = false;
};

/// Per-client admission/service counters inside FamilyServingStats.
struct ClientServingStats {
  std::string client;
  double weight = 1.0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;  ///< full-share and over-budget refusals
  uint64_t served = 0;    ///< rows handed to workers in batches
  uint64_t queue_depth = 0;
};

/// Per-family serving counters since Start().
struct FamilyServingStats {
  std::string family;
  Replication replication = Replication::kPerNode;
  /// The scoring-kernel dispatch level every batched kernel ran at
  /// ("scalar" | "avx2" | "avx512"; kernels::ActiveKernelLevel()).
  std::string kernel_level;
  /// True when the family serves from int8-quantized replicas.
  bool quantized = false;
  /// Rows scored through the batched kernels (subset of `requests`;
  /// scalar-mode and fallback rows are excluded).
  uint64_t kernel_rows = 0;
  uint64_t requests = 0;  ///< rows scored (fulfilled futures)
  uint64_t batches = 0;
  double rows_per_sec = 0.0;
  double mean_batch_rows = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  uint64_t local_replica_batches = 0;
  uint64_t remote_replica_batches = 0;
  // Admission counters (cost-aware: opt::AdmissionController).
  uint64_t accepted = 0;
  uint64_t rejected = 0;       ///< all back-pressure refusals
  uint64_t rejected_cost = 0;  ///< the delay-budget subset of `rejected`
  uint64_t queue_depth = 0;    ///< rows queued right now
  uint64_t flush_size = 0;
  uint64_t flush_deadline = 0;
  uint64_t flush_drain = 0;
  // The admission controller's view of the family (all microseconds per
  // row): the memory-model prior, the calibrated estimate admission
  // tests against the delay budget, and the workers' measured EWMA that
  // calibrates it online.
  double prior_row_us = 0.0;
  double est_row_us = 0.0;
  double measured_row_us_ewma = 0.0;
  uint64_t cost_reports = 0;  ///< worker batch timings folded in
  /// Per-client fair-queuing view, first-seen order.
  std::vector<ClientServingStats> clients;
  // Snapshot staleness at scoring time (per batch): ms since the served
  // version's weights left the trainer, and how many newer publishes
  // existed when the batch was scored.
  double mean_staleness_ms = 0.0;
  double max_staleness_ms = 0.0;
  double mean_versions_behind = 0.0;
  uint64_t max_versions_behind = 0;
  uint64_t served_version = 0;  ///< current version at Stats() time
  // Serving-time feature store (id-keyed requests); all zero for a
  // family without a registered store.
  uint64_t id_rows = 0;           ///< rows scored via Score(family, row_id)
  uint64_t local_store_rows = 0;  ///< gathered from the worker's own node
  uint64_t remote_store_rows = 0; ///< gathered across the interconnect
  uint64_t store_version = 0;     ///< current table version at Stats() time
  uint64_t store_local_bytes = 0;   ///< feature bytes gathered node-locally
  uint64_t store_remote_bytes = 0;  ///< feature bytes gathered remotely
  // KV-keyed serving (ScoreKey) and delta-refresh accounting; all zero
  // for a family scored purely by row id or carried payloads.
  uint64_t key_rows = 0;    ///< rows scored via ScoreKey (subset of id_rows)
  uint64_t key_misses = 0;  ///< key lookups that missed the pinned snapshot
  uint64_t store_delta_bytes = 0;  ///< bytes actually written by publishes
  uint64_t store_full_bytes = 0;   ///< what full rewrites would have written
  uint64_t store_evictions = 0;    ///< keys evicted by the page clock
  uint64_t store_live_rows = 0;    ///< resident keys at Stats() time
  /// Mean per-row time in each lifecycle stage (obs::Stage order:
  /// admit, queue, batch-form, gather, score, complete), microseconds.
  /// Batch-level stages are row-weighted means.
  std::array<double, obs::kNumStages> mean_stage_us{};
};

/// Aggregated serving counters since Start().
struct ServingStats {
  uint64_t requests = 0;  ///< rows scored (fulfilled futures)
  uint64_t batches = 0;
  double wall_sec = 0.0;
  double rows_per_sec = 0.0;        ///< requests / wall_sec
  double mean_batch_rows = 0.0;
  double p50_latency_ms = 0.0;      ///< submit-to-score, per request
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;      ///< exact worst case (never decimated)
  uint64_t local_replica_batches = 0;   ///< routed to the worker's node
  uint64_t remote_replica_batches = 0;  ///< crossed the interconnect
  numa::AccessCounters traffic;         ///< logical totals across workers
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
  /// The registry chooses its replication from the traffic estimate.
  /// Fails after Start() and on duplicate names.
  Status RegisterFamily(const std::string& family,
                        const models::ModelSpec* spec,
                        const ServingFamilyOptions& fopts);

  /// Registers a read-only feature table of `rows` x `dim` doubles for
  /// `family`, enabling the id-keyed request form Score(family, row_id).
  /// The table's placement across sockets (replicated vs sharded) is
  /// chosen by opt::ChooseStorePlacement from `sopts.reads_per_refresh`
  /// and the table shape unless the bench-only
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
  /// `row_major[i*dim .. (i+1)*dim)`, cloning only the touched pages into
  /// a new snapshot (copy-on-write; untouched pages are shared with the
  /// previous version) and hot-swapping it exactly like PublishStore.
  /// Refresh cost therefore scales with churn, not table size. When the
  /// store is at capacity, cold pages are evicted (clock over pages) to
  /// make room; evicted keys miss until re-published. The store must be
  /// registered (checked); a delta may also BOOTSTRAP a store that has
  /// never seen a full PublishStore (never-touched pages simply stay
  /// unallocated). Returns the publish report (new version + byte
  /// accounting).
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

  /// Looks up a family's registered feature store; nullptr when the
  /// family is unknown or has no store. Valid for the engine's lifetime.
  const FeatureStore* FindStore(const std::string& family) const;

  /// Counters aggregated across workers (callable while serving),
  /// globally and per family.
  ServingStats Stats() const;

  /// Serving traffic shaped for numa::MemoryModel::SimulateEpoch -- the
  /// serving analogue of engine::Engine::last_epoch_sim().
  numa::SimulationInput SimInput() const;

  const ModelRegistry& registry() const { return registry_; }
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
  struct WorkerState;

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
    obs::Counter* store_local_bytes = nullptr;
    obs::Counter* store_remote_bytes = nullptr;
    /// store.key_rows / store.key_misses: KV-keyed requests resolved
    /// through the sharded key index, and the lookups that missed it
    /// (the caller-visible symptom of eviction).
    obs::Counter* key_rows = nullptr;
    obs::Counter* key_misses = nullptr;
    /// store.delta_bytes / store.full_bytes / store.evictions: publish
    /// byte odometers and clock evictions, written by the store itself
    /// on every Publish/PublishDelta/Republish (AttachInstruments), so
    /// tuner-driven flips are accounted too.
    obs::Counter* store_delta_bytes = nullptr;
    obs::Counter* store_full_bytes = nullptr;
    obs::Counter* store_evictions = nullptr;
    /// serve.kernel_rows{family=...,kernel=<level>,weights=f64|int8}:
    /// rows scored through the batched dispatch kernels.
    obs::Counter* kernel_rows = nullptr;
    obs::Histogram* latency_ms = nullptr;
    obs::Histogram* staleness_ms = nullptr;
    obs::Histogram* versions_behind = nullptr;
    /// serve.stage_us{family=...,stage=<name>}, obs::Stage order.
    std::array<obs::Histogram*, obs::kNumStages> stage_us{};
  };

  /// One registered family's serving handle (index == its FamilyId).
  struct FamilyState {
    std::string name;
    ModelFamily* family = nullptr;
    const models::ModelSpec* spec = nullptr;
    /// Feature table for id-keyed requests; nullptr when none is
    /// registered (owned by stores_, so COW table copies share it).
    FeatureStore* store = nullptr;
    FamilyId queue = 0;
    /// Score from the snapshot's int8 replicas (batched mode only).
    bool quantized = false;
    /// The registration-time traffic estimate, kept so EnableTuner can
    /// seed the tuner's choosers with the family's batch shape (the
    /// observed read rate then replaces the estimated one every scan).
    opt::ServingTrafficEstimate traffic;
    FamilyInstruments inst;
  };

  /// The registered families plus their name index, published as one
  /// immutable unit: Score() may race RegisterFamily() before Start()
  /// (two services booting), so the hot-path lookup reads a COW table
  /// with a single atomic load, mirroring ModelRegistry::families_.
  struct FamilyTable {
    std::vector<FamilyState> families;
    std::unordered_map<std::string, FamilyId> ids;
  };

  void WorkerLoop(int worker_id);

  /// Current table (atomic_load; never nullptr).
  std::shared_ptr<const FamilyTable> Table() const;

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
  /// numa.{local,remote,model}_read_bytes{node=N}: serve-time logical
  /// DRAM traffic per node, the serving analogue of the training
  /// epochs' AccessCounters report (indexed by NodeId).
  struct NodeTraffic {
    obs::Counter* local_read_bytes = nullptr;
    obs::Counter* remote_read_bytes = nullptr;
    obs::Counter* model_read_bytes = nullptr;
  };
  std::vector<NodeTraffic> node_traffic_;
  ModelRegistry registry_;
  /// Estimates per-family batch service times (memory-model prior +
  /// worker-measured EWMA); the batcher consults it at admission and the
  /// workers feed measured batch times back into it.
  opt::AdmissionController admission_;
  RequestBatcher batcher_;
  /// Places feature-store shards/replicas (its ledger is the stores'
  /// placement record, separate from the registry's model ledger).
  std::shared_ptr<numa::NumaAllocator> store_allocator_;
  /// Owns the feature stores; append-only under register_mu_, so the raw
  /// pointers in FamilyState stay stable.
  std::vector<std::unique_ptr<FeatureStore>> stores_;
  /// Live placement tuner (EnableTuner); declared after everything it
  /// scans (obs_, registry_, admission_, stores_) so it is torn down
  /// first.
  std::unique_ptr<opt::PlacementTuner> tuner_;

  /// Serializes RegisterFamily (copy + swap of table_) and Start().
  std::mutex register_mu_;
  /// Accessed only through std::atomic_load/atomic_store.
  std::shared_ptr<const FamilyTable> table_;
  /// Set once by Start() to the final table (frozen from then on, and
  /// kept alive by table_): Score() reads this raw pointer instead of
  /// paying a shared_ptr atomic load + refcount bounce per single-row
  /// submit on the admission hot path. nullptr before Start().
  std::atomic<const FamilyTable*> frozen_table_{nullptr};

  std::vector<numa::CoreId> worker_cores_;
  std::vector<numa::NodeId> worker_nodes_;
  std::vector<std::unique_ptr<WorkerState>> worker_states_;
  std::vector<std::thread> workers_;
  /// Atomic: Stats() may run on a monitoring thread while the owner
  /// Stop()s; stopped_wall_sec_ is published by the release store.
  std::atomic<bool> running_{false};
  bool stopped_ = false;  ///< owner-thread only (Start/Stop)
  WallTimer serve_timer_;
  double stopped_wall_sec_ = 0.0;
};

}  // namespace dw::serve
