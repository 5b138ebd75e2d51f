// Request coalescing for the serving hot path: per-family queues, each
// split into per-CLIENT subqueues with deficit-round-robin fair sharing,
// and cost-aware admission through opt::AdmissionController.
//
// Single-row score requests are tiny; dispatching each one to a worker
// would spend more time on queue traffic than on math, and the model
// replica would be re-read from DRAM for every row. The batcher coalesces
// requests into dense mini-batches so one worker runs the row-wise access
// method over max_batch_size rows against a replica that stays hot in
// cache -- the serving analogue of an epoch's sequential row scan.
//
// Families do not share queues: a mini-batch is scored against ONE
// family's replica, so mixing families in a queue would shred batches at
// flush time, and a burst against one family must back-pressure that
// family alone, not starve its neighbors. Within a family, CLIENTS do not
// share a FIFO either: each client id gets its own subqueue, and batch
// formation drains them with deficit round robin (DRR) weighted by the
// client's configured share, so one client flooding a family cannot
// monopolize its batches or its admission capacity. fair_queuing=false
// collapses the subqueues back into one arrival-ordered FIFO -- the
// baseline bench_serving's admission gate measures fairness against.
//
// Admission bounds every family by max_queue_rows, the hard memory cap.
// It is also COST-AWARE when an opt::AdmissionController is attached and
// the family sets a queueing-delay budget (Options::queue_delay_budget):
// Submit estimates the queueing delay the new request would see --
// backlog rows ahead of it times the controller's calibrated per-row
// service estimate, divided by the drain parallelism -- and rejects when
// that exceeds the budget. Without a budget (the default) only the row
// cap applies. Under fair queuing both the row cap and the delay budget
// are split across clients by weight, so a hog exhausts only its own
// share.
//
// Flush policy (per family): a batch is released as soon as the queue
// reaches max_batch_size rows (flush on size), or when the OLDEST queued
// request in ANY of the family's client subqueues has waited max_delay
// (flush on deadline), whichever comes first. Expired deadlines outrank
// size-ready neighbors regardless of where the round-robin cursor
// points, and multiple expired families drain in expiry order. Deadline
// and drain flushes take rows oldest-first across clients (the latency
// path honors age); size flushes take them DRR (the throughput path
// honors fairness). Shutdown() drains: workers keep receiving partial
// batches until every queue is empty, so no accepted request is ever
// dropped.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "matrix/sparse_vector.h"
#include "obs/metrics.h"
#include "opt/admission_controller.h"
#include "util/status.h"

namespace dw::serve {

/// Index of a family's queue inside the batcher (assigned by AddQueue in
/// registration order; the serving engine maps family name -> id once).
using FamilyId = int;

/// Upper bound on a ClientId's length.
inline constexpr size_t kMaxClientIdBytes = 64;

/// Identifies the submitting client for fair queuing and per-client
/// accounting. Must be non-empty and at most kMaxClientIdBytes long
/// (validated at admission: both bounds are trust-boundary checks on a
/// caller-supplied string that becomes a stats key).
///
/// A deliberate strong type with EXPLICIT constructors rather than a
/// bare std::string: the Score overload set mixes string-ish and
/// brace-initializable parameters, and std::string's conversions would
/// otherwise let `{4}` (initializer_list<char>) or a literal `0` (null
/// pointer constant) silently become a client id and make existing
/// `Score(family, {i}, {1.0})` call sites ambiguous. Callers write
/// ClientId("tenant-a") once at the submission site.
class ClientId {
 public:
  ClientId() = default;
  explicit ClientId(const char* name) : name_(name) {}
  explicit ClientId(std::string name) : name_(std::move(name)) {}

  const std::string& str() const { return name_; }
  bool empty() const { return name_.empty(); }
  size_t size() const { return name_.size(); }

  friend bool operator==(const ClientId& a, const ClientId& b) {
    return a.name_ == b.name_;
  }
  friend bool operator!=(const ClientId& a, const ClientId& b) {
    return !(a == b);
  }
  friend std::ostream& operator<<(std::ostream& os, const ClientId& c) {
    return os << c.name_;
  }

 private:
  std::string name_;
};

/// The client requests land on when the caller does not name one (the
/// single-tenant form of the API).
inline const ClientId kDefaultClient("default");

/// InvalidArgument for an empty or oversized client id, OK otherwise.
Status ValidateClientId(const ClientId& client);

/// Where a ScoreRequest's features come from: the three request forms.
enum class RequestKind : uint8_t {
  kCarried,  ///< the request ships its own feature row
  kRowId,    ///< `row_id` names a row of the family's FeatureStore
  kKey,      ///< `key` is resolved through the store's key index
};

/// "carried" | "row_id" | "key".
const char* ToString(RequestKind kind);

/// One single-row score request plus the promise the scoring worker
/// fulfills. A CARRIED request owns a sparse feature vector; empty
/// `indices` with nonempty `values` is the explicit DENSE form (value k
/// at coordinate k) -- half the payload, and the batched kernels skip
/// index loads entirely.
///
/// The keyed forms carry no features at all: a ROW-ID request names a
/// row in the family's FeatureStore and a KEY request names an entity key
/// the worker resolves through the batch's pinned store snapshot index (a
/// key evicted between admission and scoring misses instead of serving
/// stale bytes). The scoring worker gathers the features from its node's
/// placement at scoring time, so the payload is one integer regardless of
/// model width.
struct ScoreRequest {
  static ScoreRequest Carried(std::vector<matrix::Index> indices,
                              std::vector<double> values,
                              ClientId client = kDefaultClient) {
    ScoreRequest req;
    req.indices = std::move(indices);
    req.values = std::move(values);
    req.client = std::move(client);
    return req;
  }
  static ScoreRequest RowId(matrix::Index row_id,
                            ClientId client = kDefaultClient) {
    ScoreRequest req;
    req.kind = RequestKind::kRowId;
    req.row_id = row_id;
    req.client = std::move(client);
    return req;
  }
  static ScoreRequest Key(uint64_t key, ClientId client = kDefaultClient) {
    ScoreRequest req;
    req.kind = RequestKind::kKey;
    req.key = key;
    req.client = std::move(client);
    return req;
  }

  RequestKind kind = RequestKind::kCarried;
  /// kCarried only; the keyed forms leave both empty and must not use
  /// View() -- the worker builds their view from the store snapshot it
  /// acquired for the batch.
  std::vector<matrix::Index> indices;
  std::vector<double> values;
  matrix::Index row_id = 0;  ///< kRowId only
  uint64_t key = 0;          ///< kKey only
  /// Submitting client: the fair-queuing key.
  ClientId client = kDefaultClient;
  std::promise<double> result;
  std::chrono::steady_clock::time_point enqueued_at;
  /// Lifecycle tracing: sampled at admission (Options::trace_sample_every);
  /// the scoring worker assembles a full obs::SpanRecord for traced rows.
  bool traced = false;
  /// Engine-side admission time (Score() entry to enqueue), microseconds;
  /// 0 when the caller did not pass its entry timestamp.
  double admit_us = 0.0;

  matrix::SparseVectorView View() const {
    return {indices.empty() ? nullptr : indices.data(), values.data(),
            values.size()};
  }
};

/// Why a batch left its queue.
enum class FlushReason {
  kSize,      ///< the queue reached max_batch_size
  kDeadline,  ///< the oldest request aged past max_delay
  kDrain,     ///< shutdown drained the remainder
};

const char* ToString(FlushReason r);

/// A mini-batch handed to one scoring worker; all rows belong to `family`.
struct Batch {
  FamilyId family = 0;
  FlushReason reason = FlushReason::kSize;
  /// When the flush policy formed this batch (TakeBatch): the boundary
  /// between a row's queue stage and the batch-form stage.
  std::chrono::steady_clock::time_point formed_at;
  std::vector<ScoreRequest> requests;
  size_t rows() const { return requests.size(); }
};

/// Bounded MPMC queues (one per family, per-client subqueues inside) with
/// size/deadline batch formation and a shared worker wait.
class RequestBatcher {
 public:
  struct Options {
    size_t max_batch_size = 64;
    std::chrono::microseconds max_delay{500};
    /// Hard admission cap: Submit always rejects (back-pressure) beyond
    /// this many queued rows IN THIS FAMILY -- the memory bound of last
    /// resort.
    size_t max_queue_rows = 1 << 16;
    /// Queueing-delay budget for cost-aware admission (needs an attached
    /// AdmissionController): reject when the estimated time-to-drain of
    /// the backlog ahead of a request exceeds this. Zero (the default)
    /// skips the delay test.
    std::chrono::microseconds queue_delay_budget{0};
    /// Deficit-round-robin fair queuing across clients. false = one
    /// arrival-ordered FIFO per family (the blind baseline): clients
    /// still get individual counters but no isolation.
    bool fair_queuing = true;
    /// DRR quantum: rows credited per unit of client weight each time the
    /// rotation visits a client. Small enough to interleave clients
    /// within one batch, large enough to keep runs of one client's rows
    /// cache-friendly.
    size_t drr_quantum_rows = 16;
    /// Cap on DISTINCT client ids per family. Client ids cross a trust
    /// boundary and each one allocates a permanent subqueue and dilutes
    /// every tenant's fair-queuing share, so a caller misusing a
    /// request/session id as the client id must hit a wall: submissions
    /// from a never-seen client beyond this cap are rejected
    /// (ResourceExhausted) without registering the client.
    size_t max_clients = 64;
    /// Idle-client aging: a client whose subqueue has been EMPTY for at
    /// least this long since its last accepted submission is evicted
    /// from the roster, returning its reserved fair-queuing share (and
    /// its max_clients slot) to the remaining tenants -- the fix for
    /// one-shot clients permanently diluting long-lived tenants'
    /// weight-split budgets. Clients configured through SetClientWeight
    /// are PINNED: an operator-declared tenant keeps its reservation
    /// while idle. Zero disables aging (known clients keep their
    /// reservation forever, the pre-aging behavior).
    std::chrono::milliseconds client_idle_timeout{0};
    /// Lifecycle tracing: mark every Nth accepted request traced (the
    /// first accepted request is always the cycle's start, so short
    /// tests see a span). 0 disables sampling entirely.
    uint64_t trace_sample_every = 0;
  };

  /// Per-client admission/service counters (inside QueueStats).
  struct ClientStats {
    ClientId client;
    double weight = 1.0;
    uint64_t accepted = 0;
    uint64_t rejected = 0;  ///< both full-queue and over-budget refusals
    uint64_t served = 0;    ///< rows handed to a worker in some batch
    size_t depth = 0;       ///< rows queued right now
  };

  /// Per-family admission counters (snapshot; `depth` is racy-by-design
  /// monitoring data, the totals are exact at quiescence).
  struct QueueStats {
    uint64_t accepted = 0;
    uint64_t rejected_full = 0;  ///< refusals on the hard row cap / share
    uint64_t rejected_cost = 0;  ///< refusals on the queueing-delay budget
    uint64_t flush_size = 0;
    uint64_t flush_deadline = 0;
    uint64_t flush_drain = 0;
    size_t depth = 0;  ///< rows queued right now
    std::vector<ClientStats> clients;  ///< first-seen order
  };

  RequestBatcher() = default;

  /// Attaches the admission cost model. The controller's family ids must
  /// align with this batcher's FamilyIds (the serving engine registers
  /// both in lockstep). Call before traffic; nullptr disables cost-aware
  /// admission (the hard row cap still applies).
  void AttachController(const opt::AdmissionController* controller);

  /// Backs every queue counter with instruments on `registry` (must
  /// outlive the batcher). Must be called before the first AddQueue --
  /// the instruments are resolved at queue creation. Without this call
  /// the batcher lazily owns a private enabled registry, so standalone
  /// use keeps exact counters; the serving engine attaches its own
  /// (possibly disabled) registry instead.
  void AttachRegistry(obs::Registry* registry);

  /// Adds a family queue; returns its id (dense, from 0). `name` labels
  /// the queue's metrics (family=<name>; "q<id>" when empty). Callable
  /// while workers run (registration is rare; the lock is shared with
  /// the hot path but uncontended).
  FamilyId AddQueue(const Options& opts, const std::string& name = "");

  /// Sets a client's fair-queuing weight on `family` (creating the
  /// client's subqueue if it has not submitted yet). Weights are relative
  /// shares of the family's batches and admission capacity. Checks the
  /// id (non-empty, bounded) and the weight (> 0) fatally: this is an
  /// operator configuration call, not request-path input.
  void SetClientWeight(FamilyId family, const ClientId& client,
                       double weight);

  /// Enqueues one request of any form on `family`'s queue for
  /// `req.client`. The future resolves once a worker scores the batch
  /// containing it. Every form shares this admission, so analogous
  /// failures carry identical Status codes: InvalidArgument on a carried
  /// row whose indices and values differ in length or on a bad client
  /// id, ResourceExhausted when the client's admission share (row cap or
  /// delay budget) is exhausted, and FailedPrecondition after Shutdown().
  /// The caller screens a row id against the family's store bounds and a
  /// key against its index, as it screens carried feature indices against
  /// the model dim. `admitted_at`, when non-default, is the caller's
  /// validation entry time and charges the span's admit stage (the engine
  /// passes its Score() entry).
  StatusOr<std::future<double>> Submit(
      FamilyId family, ScoreRequest req,
      std::chrono::steady_clock::time_point admitted_at = {});

  /// Blocks until some family has a batch ready under the flush policy;
  /// returns false only once the batcher is shut down AND every queue is
  /// drained. Ready queues are served round-robin so one hot family
  /// cannot starve the others, and expired deadlines outrank size-ready
  /// queues in expiry order.
  bool NextBatch(Batch* out);

  /// Stops admission and wakes all waiting workers to drain the queues.
  void Shutdown();

  /// Rows currently queued across all families (racy snapshot).
  size_t pending() const;

  QueueStats queue_stats(FamilyId family) const;
  const Options& options(FamilyId family) const;
  int num_queues() const;

 private:
  struct ClientQueue {
    ClientId id;
    double weight = 1.0;
    std::deque<ScoreRequest> queue;
    /// DRR deficit in rows, reset when the subqueue empties (and on
    /// SetClientWeight: credit earned at the old weight must not carry
    /// into the new one).
    size_t deficit = 0;
    /// Last accepted submission (or weight configuration); drives idle
    /// aging. Initialized at roster entry.
    std::chrono::steady_clock::time_point last_active{};
    /// SetClientWeight pins the client against idle eviction: an
    /// operator-declared tenant keeps its reservation while idle.
    bool pinned = false;
    /// Registry-backed counters (labels family=..., client=...); the
    /// ClientStats view reads these, so the registry is the single
    /// source of truth.
    obs::Counter* accepted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* served = nullptr;
  };

  struct FamilyQueue {
    Options opts;
    /// Metric label (family=<label>) for this queue's instruments.
    std::string label;
    /// deque: stable references across client creation.
    std::deque<ClientQueue> clients;
    std::unordered_map<std::string, size_t> client_index;
    /// Sum of all known clients' weights, maintained incrementally so
    /// per-submit share math is O(1) under the admission lock.
    double total_weight = 0.0;
    size_t rows = 0;  ///< total queued rows across clients
    /// DRR rotation cursor over clients for size-triggered flushes.
    size_t drr_cursor = 0;
    /// Accepted submissions, kept plain (mu_-guarded) because the trace
    /// sampler needs an exact modulo even on a disabled registry.
    uint64_t submit_seq = 0;
    /// Registry-backed admission/flush counters and the depth gauge
    /// (QueueStats is a thin view over these).
    obs::Counter* accepted = nullptr;
    obs::Counter* rejected_full = nullptr;
    obs::Counter* rejected_cost = nullptr;
    obs::Counter* flush_size = nullptr;
    obs::Counter* flush_deadline = nullptr;
    obs::Counter* flush_drain = nullptr;
    obs::Gauge* depth = nullptr;
  };

  /// The client's subqueue, created on first use with weight 1 (mu_ held).
  ClientQueue& GetOrAddClient(FamilyQueue& q, const ClientId& client);

  /// Evicts unpinned clients whose subqueue has been empty past
  /// client_idle_timeout (mu_ held; no-op when aging is disabled). Runs
  /// at admission, BEFORE the roster-cap check, so a stale one-shot
  /// client's slot is reclaimable by a new arrival. Rebuilds the name
  /// index and parks the DRR cursor when anything moves; the evicted
  /// client's registry counters are interned, so its totals survive a
  /// later re-arrival.
  void EvictIdleClientsLocked(FamilyQueue& q,
                              std::chrono::steady_clock::time_point now);

  /// Enqueue time of the family's oldest queued request; false when the
  /// family is empty (mu_ held).
  bool OldestFront(const FamilyQueue& q,
                   std::chrono::steady_clock::time_point* when) const;

  /// Pops up to max_batch_size rows of queue `f` into `out` (mu_ held):
  /// DRR across clients for size flushes, oldest-first merge for
  /// deadline/drain flushes.
  void TakeBatch(FamilyId f, FlushReason reason, Batch* out);

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  /// deque: stable references across AddQueue.
  std::deque<FamilyQueue> queues_;
  /// Round-robin cursor over families for size flushes.
  size_t next_queue_ = 0;
  bool shutdown_ = false;
  const opt::AdmissionController* controller_ = nullptr;
  /// Instrument source: an attached registry, or a lazily-created
  /// private one when the batcher is used standalone.
  obs::Registry* registry_ = nullptr;
  std::unique_ptr<obs::Registry> own_registry_;
};

}  // namespace dw::serve
