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
// Flush policy (per family) is Nagle's rule (RFC 896) applied to
// batches. A family with no batch in flight sends its queued rows at
// once (flush on idle): an idle worker has nothing to wait for. While a
// batch of the family is being scored, later rows coalesce behind it and
// leave when the queue reaches max_batch_size (flush on size), when the
// in-flight batch is handed back (the family is idle again), or when the
// OLDEST queued request in ANY of the family's client subqueues has
// waited max_delay (flush on deadline): max_delay is a ceiling, not a
// fixed pause. Expired deadlines go first, in expiry order, regardless
// of the round-robin cursor; then size-ready families, round-robin; then
// idle families, earliest deadline first. Deadline, idle and drain
// flushes take rows oldest-first across clients (the latency path
// honors age); size flushes take them DRR (the throughput path honors
// fairness). Shutdown() drains: the remaining rows leave as kDrain
// batches until every queue is empty, so no accepted request is ever
// dropped.
//
// Every hold of the batcher lock by a worker delays the submitting
// thread, so wake-ups are kept to those that change what a worker does:
// Submit wakes one waiter only when its row makes the family's queue
// non-empty or fills a batch, and a worker that takes a batch wakes a
// sibling only for work no sleeping worker will wake for. A wake-up is a
// futex round trip on both sides, so the worker that has just handed a
// batch back and finds every queue empty first polls a change counter for
// a short window before it parks (dw::Barrier's poll-then-park rule): a
// row that arrives inside the window is taken with no wake-up, and Submit
// skips its notify while a worker polls. At most one worker polls at a
// time, and a fresh worker, a row queued behind an in-flight batch and an
// idle engine park as before, so a pool costs at most one core while
// traffic flows and none when it stops.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
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
  kIdle,      ///< no batch of the family was in flight
};

const char* ToString(FlushReason r);

/// A mini-batch handed to one scoring worker; all rows belong to `family`.
/// It counts as in flight for its family from the NextBatch that formed
/// it until it is passed into the next NextBatch (the hand-back).
struct Batch {
  FamilyId family = 0;
  FlushReason reason = FlushReason::kSize;
  /// When the flush policy formed this batch (TakeBatch): the boundary
  /// between a row's queue stage and the batch-form stage.
  std::chrono::steady_clock::time_point formed_at;
  std::vector<ScoreRequest> requests;
  size_t rows() const { return requests.size(); }

 private:
  friend class RequestBatcher;
  bool in_flight_ = false;
};

/// Bounded MPMC queues (one per family, per-client subqueues inside) with
/// idle/size/deadline batch formation and a shared worker wait.
class RequestBatcher {
 public:
  /// How long a worker that has just handed a batch back polls for the
  /// next row before it parks (see NextBatch). Chosen on serve-kv-churn
  /// (40k keyed reads/s, one worker, 25 us arrival gaps), 5 s runs, seed 1,
  /// 3 alternating rounds on a 4-vCPU AVX-512 KVM guest: p50 0.0113,
  /// 0.0120 and 0.0111 ms at 20, 50 and 100 us against 0.0171 ms with no
  /// poll. At 20 us 11-14% of polls came back empty (3,200-5,700 parks/s);
  /// at 50 us 0.01-0.03% (5-11 parks/s), and 100 us bought nothing more.
  static constexpr std::chrono::microseconds kPollWindow{50};

  struct Options {
    size_t max_batch_size = 64;
    /// Ceiling on how long a partial batch waits behind an in-flight
    /// batch of its family before it leaves as kDeadline. A family with
    /// no batch in flight does not wait at all (kIdle).
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

  /// One client of a family's roster: what no instrument records. Its
  /// counts are the queue.client_{accepted,rejected,served} counters.
  struct RosterEntry {
    ClientId client;
    double weight = 1.0;
    size_t depth = 0;  ///< rows queued right now
  };

  /// Every queue's numbers are instruments on `registry` (non-null;
  /// must outlive the batcher), labeled family=<queue name>:
  /// queue.{accepted,rejected_full,rejected_cost} and
  /// queue.flush_{size,deadline,drain,idle} counters, the queue.depth gauge,
  /// and per client (client=<id>) queue.client_{accepted,rejected,served}.
  /// The workers' waits are batcher-wide counters: queue.polls{outcome=hit}
  /// (a poll whose rescan took a batch), queue.polls{outcome=miss} and
  /// queue.parks (waits on the condition variable).
  explicit RequestBatcher(obs::Registry* registry);

  /// Attaches the admission cost model. The controller's family ids must
  /// align with this batcher's FamilyIds (the serving engine registers
  /// both in lockstep). Call before traffic; nullptr disables cost-aware
  /// admission (the hard row cap still applies).
  void AttachController(const opt::AdmissionController* controller);

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

  /// Blocks until some family has a batch ready under the flush policy
  /// and forms it into `out`; returns false only once the batcher is shut
  /// down AND every queue is drained. Ready queues are served
  /// round-robin so one hot family cannot starve the others, and expired
  /// deadlines outrank size-ready queues in expiry order.
  ///
  /// Hand-back: a worker passes the SAME Batch it was last given. That
  /// ends the old batch's flight, so its family's queued rows may leave
  /// at once, and destroys its requests (payloads, resolved promises)
  /// before the batcher lock is taken. Every promise in it must be
  /// resolved by then. A fresh Batch hands nothing back; a Batch dropped
  /// without a hand-back leaves its family counted in flight, so the
  /// family's partial batches fall back to waiting max_delay.
  ///
  /// Waiting: a call that handed a batch back and finds no row queued in
  /// any family, while no other worker polls, polls for kPollWindow before
  /// it parks; it rescans after the first Submit, hand-back or Shutdown,
  /// and parks only if the rescan finds nothing to take. Every other wait
  /// parks at once (arming a deadline timer when rows wait behind an
  /// in-flight batch).
  bool NextBatch(Batch* out);

  /// Stops admission and wakes all waiting workers to drain the queues.
  void Shutdown();

  /// Rows currently queued across all families (racy snapshot).
  size_t pending() const;

  /// `family`'s clients in first-seen order.
  std::vector<RosterEntry> Roster(FamilyId family) const;

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
    /// queue.client_* counters (labels family=..., client=...).
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
    /// Batches formed and not yet handed back: while nonzero, a partial
    /// batch waits (up to max_delay) instead of leaving at once.
    size_t in_flight = 0;
    /// DRR rotation cursor over clients for size-triggered flushes.
    size_t drr_cursor = 0;
    /// Accepted requests until the trace sampler marks the next one: the
    /// sampler's own phase, exact on a disabled registry too.
    uint64_t until_traced = 0;
    /// queue.* admission/flush counters and the depth gauge.
    obs::Counter* accepted = nullptr;
    obs::Counter* rejected_full = nullptr;
    obs::Counter* rejected_cost = nullptr;
    obs::Counter* flush_size = nullptr;
    obs::Counter* flush_deadline = nullptr;
    obs::Counter* flush_drain = nullptr;
    obs::Counter* flush_idle = nullptr;
    obs::Gauge* depth = nullptr;
  };

  /// The client's subqueue, or nullptr when it has none (mu_ held).
  ClientQueue* FindClient(FamilyQueue& q, const ClientId& client);

  /// Adds a subqueue for a client FindClient did not find, with weight 1
  /// (mu_ held; the caller checks the roster cap).
  ClientQueue& AddClient(FamilyQueue& q, const ClientId& client);

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

  /// Pops up to max_batch_size rows of queue `f` into `out` and counts
  /// the batch in flight (mu_ held): DRR across clients for size
  /// flushes, oldest-first merge for every other reason.
  void TakeBatch(FamilyId f, FlushReason reason, Batch* out);

  /// Whether queued work is left that no sleeping worker will wake for
  /// (mu_ held): a full batch, rows of an idle family, rows to drain
  /// after Shutdown, or a deadline earlier than timer_at_.
  bool UnwatchedWorkLocked() const;

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  /// deque: stable references across AddQueue.
  std::deque<FamilyQueue> queues_;
  /// Round-robin cursor over families for size flushes.
  size_t next_queue_ = 0;
  /// The earliest wake-up a waiting worker has armed for a deadline (max
  /// when none). A later deadline needs no second timer. The worker that
  /// armed it clears it when it wakes, for whatever reason.
  std::chrono::steady_clock::time_point timer_at_ =
      std::chrono::steady_clock::time_point::max();
  bool shutdown_ = false;
  /// A worker is polling changes_ instead of waiting on ready_cv_, so
  /// Submit need not notify (mu_ held to read or write).
  bool polling_ = false;
  /// Bumped under mu_ by Submit, every hand-back and Shutdown; the poller
  /// reads it without the lock. Only its changes matter, so it may wrap.
  std::atomic<uint32_t> changes_{0};
  const opt::AdmissionController* controller_ = nullptr;
  obs::Registry* const registry_;
  /// queue.polls{outcome=hit|miss} and queue.parks, batcher-wide.
  obs::Counter* polls_hit_ = nullptr;
  obs::Counter* polls_miss_ = nullptr;
  obs::Counter* parks_ = nullptr;
};

}  // namespace dw::serve
