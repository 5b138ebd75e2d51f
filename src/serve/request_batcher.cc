#include "serve/request_batcher.h"

#include <algorithm>
#include <utility>

#include "util/barrier.h"
#include "util/logging.h"

namespace dw::serve {

const char* ToString(FlushReason r) {
  switch (r) {
    case FlushReason::kSize:
      return "size";
    case FlushReason::kDeadline:
      return "deadline";
    case FlushReason::kDrain:
      return "drain";
    case FlushReason::kIdle:
      return "idle";
  }
  return "?";
}

const char* ToString(RequestKind kind) {
  switch (kind) {
    case RequestKind::kCarried:
      return "carried";
    case RequestKind::kRowId:
      return "row_id";
    case RequestKind::kKey:
      return "key";
  }
  return "?";
}

Status ValidateClientId(const ClientId& client) {
  if (client.empty()) {
    return Status::InvalidArgument("client id must not be empty");
  }
  if (client.size() > kMaxClientIdBytes) {
    return Status::InvalidArgument("client id longer than " +
                                   std::to_string(kMaxClientIdBytes) +
                                   " bytes");
  }
  return Status::OK();
}

RequestBatcher::RequestBatcher(obs::Registry* registry)
    : registry_(registry) {
  DW_CHECK(registry_ != nullptr) << "the batcher needs a registry";
  polls_hit_ = registry_->GetCounter("queue.polls", {{"outcome", "hit"}});
  polls_miss_ = registry_->GetCounter("queue.polls", {{"outcome", "miss"}});
  parks_ = registry_->GetCounter("queue.parks");
}

void RequestBatcher::AttachController(
    const opt::AdmissionController* controller) {
  std::lock_guard<std::mutex> lk(mu_);
  controller_ = controller;
}

FamilyId RequestBatcher::AddQueue(const Options& opts,
                                  const std::string& name) {
  DW_CHECK_GT(opts.max_batch_size, 0u);
  DW_CHECK_GT(opts.max_queue_rows, 0u);
  DW_CHECK_GT(opts.drr_quantum_rows, 0u);
  DW_CHECK_GT(opts.max_clients, 0u);
  std::lock_guard<std::mutex> lk(mu_);
  FamilyQueue q;
  q.opts = opts;
  q.label = name.empty() ? "q" + std::to_string(queues_.size()) : name;
  const obs::Labels labels = {{"family", q.label}};
  q.accepted = registry_->GetCounter("queue.accepted", labels);
  q.rejected_full = registry_->GetCounter("queue.rejected_full", labels);
  q.rejected_cost = registry_->GetCounter("queue.rejected_cost", labels);
  q.flush_size = registry_->GetCounter("queue.flush_size", labels);
  q.flush_deadline = registry_->GetCounter("queue.flush_deadline", labels);
  q.flush_drain = registry_->GetCounter("queue.flush_drain", labels);
  q.flush_idle = registry_->GetCounter("queue.flush_idle", labels);
  q.depth = registry_->GetGauge("queue.depth", labels);
  queues_.push_back(std::move(q));
  return static_cast<FamilyId>(queues_.size() - 1);
}

RequestBatcher::ClientQueue* RequestBatcher::FindClient(
    FamilyQueue& q, const ClientId& client) {
  const auto it = q.client_index.find(client.str());
  return it == q.client_index.end() ? nullptr : &q.clients[it->second];
}

RequestBatcher::ClientQueue& RequestBatcher::AddClient(
    FamilyQueue& q, const ClientId& client) {
  ClientQueue cq;
  cq.id = client;
  const obs::Labels labels = {{"family", q.label},
                              {"client", client.str()}};
  cq.accepted = registry_->GetCounter("queue.client_accepted", labels);
  cq.rejected = registry_->GetCounter("queue.client_rejected", labels);
  cq.served = registry_->GetCounter("queue.client_served", labels);
  cq.last_active = std::chrono::steady_clock::now();
  q.client_index[client.str()] = q.clients.size();
  q.clients.push_back(std::move(cq));
  q.total_weight += q.clients.back().weight;
  return q.clients.back();
}

void RequestBatcher::SetClientWeight(FamilyId family, const ClientId& client,
                                     double weight) {
  // Operator configuration, not request-path input: a bad id or weight
  // here is a programming error, so it dies instead of returning Status.
  const Status v = ValidateClientId(client);
  DW_CHECK(v.ok()) << v.ToString();
  DW_CHECK_GT(weight, 0.0) << "client weight must be positive: "
                           << client.str();
  std::lock_guard<std::mutex> lk(mu_);
  DW_CHECK_GE(family, 0);
  DW_CHECK_LT(family, static_cast<FamilyId>(queues_.size()));
  FamilyQueue& q = queues_[family];
  ClientQueue* found = FindClient(q, client);
  if (found == nullptr) {
    DW_CHECK_LT(q.clients.size(), q.opts.max_clients)
        << "client roster full for family (max_clients="
        << q.opts.max_clients << "): " << client.str();
    found = &AddClient(q, client);
  }
  ClientQueue& cq = *found;
  q.total_weight += weight - cq.weight;
  cq.weight = weight;
  // A weight change mid-service must not leave the DRR accounting torn:
  // deficit earned at the old weight is a burst entitlement the new
  // weight never granted (a demoted hog would keep draining at its old
  // rate until its backlog emptied; symmetrically, a stale small deficit
  // under-serves a promoted client). Resetting makes the next rotation
  // visit re-earn credit at the new weight -- no stale burst, no
  // starvation window.
  cq.deficit = 0;
  // Operator-declared tenants are pinned: idle aging must not reclaim a
  // reservation that was explicitly configured.
  cq.pinned = true;
  cq.last_active = std::chrono::steady_clock::now();
}

void RequestBatcher::EvictIdleClientsLocked(
    FamilyQueue& q, std::chrono::steady_clock::time_point now) {
  if (q.opts.client_idle_timeout.count() <= 0) return;
  const auto cutoff = now - q.opts.client_idle_timeout;
  bool evicted = false;
  for (size_t i = 0; i < q.clients.size();) {
    const ClientQueue& cq = q.clients[i];
    if (!cq.pinned && cq.queue.empty() && cq.last_active < cutoff) {
      q.total_weight -= cq.weight;
      q.clients.erase(q.clients.begin() + static_cast<ptrdiff_t>(i));
      evicted = true;
    } else {
      ++i;
    }
  }
  if (!evicted) return;
  // Positions shifted: rebuild the name index and park the DRR cursor
  // (one rotation restart is noise next to a roster change).
  q.client_index.clear();
  for (size_t i = 0; i < q.clients.size(); ++i) {
    q.client_index[q.clients[i].id.str()] = i;
  }
  q.drr_cursor = 0;
}

StatusOr<std::future<double>> RequestBatcher::Submit(
    FamilyId family, ScoreRequest req,
    std::chrono::steady_clock::time_point admitted_at) {
  // Empty indices with nonempty values is the explicit dense form.
  if (req.kind == RequestKind::kCarried && !req.indices.empty() &&
      req.indices.size() != req.values.size()) {
    return Status::InvalidArgument("indices/values length mismatch");
  }
  // The id crosses a trust boundary (it becomes a stats key and a queue
  // map key), so it is bounds-checked like a feature index, with a
  // Status the caller can surface.
  const Status v = ValidateClientId(req.client);
  if (!v.ok()) return v;
  req.enqueued_at = std::chrono::steady_clock::now();
  // Admit stage: the caller's validation work before this enqueue. Only
  // charged when the caller passed its entry time (the serving engine
  // does; direct batcher users usually have no admit stage).
  if (admitted_at != std::chrono::steady_clock::time_point{}) {
    req.admit_us = std::chrono::duration<double, std::micro>(
                       req.enqueued_at - admitted_at)
                       .count();
  }
  std::future<double> fut = req.result.get_future();

  bool wake = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    DW_CHECK_GE(family, 0);
    DW_CHECK_LT(family, static_cast<FamilyId>(queues_.size()));
    if (shutdown_) {
      return Status::FailedPrecondition("batcher is shut down");
    }
    FamilyQueue& q = queues_[family];
    // Age out stale one-shot clients first: their reserved share flows
    // back to live tenants, and their roster slot is available to THIS
    // arrival if it is a new client.
    EvictIdleClientsLocked(q, req.enqueued_at);
    // The client roster is bounded BEFORE anything is allocated: each
    // distinct id holds a permanent subqueue and dilutes every tenant's
    // share, so a caller misusing per-request ids as client ids must be
    // refused, not accumulated.
    ClientQueue* found = FindClient(q, req.client);
    if (found == nullptr) {
      if (q.clients.size() >= q.opts.max_clients) {
        q.rejected_full->Increment();
        return Status::ResourceExhausted("client roster full for family");
      }
      found = &AddClient(q, req.client);
    }
    ClientQueue& cq = *found;
    // A client's admission share: its weight over the weights of ALL
    // KNOWN clients (pre-registered through SetClientWeight or seen at
    // least once). Known-but-idle clients keep their reservation on
    // purpose: if a flooding client could absorb an idle neighbor's
    // share, the neighbor's next request would find the family-wide cap
    // already exhausted and fair queuing would protect nobody. One-shot
    // clients dilute shares only until client_idle_timeout ages them out
    // of the roster (pinned tenants keep theirs indefinitely).
    const bool split_shares = q.opts.fair_queuing && q.clients.size() > 1;
    const double share =
        split_shares ? cq.weight / q.total_weight : 1.0;
    // Hard row cap: the family-wide memory bound, and under fair queuing
    // the client's weighted slice of it (at least one row, so a light
    // client is never locked out entirely by rounding).
    if (q.rows >= q.opts.max_queue_rows) {
      q.rejected_full->Increment();
      cq.rejected->Increment();
      return Status::ResourceExhausted("serving queue full");
    }
    if (split_shares) {
      const size_t client_cap = std::max<size_t>(
          1, static_cast<size_t>(
                 static_cast<double>(q.opts.max_queue_rows) * share));
      if (cq.queue.size() >= client_cap) {
        q.rejected_full->Increment();
        cq.rejected->Increment();
        return Status::ResourceExhausted("client queue share full");
      }
    }
    // Cost-aware admission, when the family sets a delay budget: reject
    // when the backlog AHEAD of this request would take longer to drain
    // than the budget. Under fair queuing the client sees only its own
    // backlog, but also only its weighted share of the drain bandwidth.
    // An empty queue is always admissible: zero wait can never exceed a
    // budget.
    if (controller_ != nullptr && q.opts.queue_delay_budget.count() > 0) {
      const double budget_sec =
          std::chrono::duration<double>(q.opts.queue_delay_budget).count();
      const double wait_sec =
          split_shares
              ? controller_->EstimatedDrainSeconds(family, cq.queue.size()) /
                    share
              : controller_->EstimatedDrainSeconds(family, q.rows);
      if (wait_sec > budget_sec) {
        q.rejected_cost->Increment();
        cq.rejected->Increment();
        return Status::ResourceExhausted(
            "estimated queueing delay over budget");
      }
    }
    // Trace sampling anchors on the first accepted request, then every
    // Nth after it, so short runs still produce at least one span.
    if (q.opts.trace_sample_every > 0) {
      if (q.until_traced == 0) {
        req.traced = true;
        q.until_traced = q.opts.trace_sample_every;
      }
      --q.until_traced;
    }
    q.accepted->Increment();
    cq.accepted->Increment();
    cq.last_active = req.enqueued_at;
    cq.queue.push_back(std::move(req));
    ++q.rows;
    q.depth->Set(static_cast<double>(q.rows));
    changes_.fetch_add(1);
    // Only the family's first queued row (an idle flush, or a deadline
    // to arm) and the row that fills a batch change what a waiter does;
    // a row joining a waiting partial batch wakes nobody. A polling
    // worker rescans once it retakes the lock, which is after this
    // Submit's, so it sees this row without a wake-up.
    wake = !polling_ && (q.rows == 1 || q.rows == q.opts.max_batch_size);
  }
  if (wake) ready_cv_.notify_one();
  return fut;
}

bool RequestBatcher::OldestFront(
    const FamilyQueue& q, std::chrono::steady_clock::time_point* when) const {
  bool any = false;
  for (const ClientQueue& cq : q.clients) {
    if (cq.queue.empty()) continue;
    if (!any || cq.queue.front().enqueued_at < *when) {
      any = true;
      *when = cq.queue.front().enqueued_at;
    }
  }
  return any;
}

void RequestBatcher::TakeBatch(FamilyId f, FlushReason reason, Batch* out) {
  FamilyQueue& q = queues_[f];
  const size_t take = std::min(q.rows, q.opts.max_batch_size);
  out->family = f;
  out->reason = reason;
  out->formed_at = std::chrono::steady_clock::now();
  out->requests.reserve(take);
  size_t taken = 0;
  if (reason == FlushReason::kSize && q.opts.fair_queuing &&
      q.clients.size() > 1) {
    // Size flushes are the throughput path: deficit round robin across
    // clients, so a flooding client fills only its weighted share of
    // each batch. Every visit credits the client quantum * weight rows
    // (at least one, so tiny weights still make progress); rows it
    // cannot spend carry over as deficit until its subqueue empties.
    while (taken < take) {
      ClientQueue& cq = q.clients[q.drr_cursor % q.clients.size()];
      ++q.drr_cursor;
      if (cq.queue.empty()) {
        cq.deficit = 0;
        continue;
      }
      cq.deficit += std::max<size_t>(
          1, static_cast<size_t>(
                 static_cast<double>(q.opts.drr_quantum_rows) * cq.weight));
      size_t n = std::min({cq.deficit, cq.queue.size(), take - taken});
      cq.deficit -= n;
      cq.served->Add(n);
      taken += n;
      while (n-- > 0) {
        out->requests.push_back(std::move(cq.queue.front()));
        cq.queue.pop_front();
      }
      if (cq.queue.empty()) cq.deficit = 0;
    }
  } else {
    // Deadline, idle and drain flushes are the latency path: rows leave
    // oldest-first across clients, so the aged request that triggered
    // the flush is in the batch, not stranded behind a rotation cursor.
    // (FIFO mode takes this arrival-ordered merge for every reason.)
    while (taken < take) {
      ClientQueue* oldest = nullptr;
      for (ClientQueue& cq : q.clients) {
        if (cq.queue.empty()) continue;
        if (oldest == nullptr || cq.queue.front().enqueued_at <
                                     oldest->queue.front().enqueued_at) {
          oldest = &cq;
        }
      }
      DW_CHECK(oldest != nullptr);
      out->requests.push_back(std::move(oldest->queue.front()));
      oldest->queue.pop_front();
      oldest->served->Increment();
      ++taken;
    }
  }
  q.rows -= take;
  q.depth->Set(static_cast<double>(q.rows));
  ++q.in_flight;
  out->in_flight_ = true;
  switch (reason) {
    case FlushReason::kSize:
      q.flush_size->Increment();
      break;
    case FlushReason::kDeadline:
      q.flush_deadline->Increment();
      break;
    case FlushReason::kDrain:
      q.flush_drain->Increment();
      break;
    case FlushReason::kIdle:
      q.flush_idle->Increment();
      break;
  }
}

bool RequestBatcher::UnwatchedWorkLocked() const {
  for (const FamilyQueue& q : queues_) {
    if (q.rows == 0) continue;
    if (shutdown_ || q.in_flight == 0 || q.rows >= q.opts.max_batch_size) {
      return true;
    }
    std::chrono::steady_clock::time_point front;
    OldestFront(q, &front);
    if (front + q.opts.max_delay < timer_at_) return true;
  }
  return false;
}

bool RequestBatcher::NextBatch(Batch* out) {
  // The hand-back: the batch this worker last took is finished. Its
  // requests (payload vectors, resolved promises) are freed here, before
  // the lock, so Submit never waits on a worker's deallocations.
  out->requests.clear();
  std::unique_lock<std::mutex> lk(mu_);
  // Only a worker whose batch has just finished may poll, once: traffic
  // has just flowed, so the next row is likely close behind.
  bool may_poll = out->in_flight_;
  bool polled = false;
  if (out->in_flight_) {
    out->in_flight_ = false;
    --queues_[out->family].in_flight;
    changes_.fetch_add(1);
  }
  for (;;) {
    const size_t nq = queues_.size();
    // One scan: the earliest deadline of any queued request, and the
    // earliest among families with no batch in flight (idle).
    bool any_waiting = false;
    auto earliest = std::chrono::steady_clock::time_point::max();
    size_t earliest_f = 0;
    auto idle_earliest = std::chrono::steady_clock::time_point::max();
    size_t idle_f = nq;  // none
    for (size_t f = 0; f < nq; ++f) {
      std::chrono::steady_clock::time_point front;
      if (!OldestFront(queues_[f], &front)) continue;
      const auto deadline = front + queues_[f].opts.max_delay;
      if (!any_waiting || deadline < earliest) {
        any_waiting = true;
        earliest = deadline;
        earliest_f = f;
      }
      if (queues_[f].in_flight == 0 && deadline < idle_earliest) {
        idle_earliest = deadline;
        idle_f = f;
      }
    }
    // Expired deadlines outrank everything, INCLUDING size-ready
    // neighbors and the round-robin cursor: a family whose oldest
    // request has aged past max_delay already blew its latency promise,
    // while a full batch merely became eligible -- under sustained load
    // on one hot family the size branch is always ready, and checking it
    // first would starve everyone else's deadlines without bound. The
    // scan covers EVERY family and picks the earliest deadline, so
    // multiple expired families drain in expiry order, not cursor order.
    size_t pick = nq;
    FlushReason reason = FlushReason::kDeadline;
    if (any_waiting && std::chrono::steady_clock::now() >= earliest) {
      pick = earliest_f;
    }
    // Size-triggered flush, round-robin from the cursor so a hot family
    // cannot monopolize the workers.
    for (size_t k = 0; pick == nq && k < nq; ++k) {
      const size_t f = (next_queue_ + k) % nq;
      if (queues_[f].rows >= queues_[f].opts.max_batch_size) {
        pick = f;
        reason = FlushReason::kSize;
      }
    }
    if (pick == nq && shutdown_) {
      for (size_t k = 0; pick == nq && k < nq; ++k) {
        const size_t f = (next_queue_ + k) % nq;
        if (queues_[f].rows > 0) pick = f;
      }
      if (pick == nq) {  // shut down AND fully drained
        if (polled) polls_miss_->Increment();
        return false;
      }
      reason = FlushReason::kDrain;
    }
    // Nagle: a family with no batch in flight sends what it has.
    if (pick == nq && idle_f < nq) {
      pick = idle_f;
      reason = FlushReason::kIdle;
    }
    if (pick < nq) {
      if (polled) polls_hit_->Increment();
      next_queue_ = (pick + 1) % nq;
      TakeBatch(static_cast<FamilyId>(pick), reason, out);
      const bool wake = UnwatchedWorkLocked();
      lk.unlock();
      if (wake) ready_cv_.notify_one();
      return true;
    }
    // Nothing is queued anywhere and nobody polls: poll for the next
    // change without the lock, then rescan. Any Submit that skipped its
    // notify for this poll ran before the lock is retaken, so the rescan
    // sees its row; a poll that comes back empty parks below.
    if (may_poll && !any_waiting && !polling_) {
      may_poll = false;
      polled = true;
      polling_ = true;
      const uint32_t seen = changes_.load();
      lk.unlock();
      PollForChange(changes_, seen, kPollWindow);
      lk.lock();
      polling_ = false;
      continue;
    }
    if (polled) {
      polls_miss_->Increment();
      polled = false;
    }
    parks_->Increment();
    // Every queued row sits behind an in-flight batch of its family.
    // Arm a timer for the earliest deadline unless a sleeping worker
    // already wakes by then; otherwise wait for a Submit, a sibling's
    // wake or Shutdown.
    if (any_waiting && earliest < timer_at_) {
      timer_at_ = earliest;
      ready_cv_.wait_until(lk, earliest);
      if (timer_at_ == earliest) {
        timer_at_ = std::chrono::steady_clock::time_point::max();
      }
    } else {
      ready_cv_.wait(lk);
    }
  }
}

void RequestBatcher::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
    changes_.fetch_add(1);
  }
  ready_cv_.notify_all();
}

size_t RequestBatcher::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t total = 0;
  for (const FamilyQueue& q : queues_) total += q.rows;
  return total;
}

std::vector<RequestBatcher::RosterEntry> RequestBatcher::Roster(
    FamilyId family) const {
  std::lock_guard<std::mutex> lk(mu_);
  DW_CHECK_GE(family, 0);
  DW_CHECK_LT(family, static_cast<FamilyId>(queues_.size()));
  std::vector<RosterEntry> out;
  for (const ClientQueue& cq : queues_[family].clients) {
    out.push_back({cq.id, cq.weight, cq.queue.size()});
  }
  return out;
}

}  // namespace dw::serve
