// NUMA-replicated, versioned model snapshots for the serving path: one
// named model FAMILY ("ctr-wide-lr", "spam-narrow-svm", ...).
//
// Each family keeps its own immutable, versioned snapshot chain, and --
// the paper's Sec. 3.2-3.3 point, applied to serving -- its replication
// is not passed in by the caller: the constructor chooses it through
// opt::ChooseModelPlacement() from the calibrated memory model, the
// topology, and the family's traffic estimate (model dim, expected batch
// width, read/write asymmetry). Benches that need a fixed strategy set
// FamilyOptions::replication_override. serve::ServingEngine owns its
// families, one per name.
//
// Training (engine::Engine) exports a consensus model; Publish() turns
// each export into an immutable ModelSnapshot whose weights are replicated
// through the same numa::NumaAllocator machinery the trainer uses. Serving
// is the read-mostly regime where PerNode replication usually wins: every
// reader scores against its node-local copy and no cacheline is ever
// shared across sockets. kPerMachine (one shared copy) is what the cost
// model picks when republish traffic or footprint dominates, and the
// bench baseline mirroring Fig. 8.
//
// Hot-swap: Publish() builds the new snapshot off to the side and installs
// it with one atomic pointer store. Concurrent readers either keep the
// snapshot they already acquired (it is immutable and refcounted) or see
// the new one -- never a mix of versions, never a torn weight vector.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "matrix/sparse_vector.h"
#include "numa/numa_allocator.h"
#include "numa/topology.h"
#include "opt/placement.h"
#include "serve/replication.h"
#include "util/logging.h"

namespace dw::serve {

/// One immutable, versioned model. Readers hold it via shared_ptr, so a
/// snapshot stays valid for as long as any in-flight batch references it,
/// even after newer versions are published.
class ModelSnapshot {
 public:
  uint64_t version() const { return version_; }
  /// Family this snapshot belongs to.
  const std::string& family() const { return family_; }
  matrix::Index dim() const { return dim_; }
  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  /// When the weights left the trainer (Publish time for raw weights).
  /// Serving staleness = now - exported_at().
  std::chrono::steady_clock::time_point exported_at() const {
    return exported_at_;
  }

  /// Node owning the replica that serves a reader on `node`.
  numa::NodeId ReplicaNodeFor(numa::NodeId node) const {
    return ReplicaFor(replicas_, node).node();
  }

  /// Weights a reader on `node` scores against: its node-local copy under
  /// kPerNode, the single shared copy under kPerMachine.
  const double* WeightsForNode(numa::NodeId node) const {
    return ReplicaFor(replicas_, node).data();
  }

  /// True when this snapshot also carries int8-quantized replicas
  /// (FamilyOptions::quantized): Publish() quantized the weights once
  /// (kernels::QuantizeWeights) and replicated the int8 image with the
  /// same placement as the f64 replicas.
  bool quantized() const { return !q_replicas_.empty(); }

  /// Dequantization scale of the int8 replicas (weights ~= scale * q,
  /// zero point 0). Only meaningful when quantized().
  double int8_scale() const { return q_scale_; }

  /// Int8 weights a reader on `node` scores against; same placement as
  /// WeightsForNode. CHECKs quantized().
  const int8_t* QuantizedWeightsForNode(numa::NodeId node) const {
    DW_CHECK(quantized()) << family_ << " has no quantized replicas";
    return ReplicaFor(q_replicas_, node).data();
  }

 private:
  friend class ModelFamily;
  ModelSnapshot() = default;

  /// The replica serving a reader on `node`: the single shared copy, or
  /// the node's own. `node` is validated: out of range under kPerNode it
  /// would index past the replicas (and silently read a neighboring
  /// family's weights, or worse).
  template <typename T>
  const numa::NodeArray<T>& ReplicaFor(
      const std::vector<numa::NodeArray<T>>& replicas,
      numa::NodeId node) const {
    DW_CHECK_GE(node, 0) << "negative node for " << family_;
    if (replicas.size() == 1) return replicas[0];
    DW_CHECK_LT(node, static_cast<numa::NodeId>(replicas.size()))
        << "node out of range for " << family_;
    return replicas[node];
  }

  uint64_t version_ = 0;
  std::string family_;
  matrix::Index dim_ = 0;
  std::chrono::steady_clock::time_point exported_at_{};
  /// Keeps the ledger the replicas report into alive even if a reader
  /// outlives the family. Declared before replicas_ so it is destroyed
  /// after them (their destructors post to the ledger).
  std::shared_ptr<numa::NumaAllocator> allocator_;
  std::vector<numa::NodeArray<double>> replicas_;
  /// Int8 image of the same weights, same replication (empty unless the
  /// family opted in). 1/8 the bytes of replicas_: the bandwidth cut the
  /// quantized scoring path exists for.
  std::vector<numa::NodeArray<int8_t>> q_replicas_;
  double q_scale_ = 0.0;
};

/// Registration-time description of a family. The traffic estimate feeds
/// the replication chooser; `dim` is required (it fixes the footprint and
/// lets admission validate feature indices before the first publish).
struct FamilyOptions {
  opt::ServingTrafficEstimate traffic;
  /// Explicit strategy for benches/ablations; leave unset in production
  /// so the cost model decides.
  std::optional<Replication> replication_override;
  /// Build int8-quantized replicas alongside the f64 ones at every
  /// Publish (symmetric per-family scale, see kernels::QuantizeWeights).
  /// Costs one dim-sized int8 image per replica; enables the
  /// dequantize-free scoring path with its documented error bound.
  bool quantized = false;
};

/// One named model family: a versioned immutable snapshot chain plus the
/// replication strategy fixed at registration.
class ModelFamily {
 public:
  /// Chooses the replication through opt::ChooseModelPlacement over one
  /// publish period of options.traffic unless options.replication_override
  /// pins it. `name` must be non-empty and options.traffic.dim positive
  /// (checked). Replicas are allocated through `allocator`.
  ModelFamily(std::string name, std::shared_ptr<numa::NumaAllocator> allocator,
              const FamilyOptions& options);

  const std::string& name() const { return name_; }
  /// The strategy the NEXT publish builds under. Lock-free: chosen at
  /// registration, thereafter changed only by Republish (the placement
  /// tuner's live-migration path).
  Replication replication() const {
    return replication_.load(std::memory_order_acquire);
  }
  /// Why the chooser picked the registration-time strategy ("explicit
  /// override" when the caller pinned it instead).
  const std::string& rationale() const { return rationale_; }
  /// Model dimension, fixed at registration. Lock-free; safe on the
  /// request admission hot path.
  matrix::Index dim() const { return dim_; }
  /// True when every Publish also builds int8 replicas (fixed at
  /// registration via FamilyOptions::quantized).
  bool quantized() const { return quantized_; }

  /// Copies `weights` into fresh per-node replicas and installs them as
  /// the family's current version (monotonic from 1). The weight count
  /// must equal dim(): admission validates feature indices against dim()
  /// once, which is only sound if every version a batch might score
  /// against agrees. `exported_at` stamps when the weights left the
  /// trainer, for staleness accounting.
  uint64_t Publish(const std::vector<double>& weights,
                   std::chrono::steady_clock::time_point exported_at =
                       std::chrono::steady_clock::now());

  /// Live migration: rebuilds the CURRENT weights under `replication`
  /// and installs them as a new version through the regular hot-swap
  /// path -- concurrent readers keep the snapshot they hold and no batch
  /// ever tears. The source snapshot's export timestamp carries over: a
  /// migration moves bytes, it does not refresh the model, so staleness
  /// accounting must not reset. No-op (returns the current version) when
  /// the replication already matches. CHECKs that a version has been
  /// published.
  uint64_t Republish(Replication replication);

  /// Acquires the current snapshot (nullptr before the first Publish).
  std::shared_ptr<const ModelSnapshot> Acquire() const;

  /// Version of the current snapshot (0 before the first Publish).
  /// Lock-free: workers diff this against an acquired snapshot's version
  /// to count how many publishes the batch is behind.
  uint64_t current_version() const {
    return current_version_.load(std::memory_order_acquire);
  }

 private:
  /// Publish body with publish_mu_ already held (shared by Publish and
  /// Republish, which must flip replication_ and rebuild atomically with
  /// respect to other publishers).
  uint64_t PublishLocked(const std::vector<double>& weights,
                         std::chrono::steady_clock::time_point exported_at);

  const std::string name_;
  std::shared_ptr<numa::NumaAllocator> allocator_;
  /// Registration choice, rewritten only by Republish (under
  /// publish_mu_); atomic so admission/stats paths may read it lock-free
  /// mid-migration.
  std::atomic<Replication> replication_;
  std::string rationale_;
  const matrix::Index dim_;
  const bool quantized_;
  /// Serializes publishers so installation order matches version order
  /// (readers rely on current_version() never going backwards). A
  /// blocking mutex: the critical section spans the replica allocation
  /// and full-model copies, far too long to spin through.
  std::mutex publish_mu_;
  uint64_t next_version_ = 1;
  std::atomic<uint64_t> current_version_{0};
  /// Accessed only through std::atomic_load/atomic_store.
  std::shared_ptr<const ModelSnapshot> current_;
};

}  // namespace dw::serve
