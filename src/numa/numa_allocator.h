// Node-tagged memory allocation.
//
// On a real NUMA box DimmWitted would call numa_alloc_onnode(); libnuma is
// not available here, so the allocator performs ordinary cache-aligned
// allocation and *records* the virtual node every region belongs to. All
// placement decisions (data/worker collocation, per-node replicas, OS-vs-
// NUMA placement ablation) execute against these tags, and the per-node
// byte ledger lets tests assert that plans place memory where they claim.
// The allocator itself places no page: a fresh page lands on the node of
// the CPU that first writes it. AllocateOnNode's zero fill is such a write
// (on the allocating thread); AllocateOnNodeForOverwrite leaves the first
// write to the caller, so a caller that writes from a thread pinned to the
// node's CPUs (serve::FeatureStore's loaders) makes the tag physical on a
// host whose CPUs sit on the modeled nodes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "numa/topology.h"
#include "util/aligned.h"
#include "util/barrier.h"
#include "util/logging.h"

namespace dw::numa {

/// Tracks how many bytes live on each virtual node.
class NodeLedger {
 public:
  explicit NodeLedger(int num_nodes) : bytes_(num_nodes, 0) {}

  /// Records an allocation of `bytes` on `node`.
  void Add(NodeId node, size_t bytes) {
    std::lock_guard<SpinLock> g(mu_);
    bytes_.at(node) += bytes;
  }

  /// Records a deallocation.
  void Sub(NodeId node, size_t bytes) {
    std::lock_guard<SpinLock> g(mu_);
    DW_CHECK_GE(bytes_.at(node), bytes);
    bytes_.at(node) -= bytes;
  }

  /// Bytes currently attributed to `node`.
  size_t BytesOnNode(NodeId node) const {
    std::lock_guard<SpinLock> g(mu_);
    return bytes_.at(node);
  }

  /// Number of nodes tracked.
  int num_nodes() const { return static_cast<int>(bytes_.size()); }

 private:
  mutable SpinLock mu_;
  std::vector<size_t> bytes_;
};

/// A typed array that knows which virtual node it lives on.
template <typename T>
class NodeArray {
 public:
  NodeArray() = default;
  NodeArray(NodeId node, size_t size, NodeLedger* ledger)
      : node_(node), ledger_(ledger), storage_(size) {
    if (ledger_ != nullptr) ledger_->Add(node_, size * sizeof(T));
  }
  /// Tag for the constructor that skips the zero fill.
  struct ForOverwrite {};
  NodeArray(NodeId node, size_t size, NodeLedger* ledger, ForOverwrite)
      : node_(node), ledger_(ledger) {
    storage_.ResizeForOverwrite(size);
    if (ledger_ != nullptr) ledger_->Add(node_, size * sizeof(T));
  }

  NodeArray(NodeArray&& o) noexcept { *this = std::move(o); }
  NodeArray& operator=(NodeArray&& o) noexcept {
    Release();
    node_ = o.node_;
    ledger_ = o.ledger_;
    storage_ = std::move(o.storage_);
    o.ledger_ = nullptr;
    return *this;
  }
  NodeArray(const NodeArray&) = delete;
  NodeArray& operator=(const NodeArray&) = delete;
  ~NodeArray() { Release(); }

  /// Virtual node owning the bytes.
  NodeId node() const { return node_; }

  T* data() { return storage_.data(); }
  const T* data() const { return storage_.data(); }
  size_t size() const { return storage_.size(); }
  T& operator[](size_t i) { return storage_[i]; }
  const T& operator[](size_t i) const { return storage_[i]; }

 private:
  void Release() {
    if (ledger_ != nullptr && storage_.size() > 0) {
      ledger_->Sub(node_, storage_.size() * sizeof(T));
    }
    ledger_ = nullptr;
  }

  NodeId node_ = 0;
  NodeLedger* ledger_ = nullptr;
  AlignedArray<T> storage_;
};

/// Factory bound to one topology + ledger; the engine's locality groups
/// allocate all node-local state through this.
class NumaAllocator {
 public:
  explicit NumaAllocator(const Topology& topo)
      : topo_(topo), ledger_(topo.num_nodes) {}

  /// Allocates `size` T's on virtual node `node` (zeroed).
  template <typename T>
  NodeArray<T> AllocateOnNode(NodeId node, size_t size) {
    DW_CHECK_GE(node, 0);
    DW_CHECK_LT(node, topo_.num_nodes);
    return NodeArray<T>(node, size, &ledger_);
  }

  /// AllocateOnNode without the zero fill, for buffers the caller
  /// overwrites before it reads them (feature-store row blocks and the
  /// index shards of a full publish, first written by the node's loaders).
  template <typename T>
  NodeArray<T> AllocateOnNodeForOverwrite(NodeId node, size_t size) {
    DW_CHECK_GE(node, 0);
    DW_CHECK_LT(node, topo_.num_nodes);
    return NodeArray<T>(node, size, &ledger_,
                        typename NodeArray<T>::ForOverwrite{});
  }

  /// Records bytes that are *logically* placed on `node` without a
  /// physical allocation (e.g. a data replica that, on this single-domain
  /// host, aliases the original buffer). Keeps the ledger faithful to the
  /// plan's placement decisions so tests and the placement ablation can
  /// inspect them.
  void NoteLogicalBytes(NodeId node, size_t bytes) {
    ledger_.Add(node, bytes);
  }

  /// Per-node allocation ledger (bytes currently live).
  const NodeLedger& ledger() const { return ledger_; }

  /// The topology this allocator serves.
  const Topology& topology() const { return topo_; }

 private:
  Topology topo_;
  NodeLedger ledger_;
};

}  // namespace dw::numa
