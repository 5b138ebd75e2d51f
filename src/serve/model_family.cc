#include "serve/model_family.h"

#include <cstring>
#include <utility>

#include "kernels/score_kernels.h"

namespace dw::serve {

const char* ToString(Replication r) {
  switch (r) {
    case Replication::kPerNode:
      return "PerNode";
    case Replication::kPerMachine:
      return "PerMachine";
  }
  return "?";
}

// --- ModelFamily ----------------------------------------------------------

namespace {

/// `copies` node-local copies of src[0, n): copy c lives on node c.
template <typename T>
std::vector<numa::NodeArray<T>> Replicate(numa::NumaAllocator& allocator,
                                          const T* src, size_t n,
                                          int copies) {
  std::vector<numa::NodeArray<T>> out;
  out.reserve(copies);
  for (int c = 0; c < copies; ++c) {
    auto replica = allocator.AllocateOnNode<T>(c, n);
    std::memcpy(replica.data(), src, n * sizeof(T));
    out.push_back(std::move(replica));
  }
  return out;
}

}  // namespace

ModelFamily::ModelFamily(std::string name,
                         std::shared_ptr<numa::NumaAllocator> allocator,
                         const FamilyOptions& options)
    : name_(std::move(name)),
      allocator_(std::move(allocator)),
      dim_(options.traffic.dim),
      quantized_(options.quantized) {
  DW_CHECK(!name_.empty()) << "family needs a name";
  DW_CHECK(allocator_ != nullptr) << "family needs an allocator";
  DW_CHECK_GT(dim_, 0u) << "family " << name_ << " needs traffic.dim";
  if (options.replication_override.has_value()) {
    replication_ = *options.replication_override;
    rationale_ = "explicit override";
  } else {
    const opt::PlacementChoice choice = opt::ChooseModelPlacement(
        allocator_->topology(), options.traffic,
        options.traffic.reads_per_publish, /*publishes=*/1.0);
    replication_ =
        choice.replicate ? Replication::kPerNode : Replication::kPerMachine;
    rationale_ = choice.rationale;
  }
}

uint64_t ModelFamily::Publish(
    const std::vector<double>& weights,
    std::chrono::steady_clock::time_point exported_at) {
  DW_CHECK(!weights.empty()) << "publishing an empty model to " << name_;
  DW_CHECK_EQ(static_cast<matrix::Index>(weights.size()), dim_)
      << "model dimension mismatch for family " << name_;
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  return PublishLocked(weights, exported_at);
}

uint64_t ModelFamily::Republish(Replication replication) {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  const auto snap =
      std::atomic_load_explicit(&current_, std::memory_order_acquire);
  DW_CHECK(snap != nullptr)
      << "republishing family " << name_ << " before any publish";
  if (replication == replication_.load(std::memory_order_relaxed)) {
    return snap->version_;
  }
  // Copy the served weights out of replica 0 (every replica is
  // identical), flip the strategy, and run the regular publish body: the
  // migration IS just another hot-swap, preserving the source snapshot's
  // export timestamp so staleness does not reset.
  const std::vector<double> weights(
      snap->replicas_[0].data(), snap->replicas_[0].data() + snap->dim_);
  replication_.store(replication, std::memory_order_release);
  return PublishLocked(weights, snap->exported_at_);
}

uint64_t ModelFamily::PublishLocked(
    const std::vector<double>& weights,
    std::chrono::steady_clock::time_point exported_at) {
  const uint64_t version = next_version_++;

  // Build the replacement entirely off to the side; readers keep scoring
  // against the old snapshot until the single pointer store below.
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  snap->version_ = version;
  snap->family_ = name_;
  snap->dim_ = dim_;
  snap->exported_at_ = exported_at;
  snap->allocator_ = allocator_;
  const int copies =
      replication_.load(std::memory_order_relaxed) == Replication::kPerNode
          ? allocator_->topology().num_nodes
          : 1;
  snap->replicas_ =
      Replicate(*allocator_, weights.data(), weights.size(), copies);
  if (quantized_) {
    // Quantize ONCE, then replicate the int8 image with the same
    // placement as the f64 copies: every reader's node-local int8
    // replica dequantizes with the same per-family scale.
    std::vector<int8_t> qimage(weights.size());
    snap->q_scale_ =
        kernels::QuantizeWeights(weights.data(), dim_, qimage.data());
    snap->q_replicas_ =
        Replicate(*allocator_, qimage.data(), qimage.size(), copies);
  }

  // Counter first, pointer second: a reader that acquires the NEW
  // snapshot must never see a current_version() older than it (workers
  // diff the two for versions-behind staleness; the opposite order would
  // let the difference underflow). A reader in the one-instruction window
  // sees the OLD snapshot with the new counter -- i.e. "one behind",
  // which is true: version `version` is already committed.
  current_version_.store(version, std::memory_order_release);
  std::atomic_store_explicit(
      &current_, std::shared_ptr<const ModelSnapshot>(std::move(snap)),
      std::memory_order_release);
  return version;
}

std::shared_ptr<const ModelSnapshot> ModelFamily::Acquire() const {
  return std::atomic_load_explicit(&current_, std::memory_order_acquire);
}

}  // namespace dw::serve
