#include "kernels/dispatch.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "util/logging.h"

namespace dw::kernels {

const char* ToString(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar:
      return "scalar";
    case KernelLevel::kAvx2:
      return "avx2";
    case KernelLevel::kAvx512:
      return "avx512";
  }
  return "?";
}

bool ParseKernelLevel(const std::string& name, KernelLevel* out) {
  if (name == "scalar") {
    *out = KernelLevel::kScalar;
    return true;
  }
  if (name == "avx2") {
    *out = KernelLevel::kAvx2;
    return true;
  }
  if (name == "avx512") {
    *out = KernelLevel::kAvx512;
    return true;
  }
  return false;
}

bool LevelSupported(KernelLevel level) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  switch (level) {
    case KernelLevel::kScalar:
      return true;
    case KernelLevel::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case KernelLevel::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
  }
  return false;
#else
  return level == KernelLevel::kScalar;
#endif
}

KernelLevel DetectKernelLevel() {
  if (LevelSupported(KernelLevel::kAvx512)) return KernelLevel::kAvx512;
  if (LevelSupported(KernelLevel::kAvx2)) return KernelLevel::kAvx2;
  return KernelLevel::kScalar;
}

namespace {

/// -1 = no test override, otherwise the forced KernelLevel value.
std::atomic<int> g_forced_level{-1};

KernelLevel ResolveEnvLevel() {
  const char* env = std::getenv("DW_KERNEL_LEVEL");
  if (env == nullptr || *env == '\0') return DetectKernelLevel();
  const KernelLevel best = DetectKernelLevel();
  KernelLevel requested;
  if (!ParseKernelLevel(env, &requested)) {
    DW_LOG(Warning) << "DW_KERNEL_LEVEL='" << env
                    << "' is not scalar|avx2|avx512; using detected level "
                    << ToString(best);
    return best;
  }
  if (!LevelSupported(requested)) {
    // The explicit line CI's dispatch matrix relies on: a clamped level
    // must never be silently reported as coverage of the requested one.
    DW_LOG(Warning) << "DW_KERNEL_LEVEL=" << ToString(requested)
                    << " is not supported by this CPU; clamping to "
                    << ToString(best);
    return best;
  }
  return requested;
}

}  // namespace

KernelLevel ActiveKernelLevel() {
  const int forced = g_forced_level.load(std::memory_order_acquire);
  if (forced >= 0) return static_cast<KernelLevel>(forced);
  static const KernelLevel resolved = ResolveEnvLevel();
  return resolved;
}

ScopedKernelLevelForTesting::ScopedKernelLevelForTesting(KernelLevel level) {
  DW_CHECK(LevelSupported(level))
      << "cannot force unsupported kernel level " << ToString(level);
  previous_ = g_forced_level.exchange(static_cast<int>(level),
                                      std::memory_order_acq_rel);
}

ScopedKernelLevelForTesting::~ScopedKernelLevelForTesting() {
  g_forced_level.store(previous_, std::memory_order_release);
}

namespace {

KernelTuning ResolveTuning() {
  KernelTuning t;
  if (const char* env = std::getenv("DW_KERNEL_BLOCK_COLS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      const long clamped = std::clamp(v, 512L, 65536L);
      t.block_cols = static_cast<matrix::Index>((clamped / 8) * 8);
      return t;
    }
    DW_LOG(Warning) << "ignoring unparseable DW_KERNEL_BLOCK_COLS='" << env
                    << "'; sizing the block from the L2 instead";
  }
  // Size the block from the private L2: the largest candidate whose f64
  // block fills at most half of it, leaving the other half to the row
  // slices that stream past the resident block. Bigger blocks amortize
  // more row traffic per model load, so prefer them while they fit. A
  // host that reports no L2 size keeps the default.
  long l2_bytes = 0;
#ifdef _SC_LEVEL2_CACHE_SIZE
  l2_bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
  constexpr matrix::Index kCandidates[] = {2048, 4096, 8192, 16384};
  if (l2_bytes > 0) {
    t.block_cols = kCandidates[0];
    for (const matrix::Index cols : kCandidates) {
      if (static_cast<long>(cols * sizeof(double)) <= l2_bytes / 2) {
        t.block_cols = cols;
      }
    }
  }
  DW_LOG(Info) << "kernel tuning: block_cols=" << t.block_cols << " (L2 "
               << l2_bytes << " B)";
  return t;
}

}  // namespace

const KernelTuning& Tuning() {
  static const KernelTuning tuning = ResolveTuning();
  return tuning;
}

}  // namespace dw::kernels
