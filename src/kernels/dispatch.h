// Runtime ISA dispatch for the scoring kernels.
//
// The serving hot path (GlmSpec::PredictBatch and the int8-quantized
// variant) routes every dense block dot and sparse gather through a
// per-level kernel table selected ONCE at startup:
//
//   - kScalar:  the register-tiled portable kernels (8 stride-8
//               accumulator lanes per row) -- the reference every other
//               level must reproduce bitwise;
//   - kAvx2:    256-bit vectors, two accumulator vectors per row mapping
//               lanes 0-3/4-7 onto the scalar lanes, plus a 4-double
//               model gather for sparse rows;
//   - kAvx512:  512-bit vectors, one accumulator vector per row, an
//               8-double model gather, and software prefetch of upcoming
//               gather targets.
//
// Every level performs the SAME per-lane arithmetic in the SAME order
// (multiply then add, no FMA contraction, identical pairwise lane fold),
// so the float paths are bitwise-equal across levels -- the property the
// CI dispatch matrix pins. Selection order: a test override
// (ScopedKernelLevelForTesting) > the DW_KERNEL_LEVEL environment
// variable (scalar|avx2|avx512) > CPUID detection. Asking for a level
// the host cannot run logs an explicit line and clamps to the best
// supported level; CI checks /proc/cpuinfo first so a clamped run is
// never mistaken for coverage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "matrix/sparse_vector.h"

namespace dw::kernels {

/// The ISA tiers the scoring kernels are built for, worst to best.
enum class KernelLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

const char* ToString(KernelLevel level);

/// Parses "scalar" / "avx2" / "avx512"; false on anything else.
bool ParseKernelLevel(const std::string& name, KernelLevel* out);

/// True if this host's CPU can execute `level` (CPUID; scalar is always
/// supported, AVX-512 requires avx512f).
bool LevelSupported(KernelLevel level);

/// Best level the host supports (what dispatch picks with no override).
KernelLevel DetectKernelLevel();

/// The level the scoring kernels actually run at: test override >
/// DW_KERNEL_LEVEL (clamped to the host with a logged warning) > CPUID.
/// The env/CPUID resolution is computed once per process and cached; the
/// test override is re-read on every call (it is a test-only atomic).
KernelLevel ActiveKernelLevel();

/// RAII test hook forcing the active level (bypasses env + CPUID but
/// still refuses unsupported levels -- callers must check LevelSupported
/// first). Not thread-safe against concurrent scoring of OTHER levels;
/// tests scope it around single-threaded comparisons.
class ScopedKernelLevelForTesting {
 public:
  explicit ScopedKernelLevelForTesting(KernelLevel level);
  ~ScopedKernelLevelForTesting();
  ScopedKernelLevelForTesting(const ScopedKernelLevelForTesting&) = delete;
  ScopedKernelLevelForTesting& operator=(const ScopedKernelLevelForTesting&) =
      delete;

 private:
  int previous_;
};

/// Per-machine tile size for the blocked scoring loop. block_cols is the
/// feature-dimension tile (doubles of model per block); rows stream
/// against a resident block, so it must fit the private cache next to a
/// few row slices.
struct KernelTuning {
  matrix::Index block_cols = 4096;  ///< 32 KB of f64 model per block
};

/// The tuning the kernels use, resolved once per process:
/// DW_KERNEL_BLOCK_COLS (clamped to [512, 65536], rounded to a multiple
/// of 8) if set, otherwise the largest candidate block (2,048 to 16,384
/// columns) whose f64 model fills at most half of the private L2 that
/// sysconf(_SC_LEVEL2_CACHE_SIZE) reports, or the default when the host
/// reports none. Reads no clock, so every process on a host picks the
/// same block. Block size changes dense summation boundaries, so one
/// process-wide value keeps every level bitwise-comparable.
const KernelTuning& Tuning();

}  // namespace dw::kernels
