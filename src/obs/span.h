// Request lifecycle tracing for the serving path: a sampled per-request
// span decomposed into the pipeline's stages, kept in a fixed-size ring.
//
// The per-stage HISTOGRAMS (obs::Registry metrics serve.stage_us) are
// always on and answer "where does the average request spend its time";
// the SPANS here answer the other question -- "what happened to THIS
// slow request" -- by keeping whole per-request stage breakdowns for a
// sampled subset of traffic. The ring is bounded (old spans overwritten)
// and the recording path is sampled (1/N requests), so tracing cost is
// independent of load.
//
// Stage boundaries, in request order:
//   admit      engine-side validation: Score() entry to enqueue
//   queue      enqueued until the flush policy formed a batch around it
//   batch-form batch formed until a worker picked it up
//   gather     snapshot acquire + view build (store rows gathered here)
//   score      the prediction kernel
//   complete   promise resolution and latency stamping
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dw::obs {

enum class Stage {
  kAdmit = 0,
  kQueue,
  kBatchForm,
  kGather,
  kScore,
  kComplete,
};

inline constexpr int kNumStages = 6;

const char* StageName(Stage s);
const char* StageName(int stage);

/// One traced request's stage breakdown (all durations microseconds).
struct SpanRecord {
  uint64_t seq = 0;  ///< assigned by the recorder, monotonically
  std::string family;
  std::string client;
  /// The request form that was traced: "carried" | "row_id" | "key".
  std::string kind;
  /// Rows in the batch that served this request (batch-level stages are
  /// shared across them).
  uint64_t batch_rows = 0;
  double stage_us[kNumStages] = {};
  /// End-to-end: admit through complete.
  double total_us = 0.0;
};

/// Fixed-capacity ring of SpanRecords. Record() overwrites the oldest
/// span once full; Snapshot() returns oldest-to-newest. Mutex-guarded:
/// the recording path is sampled (cold by construction), so a lock
/// beats the complexity of a lock-free ring of strings.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity = 256);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Stores `rec` (seq assigned here), evicting the oldest if full.
  /// No-op when constructed with capacity 0 (tracing disabled).
  void Record(SpanRecord rec);

  /// The retained spans, oldest first.
  std::vector<SpanRecord> Snapshot() const;

  /// Spans ever recorded (including overwritten ones).
  uint64_t recorded() const;

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;  ///< ring_[next_ % capacity_] is oldest
  uint64_t next_ = 0;             ///< doubles as the total recorded count
};

}  // namespace dw::obs
