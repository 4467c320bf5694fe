#ifndef RESCQ_PERFBENCH_SPANS_H_
#define RESCQ_PERFBENCH_SPANS_H_

// The traced run's span recorder. Spans are recorded only here, in the
// benchmark, around each call into a rescq public function; they stay
// in memory and are written out once, as Chrome trace_event JSON, when
// the run ends. A layer's self time is its span minus its child spans.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;    // the public function, e.g. "ProtocolHandler::Handle"
  const char* detail = nullptr;  // a static label (verb, solver kind) or null
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;           // index into the same recorder; -1 = root
  uint64_t request = 0;          // shared by every span of one request

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Per-thread, append-only span storage with a parent stack. Replay
/// code takes a nullable recorder, so the same code runs traced and
/// untraced (the difference is the tracing overhead).
class SpanRecorder {
 public:
  explicit SpanRecorder(int tid) : tid_(tid) {}

  int tid() const { return tid_; }

  /// Opens a span under the innermost open one; returns its index.
  int32_t Begin(const char* name, const char* detail, uint64_t request);
  void End(int32_t index);
  void SetDetail(int32_t index, const char* detail) {
    spans_[static_cast<size_t>(index)].detail = detail;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  int tid_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

/// RAII span on a recorder (null recorder = no span).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, const char* detail,
             uint64_t request)
      : recorder_(recorder),
        index_(recorder == nullptr ? -1
                                   : recorder->Begin(name, detail, request)) {}
  ~ScopedSpan() {
    if (index_ >= 0) recorder_->End(index_);
  }
  /// Labels the span once the label is known (e.g. the solver that ran).
  void SetDetail(const char* detail) {
    if (index_ >= 0) recorder_->SetDetail(index_, detail);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

/// Durations (ms) of every span called `name` (and, when non-null,
/// carrying `detail`) across `recorders`.
std::vector<double> SpanDurationsMs(
    const std::vector<const SpanRecorder*>& recorders, const char* name,
    const char* detail = nullptr);

/// Per span name: calls, total and self milliseconds.
struct LayerTime {
  uint64_t calls = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::map<std::string, LayerTime> SelfTimes(
    const std::vector<const SpanRecorder*>& recorders);

/// Writes every span as a Chrome trace_event "X" event (loadable by
/// Perfetto and chrome://tracing). False on I/O failure.
bool WriteChromeTrace(const std::vector<const SpanRecorder*>& recorders,
                      const std::string& path);

}  // namespace perfbench

#endif  // RESCQ_PERFBENCH_SPANS_H_
