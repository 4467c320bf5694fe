#include "spans.h"

#include <cstdio>
#include <cstring>
#include <limits>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

int32_t SpanRecorder::Begin(const char* name, const char* detail,
                            uint64_t request) {
  SpanRecord span;
  span.name = name;
  span.detail = detail;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  int32_t index = static_cast<int32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return index;
}

void SpanRecorder::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close innermost-first (ScopedSpan); tolerate nothing else.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> SpanDurationsMs(
    const std::vector<const SpanRecorder*>& recorders, const char* name,
    const char* detail) {
  std::vector<double> out;
  for (const SpanRecorder* r : recorders) {
    for (const SpanRecord& s : r->spans()) {
      if (std::strcmp(s.name, name) != 0) continue;
      if (detail != nullptr &&
          (s.detail == nullptr || std::strcmp(s.detail, detail) != 0)) {
        continue;
      }
      out.push_back(s.ms());
    }
  }
  return out;
}

std::map<std::string, LayerTime> SelfTimes(
    const std::vector<const SpanRecorder*>& recorders) {
  std::map<std::string, LayerTime> out;
  for (const SpanRecorder* r : recorders) {
    const std::vector<SpanRecord>& spans = r->spans();
    // Children nest strictly inside their parent on one thread, so the
    // part of a parent covered by children is the sum of their spans.
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0) child_ms[static_cast<size_t>(s.parent)] += s.ms();
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      LayerTime& t = out[spans[i].name];
      ++t.calls;
      t.total_ms += spans[i].ms();
      t.self_ms += spans[i].ms() - child_ms[i];
    }
  }
  return out;
}

bool WriteChromeTrace(const std::vector<const SpanRecorder*>& recorders,
                      const std::string& path) {
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const SpanRecorder* r : recorders) {
    for (const SpanRecord& s : r->spans()) origin = std::min(origin, s.start_ns);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const SpanRecorder* r : recorders) {
    const std::vector<SpanRecord>& spans = r->spans();
    for (const SpanRecord& s : spans) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"request\":%llu,\"parent\":\"%s\",\"detail\":\"%s\"}}",
                   first ? "" : ",", s.name,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, r->tid(),
                   static_cast<unsigned long long>(s.request),
                   s.parent < 0 ? "" : spans[static_cast<size_t>(s.parent)].name,
                   s.detail == nullptr ? "" : s.detail);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
