#ifndef RESCQ_PERFBENCH_BENCH_UTIL_H_
#define RESCQ_PERFBENCH_BENCH_UTIL_H_

// Small helpers shared by the benchmark's workloads: a monotonic clock,
// quantiles over latency samples, and the named-metric sink every
// workload reports into.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

/// Linear-interpolated quantile (q in [0, 1]) of `v`; sorts `v`. 0 for
/// an empty sample.
inline double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  double pos = q * static_cast<double>(v->size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v->size() - 1);
  double frac = pos - static_cast<double>(lo);
  return (*v)[lo] * (1 - frac) + (*v)[hi] * frac;
}

inline double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// The highest of p99.99 / p99.9 / p99 / p90 / p50, up to `max_q`, that
/// leaves at least ten samples beyond it, as "p99.9" plus its value: the
/// tail a sample of this size supports.
struct TailPoint {
  std::string label;
  double value = 0;
};
inline TailPoint SupportedTail(std::vector<double> v, double max_q = 1) {
  static const std::pair<const char*, double> kTails[] = {
      {"p99.99", 0.9999}, {"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}};
  for (const auto& [label, q] : kTails) {
    if (q <= max_q && static_cast<double>(v.size()) * (1 - q) >= 10) {
      return {label, Quantile(&v, q)};
    }
  }
  return {"p50", Quantile(&v, 0.5)};
}

/// "n=229, p90", saying so when that falls short of the `want`ed
/// percentile.
inline std::string TailNote(size_t n, const TailPoint& tail, const char* want) {
  std::string note = "n=" + std::to_string(n) + ", " + tail.label;
  if (tail.label != want) note += std::string(" (too few samples for ") + want + ")";
  return note;
}

/// Latency samples with their completion times, in seconds since the
/// measured interval opened, so a run can be cut into equal windows.
struct Samples {
  std::vector<double> at_s;
  std::vector<double> ms;

  void Add(double at, double v) {
    at_s.push_back(at);
    ms.push_back(v);
  }
  void Append(const Samples& o) {
    at_s.insert(at_s.end(), o.at_s.begin(), o.at_s.end());
    ms.insert(ms.end(), o.ms.begin(), o.ms.end());
  }
  size_t size() const { return ms.size(); }
};

/// Cuts [0, span_s) into `windows` equal windows of (completion time,
/// latency) pairs; samples completing outside it are dropped.
inline std::vector<std::vector<std::pair<double, double>>> SplitWindows(
    const Samples& s, double span_s, int windows) {
  std::vector<std::vector<std::pair<double, double>>> out(
      static_cast<size_t>(windows));
  for (size_t i = 0; i < s.size(); ++i) {
    if (s.at_s[i] < 0 || s.at_s[i] >= span_s) continue;
    out[static_cast<size_t>(s.at_s[i] / span_s * windows)].push_back(
        {s.at_s[i], s.ms[i]});
  }
  return out;
}

/// The median over windows of each window's completion rate (per
/// second, between its first and last completion): a burst of outside
/// interference moves one window, not the figure.
inline double WindowRate(const Samples& s, double span_s, int windows) {
  std::vector<double> rates;
  for (auto& w : SplitWindows(s, span_s, windows)) {
    if (w.size() < 2) continue;
    std::sort(w.begin(), w.end());
    rates.push_back(static_cast<double>(w.size() - 1) /
                    (w.back().first - w.front().first));
  }
  return Median(rates);
}

/// The median over (non-empty) windows of each window's q-quantile.
inline double WindowQuantile(const Samples& s, double span_s, int windows,
                             double q) {
  std::vector<double> per;
  for (const auto& w : SplitWindows(s, span_s, windows)) {
    if (w.empty()) continue;
    std::vector<double> ms;
    for (const auto& sample : w) ms.push_back(sample.second);
    per.push_back(Quantile(&ms, q));
  }
  return Median(per);
}

/// One reported number, with a note for the text block.
struct Metric {
  double value = 0;
  std::string unit;
  std::string note;
};

/// Ordered metric sink; names are unique (a later Set overwrites).
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_[name] = Metric{value, unit, note};
  }

  /// Sets `name` to the `label` percentile (quantile `q`) of `v` when at
  /// least ten samples lie beyond it. A smaller sample gets the highest
  /// percentile it does support, and the note names it.
  void SetTail(const std::string& name, const std::vector<double>& v,
               const std::string& unit, double q, const char* label) {
    TailPoint tail = SupportedTail(v, q);
    Set(name, tail.value, unit, TailNote(v.size(), tail, label));
  }

  const std::map<std::string, Metric>& all() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

}  // namespace perfbench

#endif  // RESCQ_PERFBENCH_BENCH_UTIL_H_
