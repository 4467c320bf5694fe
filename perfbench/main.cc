// perfbench: the rescq benchmark.
//
//   perfbench --workload <serve_reads|serve_epochs|solve_mix|route_reads>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// --trace 0 times the workload end to end (the server in its own
// process) and prints the end-to-end metrics; --trace 1 replays the same
// generated inputs layer by layer inside spans and prints the per-layer
// metrics. Both check every answer off the clock. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// README.md describes the workloads and every metric.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "inputs.h"
#include "layers.h"
#include "obs/metrics.h"
#include "served.h"
#include "solve_mix.h"
#include "spans.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using rescq::StrFormat;

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

/// Timing numbers only from an optimised, unsanitized build.
bool TimingBuild(std::string* why) {
#if !defined(__OPTIMIZE__)
  *why = "built without optimisation (-O0)";
  return false;
#elif defined(PERFBENCH_SANITIZED)
  *why = "built with a sanitizer";
  return false;
#else
  std::string sanitize = PERFBENCH_RESCQ_SANITIZE;
  if (!sanitize.empty() && sanitize != "OFF" && sanitize != "0") {
    *why = "RESCQ_SANITIZE=" + sanitize;
    return false;
  }
  return true;
#endif
}

// Set-up is timed this many times per run and reported as the median
// (on solve_mix each repetition is itself a batch; see RunSolveMix).
// The repetitions are spaced out, so that a burst of host contention
// lasting a fraction of a second slows a few of them, not the median: in
// interleaved serve_reads runs on a shared 4-vCPU VM, the spread of
// setup_s over ten runs was 0.72 back to back and 0.13 spaced by 200 ms.
constexpr int kSetupReps = 11;
constexpr int kSolveMixSetupReps = 11;
constexpr std::chrono::milliseconds kSetupGap(200);
constexpr size_t kOracleSample = 48;  // serve_epochs: sampled (script, epoch) pairs
constexpr int kDeckPerCell = 32;
// Timed figures are medians over this many equal windows of the run.
constexpr int kWindows = 10;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      a->trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

/// CPU time counters of the whole machine, from /proc/stat's "cpu" line.
struct CpuTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                  &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

/// Prints the share of CPU time the hypervisor gave to other tenants
/// over `what`: on a shared host, a high share makes every figure slower
/// and less steady, whatever the program does.
void PrintSteal(const CpuTicks& before, const CpuTicks& after, const char* what) {
  unsigned long long total = after.total - before.total;
  if (total == 0) return;
  std::printf("# host steal: %.1f%% of CPU time over %s\n",
              100.0 * static_cast<double>(after.steal - before.steal) /
                  static_cast<double>(total),
              what);
}

/// What a run concluded, printed as the final JSON line.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t checks = 0;  // answers compared against the oracle
  Metrics metrics;
};

/// Prints one metric line (not part of the JSON result).
void Note(const char* name, double value, const char* unit, const std::string& note) {
  std::printf("  %-42s %14.6f %-9s %s\n", name, value, unit, note.c_str());
}

/// A text-only p99 line over every sample (not per window): a window
/// holds too few samples for a p99.
void NoteP99(const char* name, const std::vector<double>& v, const std::string& what) {
  TailPoint tail = SupportedTail(v, 0.99);
  Note(name, tail.value, "ms", what + TailNote(v.size(), tail, "p99"));
}

std::string SampleNote(const std::vector<double>& v) {
  TailPoint tail = SupportedTail(v);
  return StrFormat("n=%zu, %s=%.4f", v.size(), tail.label.c_str(), tail.value);
}

/// Sets a gated end-to-end metric (BENCHMARK.json "end_to_end") and
/// prints its text line. Each is measured on every workload: a
/// "request" is one call through the workload's front door (a protocol
/// request line; ResilienceEngine::Solve on solve_mix) and a "solve" one
/// answer computation (the `epoch` verb, which re-solves incrementally;
/// a Solve on solve_mix).
void Report(Result* r, const char* name, double value, const char* unit,
            const std::string& note) {
  r->metrics.Set(name, value, unit);
  Note(name, value, unit, "[gated] " + note);
}

void NotApplicable(const char* name, const char* why) {
  std::printf("  %-42s %14s %-9s %s\n", name, "n/a", "", why);
}

Samples Concat(const std::vector<ConnStats*>& stats, int verb) {
  Samples out;
  for (const ConnStats* s : stats) out.Append(s->lat[verb]);
  return out;
}

void Tally(const std::vector<ConnStats*>& stats, Result* r, std::string* error) {
  for (const ConnStats* s : stats) {
    r->attempted += s->attempted;
    r->failed += s->failed;
    if (error->empty()) *error = s->error;
  }
}

void PrintCheck(const ServedCheck& c, const std::string& transport_error) {
  std::printf("# checks: %llu oracle solves, %llu replies checked against the "
              "oracle, %llu replies checked for consistency, %llu mismatches\n",
              static_cast<unsigned long long>(c.oracle_solves),
              static_cast<unsigned long long>(c.replies_oracle_checked),
              static_cast<unsigned long long>(c.replies_consistency_checked),
              static_cast<unsigned long long>(c.mismatches));
  if (!c.first_mismatch.empty()) std::printf("# first mismatch: %s\n", c.first_mismatch.c_str());
  if (!transport_error.empty()) std::printf("# first failed request: %s\n", transport_error.c_str());
}

// --- served workloads, end to end -----------------------------------------

bool ServedEndToEnd(const Args& a, const ServedInputs& in, Result* r) {
  const ServedSpec& spec = in.spec;
  std::vector<double> setups;
  std::unique_ptr<ServedRun> run;
  std::string error;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (run != nullptr) {
      run->TearDown();
      std::this_thread::sleep_for(kSetupGap);
    }
    run = std::make_unique<ServedRun>(in, PERFBENCH_CLI_PATH);
    double s = 0;
    if (!run->SetUp(rep, &s, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return false;
    }
    setups.push_back(s);
  }
  double warmup = std::min(1.0, 0.1 * a.seconds);
  CpuTicks before = ReadCpuTicks();
  run->RunTimed(warmup, a.seconds);
  PrintSteal(before, ReadCpuTicks(), "the warm-up and timed phase");
  ServerProcess::Usage usage = run->TearDown();
  const std::vector<ConnStats*>& stats = run->stats();
  std::string transport_error;
  Tally(stats, r, &transport_error);
  if (!usage.clean_exit) {
    ++r->failed;
    transport_error = "the server did not exit cleanly on SIGTERM";
  }
  ServedCheck check = CheckServed(in, stats, spec.reader_hz > 0 ? kOracleSample : 0, a.seed);
  r->failed += check.mismatches;
  r->checks = check.replies_oracle_checked;

  Samples req;
  for (int v = 0; v < kVerbCount; ++v) req.Append(Concat(stats, v));
  Samples epoch = Concat(stats, kEpoch);
  Samples read = Concat(stats, kResilience);
  std::vector<double> begin = Concat(stats, kBegin).ms;
  const ConnStats* reader = spec.reader_hz > 0 ? stats.back() : nullptr;
  if (reader != nullptr) read = reader->read;
  const double span = a.seconds;
  auto p = [span](const Samples& s, double q) { return WindowQuantile(s, span, kWindows, q); };

  std::printf("# end-to-end (%s, %d connection(s), %.1f s after a %.1f s warm-up; "
              "timings are medians over %d windows):\n",
              spec.shards > 0 ? "rescq route" : "rescq serve",
              spec.writers + (reader != nullptr ? 1 : 0), a.seconds, warmup, kWindows);
  Report(r, "setup_s", Median(setups), "s",
         StrFormat("median of %d set-ups, %lld ms apart (server start + open/push/begin)",
                   kSetupReps, static_cast<long long>(kSetupGap.count())));
  Report(r, "req_per_s", WindowRate(req, span, kWindows), "1/s",
         StrFormat("%zu requests", req.size()));
  Report(r, "req_p50_ms", p(req, 0.5), "ms", "every request; " + SampleNote(req.ms));
  NoteP99("req_p99_ms", req.ms, "every request; per layer as tail.req_p99_ms; ");
  Note("read_p50_ms", p(read, 0.5), "ms",
       (reader != nullptr ? "reader use+resilience from due time; " : "`resilience`; ") +
           SampleNote(read.ms));
  NoteP99("read_p99_ms", read.ms, "");
  Note("epoch_p50_ms", p(epoch, 0.5), "ms", "`epoch`; " + SampleNote(epoch.ms));
  NoteP99("epoch_p99_ms", epoch.ms, "");
  Note("epochs_per_s", WindowRate(epoch, span, kWindows), "1/s", "");
  Note("begin_p50_ms", Median(begin), "ms", "session replacements; " + SampleNote(begin));
  Report(r, "solves_per_s", WindowRate(epoch, span, kWindows), "1/s",
         "a solve here is an `epoch`");
  Report(r, "solve_p50_ms", p(epoch, 0.5), "ms", "= epoch_p50_ms");
  NoteP99("solve_p99_ms", epoch.ms, "= epoch_p99_ms; ");
  Report(r, "peak_rss_mb", usage.peak_rss_mb, "MB", "server process");
  Report(r, "cpu_us_per_req", usage.cpu_s * 1e6 / static_cast<double>(r->attempted), "us",
         StrFormat("server process CPU, %.3f s over %llu requests", usage.cpu_s,
                   static_cast<unsigned long long>(r->attempted)));
  Note("failed_frac",
       r->attempted == 0 ? 0 : static_cast<double>(r->failed) / static_cast<double>(r->attempted),
       "frac", StrFormat("%llu of %llu", static_cast<unsigned long long>(r->failed),
                         static_cast<unsigned long long>(r->attempted)));
  if (reader != nullptr) {
    std::vector<double> late = reader->late_ms;
    Note("reader_late_ms.p50", Median(late), "ms", "open-loop reader; " + SampleNote(late));
    NoteP99("reader_late_ms.p99", late, "");
  }
  PrintCheck(check, transport_error);
  return true;
}

// --- served workloads, traced ----------------------------------------------

/// Runs the counted socket phase; returns false on a set-up failure.
/// A server that does not exit cleanly counts in r->failed.
bool SocketPhase(const ServedInputs& in, int sessions, int pings,
                 std::vector<std::unique_ptr<SpanRecorder>>* recorders,
                 std::unique_ptr<ServedRun>* out, Result* r) {
  auto run = std::make_unique<ServedRun>(in, PERFBENCH_CLI_PATH, recorders);
  double setup = 0;
  std::string error;
  if (!run->SetUp(0, &setup, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  run->RunCounted(sessions, pings, 200);
  if (!run->TearDown().clean_exit) {
    ++r->failed;
    std::printf("# the server did not exit cleanly on SIGTERM\n");
  }
  *out = std::move(run);
  return true;
}

bool ServedTraced(const Args& a, const ServedInputs& in, Result* r,
                  std::vector<std::unique_ptr<SpanRecorder>>* recorders) {
  const ServedSpec& spec = in.spec;
  // Count-bounded: a run shorter than 10 s replays less, a longer one
  // replays the same.
  double scale = std::min(1.0, a.seconds / 10.0);
  int sessions = std::max(1, static_cast<int>(std::lround(spec.traced_sessions * scale)));
  int pings = std::max(100, static_cast<int>(std::lround(1000 * scale)));
  Metrics& m = r->metrics;

  std::unique_ptr<ServedRun> socket;
  if (!SocketPhase(in, sessions, pings, recorders, &socket, r)) return false;
  // route_reads: the same phase straight to `rescq serve` isolates the hop.
  ServedInputs direct_in;
  std::unique_ptr<ServedRun> direct_run;
  if (spec.shards > 0) {
    direct_in = in;
    direct_in.spec.shards = 0;
    if (!SocketPhase(direct_in, sessions, pings, recorders, &direct_run, r)) return false;
  }
  const std::vector<ConnStats*>& via = socket->stats();
  const std::vector<ConnStats*>& direct = direct_run != nullptr ? direct_run->stats() : via;
  std::string transport_error;
  Tally(via, r, &transport_error);
  if (direct_run != nullptr) Tally(direct, r, &transport_error);
  ServedCheck check = CheckServed(in, via, spec.reader_hz > 0 ? kOracleSample : 0, a.seed);
  r->failed += check.mismatches;
  r->checks = check.replies_oracle_checked;

  recorders->push_back(std::make_unique<SpanRecorder>(static_cast<int>(recorders->size()) + 1));
  SpanRecorder* rec = recorders->back().get();
  double overhead = 0;
  r->failed += MeasureHandle(in, sessions, rec, &m, &overhead);
  m.Set("bench.trace_overhead_frac", overhead, "frac");
  for (int v = 0; v < kPing; ++v) {
    std::vector<double> sock = Concat(direct, v).ms;
    auto handle = m.all().find(std::string("server.handle_us.") + kVerbNames[v]);
    if (sock.empty() || handle == m.all().end()) continue;
    m.Set(std::string("server.transport_us.") + kVerbNames[v],
          Median(sock) * 1e3 - handle->second.value, "us");
    std::vector<double> routed = Concat(via, v).ms;
    if (direct_run != nullptr && !routed.empty()) {
      m.Set(std::string("server.router.hop_us.") + kVerbNames[v],
            (Median(routed) - Median(sock)) * 1e3, "us");
    }
  }
  m.Set("server.ping_rtt_us", Median(Concat(via, kPing).ms) * 1e3, "us");
  // The tails that do not repeat run to run, from the socket phase.
  std::vector<double> req, epoch = Concat(via, kEpoch).ms;
  for (int v = 0; v < kPing; ++v) {
    std::vector<double> part = Concat(via, v).ms;
    req.insert(req.end(), part.begin(), part.end());
  }
  m.SetTail("tail.req_p99_ms", req, "ms", 0.99, "p99");
  m.SetTail("tail.solve_p99_ms", epoch, "ms", 0.99, "p99");
  if (spec.reader_hz > 0) {
    const ConnStats* reader = via.back();
    double idle = Median(reader->idle_pair_ms);
    std::vector<double> wait;
    for (double p : reader->pair_ms) wait.push_back(p - idle);
    m.Set("server.lock_wait_ms.p50", Median(wait), "ms", StrFormat("n=%zu", wait.size()));
    m.SetTail("server.lock_wait_ms.p90", wait, "ms", 0.9, "p90");
    const std::vector<double>& late = reader->late_ms;
    m.Set("bench.reader_late_ms.p50", Median(late), "ms", StrFormat("n=%zu", late.size()));
    m.SetTail("bench.reader_late_ms.p90", late, "ms", 0.9, "p90");
  }
  MeasureSessions(in, sessions, rec, &m);
  MeasureParse(in, sessions, rec, &m);
  ExactTotals totals;
  for (int s : ReplayScripts(in, sessions)) {
    const SessionScript& script = in.scripts[static_cast<size_t>(s)];
    ExactPath(script.query, script.base, rec, static_cast<uint64_t>(s), &totals);
  }
  ReportExact(totals, rec, &m);
  MeasureQueryLayers({in.scripts.front().query_text}, rec, &m);
  MeasureObsCount(&m);
  std::printf("# traced: %d session(s) per writer over the socket%s, then replayed in-process\n",
              sessions, spec.shards > 0 ? " (via route and direct)" : "");
  PrintCheck(check, transport_error);
  return true;
}

// --- solve_mix -------------------------------------------------------------

void SolveMixEndToEnd(const Args& a, const SolveDeck& deck, Result* r) {
  double warmup = std::min(1.0, 0.1 * a.seconds);
  CpuTicks before = ReadCpuTicks();
  SolveMixRun run = RunSolveMix(deck, kSolveMixSetupReps, kSetupGap, kWindows, warmup, a.seconds);
  PrintSteal(before, ReadCpuTicks(), "the set-ups, timed phase and checks");
  r->attempted = run.attempted;
  r->failed = run.failed + run.mismatches;
  r->checks = run.answers_checked;
  const Samples& solve = run.solve;
  const double span = a.seconds;
  double per_s = WindowRate(solve, span, kWindows);
  std::printf("# end-to-end (one thread, one engine, %.1f s after a %.1f s warm-up; "
              "timings are medians over %d windows):\n",
              a.seconds, warmup, kWindows);
  // The deck's solve times are multimodal (0.2 ms to 10 ms by cell), so
  // a median over all solves jumps between cells from seed to seed. The
  // typical solve is instead, per window, the geometric mean of the
  // cells' medians — then the median of that over windows.
  std::vector<double> log_sum(kWindows, 0.0);
  std::vector<size_t> cells(kWindows, 0);
  for (const auto& [cell, samples] : run.by_cell) {
    Note(("  cell " + cell).c_str(), WindowQuantile(samples, span, kWindows, 0.5), "ms",
         "p50; " + SampleNote(samples.ms));
    std::vector<std::vector<std::pair<double, double>>> split =
        SplitWindows(samples, span, kWindows);
    for (int w = 0; w < kWindows; ++w) {
      std::vector<double> ms;
      for (const auto& sample : split[static_cast<size_t>(w)]) ms.push_back(sample.second);
      if (ms.empty()) continue;
      log_sum[static_cast<size_t>(w)] += std::log(Quantile(&ms, 0.5));
      ++cells[static_cast<size_t>(w)];
    }
  }
  std::vector<double> per_window;
  for (int w = 0; w < kWindows; ++w) {
    if (cells[static_cast<size_t>(w)] == run.by_cell.size()) {
      per_window.push_back(std::exp(log_sum[static_cast<size_t>(w)] /
                                    static_cast<double>(run.by_cell.size())));
    }
  }
  double p50 = Median(per_window);
  Report(r, "setup_s", Median(run.setup_s), "s",
         StrFormat("median of %zu repetitions, %lld ms apart, each the mean of a "
                   "batch of set-ups on every CPU (engine + cold plans)",
                   run.setup_s.size(), static_cast<long long>(kSetupGap.count())));
  Report(r, "req_per_s", per_s, "1/s", "a request here is a Solve");
  Report(r, "req_p50_ms", p50, "ms", "= solve_p50_ms");
  NoteP99("req_p99_ms", solve.ms, "= solve_p99_ms; ");
  for (const char* n : {"read_p50_ms", "read_p99_ms", "epoch_p50_ms", "epoch_p99_ms",
                        "epochs_per_s", "begin_p50_ms"}) {
    NotApplicable(n, "no sessions on solve_mix");
  }
  Report(r, "solves_per_s", per_s, "1/s", "ResilienceEngine::Solve");
  Report(r, "solve_p50_ms", p50, "ms",
         "per-window geometric mean of the cell medians; all solves: " +
             SampleNote(solve.ms));
  NoteP99("solve_p99_ms", solve.ms, "all solves; per layer as tail.solve_p99_ms; ");
  Report(r, "peak_rss_mb", run.peak_rss_mb, "MB", "solving process");
  Report(r, "cpu_us_per_req", run.cpu_s * 1e6 / static_cast<double>(run.attempted), "us",
         StrFormat("process CPU, %.3f s over %llu solves", run.cpu_s,
                   static_cast<unsigned long long>(run.attempted)));
  Note("failed_frac",
       r->attempted == 0 ? 0 : static_cast<double>(r->failed) / static_cast<double>(r->attempted),
       "frac", StrFormat("%llu of %llu", static_cast<unsigned long long>(r->failed),
                         static_cast<unsigned long long>(r->attempted)));
  std::printf("# checks: %llu oracle solves, %llu answers and %llu contingency sets "
              "checked, %llu mismatches\n",
              static_cast<unsigned long long>(run.oracle_solves),
              static_cast<unsigned long long>(run.answers_checked),
              static_cast<unsigned long long>(run.contingencies_checked),
              static_cast<unsigned long long>(run.mismatches));
  if (!run.first_mismatch.empty()) std::printf("# first mismatch: %s\n", run.first_mismatch.c_str());
}

void SolveMixTraced(const SolveDeck& deck, Result* r,
                    std::vector<std::unique_ptr<SpanRecorder>>* recorders) {
  recorders->push_back(std::make_unique<SpanRecorder>(1));
  SpanRecorder* rec = recorders->back().get();
  double overhead = 0;
  uint64_t checked = 0;
  std::vector<double> solves;
  uint64_t disagreed = MeasureDeck(deck, rec, &r->metrics, &overhead, &checked, &solves);
  r->attempted = checked;
  r->failed = disagreed;
  r->checks = checked;
  r->metrics.Set("bench.trace_overhead_frac", overhead, "frac");
  r->metrics.SetTail("tail.req_p99_ms", solves, "ms", 0.99, "p99");
  r->metrics.SetTail("tail.solve_p99_ms", solves, "ms", 0.99, "p99");
  MeasureQueryLayers(DeckQueries(deck), rec, &r->metrics);
  MeasureObsCount(&r->metrics);
  std::printf("# traced: one pass over %zu deck instances; engine answers checked "
              "against the exact path: %llu, disagreements %llu\n",
              deck.instances.size(), static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(disagreed));
}

/// Prints the per-layer block: the metrics this workload measured (the
/// runner fills in, as 0, the per_layer names it does not exercise);
/// then self times.
void FinishTraced(const std::vector<std::unique_ptr<SpanRecorder>>& recorders,
                  const Args& a, Result* r) {
  std::printf("# per-layer:\n");
  for (const auto& [name, metric] : r->metrics.all()) {
    Note(name.c_str(), metric.value, metric.unit.c_str(), metric.note);
  }
  std::printf("# self time by span (calls, total ms, self ms):\n");
  std::vector<const SpanRecorder*> all;
  for (const auto& rec : recorders) all.push_back(rec.get());
  for (const auto& [name, t] : SelfTimes(all)) {
    std::printf("  %-40s %9llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.calls), t.total_ms, t.self_ms);
  }
  if (!a.trace_out.empty()) {
    if (WriteChromeTrace(all, a.trace_out)) {
      std::printf("# trace: %s\n", a.trace_out.c_str());
    } else {
      std::printf("# trace: could not write %s\n", a.trace_out.c_str());
    }
  }
}

void PrintJson(const Result& r) {
  bool correct = r.failed == 0 && r.checks > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, metric] : r.metrics.all()) {
    double v = std::isfinite(metric.value) ? metric.value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), v, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <serve_reads|serve_epochs|solve_mix|"
                 "route_reads> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n");
    return 2;
  }
  ServedSpec spec;
  bool served = FindServedSpec(a.workload, &spec);
  if (!served && a.workload != "solve_mix") {
    std::fprintf(stderr, "error: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  std::string why;
  if (!TimingBuild(&why)) {
    std::fprintf(stderr, "error: refusing to report timings: %s\n", why.c_str());
    return 3;
  }
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
  std::printf("# host: nproc=%ld compiler=%s build=%s flags=\"%s\" sanitize=%s "
              "metrics=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              PERFBENCH_CXX_FLAGS, PERFBENCH_RESCQ_SANITIZE,
              served ? "armed (rescq serve/route always arm them)"
                     : (a.trace ? "armed" : "dark (library default)"));

  // All inputs exist before any timing starts.
  Clock::time_point gen = Clock::now();
  ServedInputs in;
  SolveDeck deck;
  if (served) {
    in = MakeServedInputs(spec, a.seed);
    size_t lines = 0;
    for (const SessionScript& s : in.scripts) {
      lines += s.push_lines.size();
      for (const auto& e : s.update_lines) lines += e.size();
    }
    std::printf("# digest %016llx (request stream: %zu session scripts, %zu fact/update lines)\n",
                static_cast<unsigned long long>(in.digest), in.scripts.size(), lines);
  } else {
    deck = MakeSolveDeck(a.seed, kDeckPerCell);
    std::printf("# digest %016llx (solve deck: %zu instances)\n",
                static_cast<unsigned long long>(deck.digest), deck.instances.size());
  }
  std::printf("# inputs generated in %.3f s (not timed)\n", MsSince(gen) / 1000.0);

  Result r;
  if (a.trace == 0) {
    rescq::obs::SetMetricsEnabled(false);
    if (served) {
      if (!ServedEndToEnd(a, in, &r)) return 1;
    } else {
      SolveMixEndToEnd(a, deck, &r);
    }
  } else {
    rescq::obs::SetMetricsEnabled(true);
    std::vector<std::unique_ptr<SpanRecorder>> recorders;
    if (served) {
      if (!ServedTraced(a, in, &r, &recorders)) return 1;
    } else {
      SolveMixTraced(deck, &r, &recorders);
    }
    FinishTraced(recorders, a, &r);
  }
  std::printf("# correct=%s attempted=%llu failed=%llu oracle-checked=%llu\n",
              r.failed == 0 && r.checks > 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.checks));
  PrintJson(r);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
