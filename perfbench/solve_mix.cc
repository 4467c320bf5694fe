#include "solve_mix.h"

#include <algorithm>
#include <cmath>
#include <sched.h>
#include <sys/resource.h>
#include <thread>

#include "bench_util.h"
#include "resilience/exact_solver.h"
#include "resilience/solver.h"
#include "util/string_util.h"

namespace perfbench {

using namespace rescq;

std::vector<std::string> DeckQueries(const SolveDeck& deck) {
  std::vector<std::string> out;
  for (const DeckInstance& d : deck.instances) {
    if (std::find(out.begin(), out.end(), d.query_text) == out.end()) {
      out.push_back(d.query_text);
    }
  }
  return out;
}

namespace {

constexpr size_t kSetupBatch = 32;  // set-ups timed together, per CPU

/// Moves the calling thread through the CPUs it may use, one per call
/// to Next(): on a shared host one CPU can run ~30% slower than another
/// for minutes at a time (measured: 300-420 solves/s pinned to each of
/// four vCPUs; the set-up took 165 us on one and 275 us on another), so
/// a single thread left wherever it first lands makes the whole run
/// fast or slow. Restores the original mask when done.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  size_t size() const { return cpus_.size(); }

  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

}  // namespace

SolveMixRun RunSolveMix(const SolveDeck& deck, int setup_reps,
                        std::chrono::milliseconds setup_gap, int windows,
                        double warmup_s, double seconds) {
  CpuRotation rotation;
  SolveMixRun run;
  // Set-up: the warm plan cache the timed solves rely on. One set-up
  // takes a fraction of a millisecond, and the CPUs of a shared host
  // differ by a third in speed, so each repetition is the mean of a
  // batch of set-ups on every CPU in turn. Before each batch the thread
  // moves CPU and plans there untimed; the engines are freed after the
  // clock stops.
  auto plan_all = [&deck](ResilienceEngine* e) {
    for (const DeckInstance& d : deck.instances) e->Plan(d.query);
  };
  std::unique_ptr<ResilienceEngine> engine;
  const size_t cpus = std::max<size_t>(1, rotation.size());
  for (int r = 0; r < setup_reps; ++r) {
    if (r > 0) std::this_thread::sleep_for(setup_gap);
    double total_ms = 0;
    for (size_t c = 0; c < cpus; ++c) {
      rotation.Next();
      engine.reset();
      plan_all(std::make_unique<ResilienceEngine>().get());
      std::vector<std::unique_ptr<ResilienceEngine>> batch(kSetupBatch);
      Clock::time_point start = Clock::now();
      for (std::unique_ptr<ResilienceEngine>& e : batch) {
        e = std::make_unique<ResilienceEngine>();
        plan_all(e.get());
      }
      total_ms += MsSince(start);
      engine = std::move(batch.back());
    }
    run.setup_s.push_back(total_ms / 1000.0 / static_cast<double>(cpus * kSetupBatch));
  }

  struct Solved {
    int value = 0;  // -1 = unbreakable
    std::vector<TupleId> contingency;
    uint64_t solves = 0;
    bool disagreed = false;
  };
  std::vector<Solved> solved(deck.instances.size());
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  Clock::time_point start = Clock::now();
  Clock::time_point record_from =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(warmup_s));
  Clock::time_point deadline =
      record_from + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
  // Every window visits every CPU once, in equal slices.
  const double slice_s =
      seconds / windows / static_cast<double>(std::max<size_t>(1, rotation.size()));
  int slice = -1;
  for (size_t i = 0;; i = (i + 1) % deck.instances.size()) {
    Clock::time_point t0 = Clock::now();
    if (t0 >= deadline) break;
    int now_slice = static_cast<int>(std::floor(MsBetween(record_from, t0) / 1000.0 / slice_s));
    if (now_slice != slice) {
      slice = now_slice;
      rotation.Next();
    }
    const DeckInstance& d = deck.instances[i];
    SolveOutcome outcome = engine->Solve(d.query, d.db);
    Clock::time_point t1 = Clock::now();
    ++run.attempted;
    if (t0 >= record_from) {
      run.solve.Add(MsBetween(record_from, t1) / 1000.0, MsBetween(t0, t1));
      run.by_cell[d.cell].Add(MsBetween(record_from, t1) / 1000.0, MsBetween(t0, t1));
    }
    if (!outcome.error.empty()) {
      ++run.failed;
      if (run.first_mismatch.empty()) run.first_mismatch = d.cell + ": " + outcome.error;
      continue;
    }
    Solved& s = solved[i];
    int value = outcome.result.unbreakable ? -1 : outcome.result.resilience;
    if (s.solves++ == 0) {
      s.value = value;
      s.contingency = outcome.result.contingency;
    } else if (value != s.value) {
      s.disagreed = true;
    }
  }
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  run.peak_rss_mb = static_cast<double>(after.ru_maxrss) / 1024.0;
  auto cpu = [](const rusage& ru) {
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  };
  run.cpu_s = cpu(after) - cpu(before);

  // Every instance solved, against the exact oracle: the value, and a
  // contingency set of that size that really falsifies the query.
  for (size_t i = 0; i < deck.instances.size(); ++i) {
    const Solved& s = solved[i];
    if (s.solves == 0) continue;
    const DeckInstance& d = deck.instances[i];
    ResilienceResult oracle = ComputeResilienceExact(d.query, d.db);
    ++run.oracle_solves;
    int expected = oracle.unbreakable ? -1 : oracle.resilience;
    run.answers_checked += s.solves;
    bool ok = !s.disagreed && s.value == expected;
    if (ok && s.value >= 0) {
      Database db = d.db;
      ok = static_cast<int>(s.contingency.size()) == s.value &&
           VerifyContingency(d.query, db, s.contingency);
      ++run.contingencies_checked;
    }
    if (!ok) {
      run.mismatches += s.solves;
      if (run.first_mismatch.empty()) {
        run.first_mismatch = StrFormat("%s (deck #%zu): solved %d, oracle %d%s",
                                       d.cell.c_str(), i, s.value, expected,
                                       s.disagreed ? ", repeats disagree" : "");
      }
    }
  }
  return run;
}

}  // namespace perfbench
