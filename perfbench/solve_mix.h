#ifndef RESCQ_PERFBENCH_SOLVE_MIX_H_
#define RESCQ_PERFBENCH_SOLVE_MIX_H_

// solve_mix: offline solves on one thread through one ResilienceEngine
// with a warm plan cache — no server, so all the time is witness
// enumeration, the exact solver and the flow constructions.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "inputs.h"
#include "resilience/engine.h"

namespace perfbench {

struct SolveMixRun {
  std::vector<double> setup_s;  // one per repetition (a mean over every CPU)
  Samples solve;  // every solve after the warm-up
  std::map<std::string, Samples> by_cell;  // the same, per deck cell
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double peak_rss_mb = 0;
  double cpu_s = 0;
  // Oracle checks (off the clock).
  uint64_t oracle_solves = 0;
  uint64_t answers_checked = 0;
  uint64_t contingencies_checked = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;
};

/// Set-up (a fresh engine planning every deck query; `setup_reps`
/// repetitions `setup_gap` apart, each the mean of a batch of set-ups on
/// every CPU), then solves the deck round-robin for warm-up + `seconds`,
/// then checks every instance solved against ComputeResilienceExact.
/// The thread moves to the next CPU before each set-up, and visits every
/// CPU once in each of the `windows` equal measurement windows.
SolveMixRun RunSolveMix(const SolveDeck& deck, int setup_reps,
                        std::chrono::milliseconds setup_gap, int windows,
                        double warmup_s, double seconds);

/// The deck's distinct query texts, first-appearance order.
std::vector<std::string> DeckQueries(const SolveDeck& deck);

}  // namespace perfbench

#endif  // RESCQ_PERFBENCH_SOLVE_MIX_H_
