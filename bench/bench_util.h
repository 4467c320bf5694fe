#ifndef RESCQ_BENCH_BENCH_UTIL_H_
#define RESCQ_BENCH_BENCH_UTIL_H_

// Shared helpers for the benchmark binaries: each binary prints the
// paper-artifact tables on stdout first, then runs its google-benchmark
// timing series.

#include <algorithm>
#include <cstdio>
#include <functional>

#include "cq/parser.h"
#include "cq/query.h"
#include "db/database.h"
#include "db/witness.h"
#include "resilience/exact_solver.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace rescq::bench {

/// Fills db with `tuples_per_relation` random tuples per query relation
/// over `domain` constants (deterministic in rng).
inline Database RandomDatabase(const Query& q, int domain,
                               int tuples_per_relation, Rng& rng) {
  Database db;
  std::vector<Value> dom;
  for (int i = 0; i < domain; ++i) dom.push_back(db.InternIndexed("c", i));
  for (const std::string& rel : q.RelationNames()) {
    int arity = q.RelationArity(rel);
    for (int t = 0; t < tuples_per_relation; ++t) {
      std::vector<Value> row;
      for (int c = 0; c < arity; ++c) {
        row.push_back(dom[rng.Below(static_cast<uint64_t>(domain))]);
      }
      db.AddTuple(rel, row);
    }
  }
  return db;
}

/// The witness families of `copies` instances of one scenario (seeds
/// seed..seed+copies-1) as one hitting-set family over dense element
/// ids. Each copy's ids start past the previous copy's, so the copies
/// are element-disjoint (independent components for the solver) and
/// the ids stay compact — the solver's scratch scales with the largest.
inline HittingSetFamily ScenarioFamily(const char* scenario_name, int size,
                                       uint64_t seed, int copies = 1) {
  const Scenario* scenario = FindScenario(scenario_name);
  RESCQ_CHECK(scenario != nullptr);
  Query q = MustParseQuery(scenario->query);
  HittingSetFamily out;
  int offset = 0;
  for (int c = 0; c < copies; ++c) {
    ScenarioParams params;
    params.size = size;
    params.seed = seed + static_cast<uint64_t>(c);
    Database db = scenario->generate(params);
    WitnessFamily witnesses = CollectWitnessFamily(q, db, kNoWitnessLimit);
    RESCQ_CHECK(!witnesses.unbreakable);
    HittingSetFamily copy = DenseHittingSetFamily(witnesses, db);
    const uint32_t base = static_cast<uint32_t>(out.pool.size());
    int used = 0;
    for (int e : copy.pool) {
      out.pool.push_back(offset + e);
      used = std::max(used, e + 1);
    }
    for (SetSpan span : copy.sets) {
      out.sets.push_back(SetSpan{base + span.offset, span.len});
    }
    offset += used;
  }
  return out;
}

/// Best-of-5 wall time of `fn` in ms: the solvers are deterministic, so
/// the minimum is the noise-free statistic. A single run when `fn`
/// takes 200 ms or more, so the CI smoke runs stay bounded.
inline double BestMs(const std::function<void()>& fn) {
  auto once = [&] {
    Clock::time_point start = Clock::now();
    fn();
    return MsSince(start);
  };
  double best = once();
  if (best < 200.0) {
    for (int r = 0; r < 4; ++r) best = std::min(best, once());
  }
  return best;
}

inline void PrintHeader(const char* experiment, const char* description) {
  std::printf("\n==== %s ====\n%s\n\n", experiment, description);
}

}  // namespace rescq::bench

#endif  // RESCQ_BENCH_BENCH_UTIL_H_
