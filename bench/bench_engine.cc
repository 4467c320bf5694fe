// E9: plan-once / solve-many engine. First a table comparing, for a few
// representative queries, one planned engine solving a repeated-query
// workload against the legacy per-call path (plan cache disabled, so
// every call re-runs minimize / normalize / classify / probe) — then
// google-benchmark series for the same pair plus the bare planning cost.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "complexity/catalog.h"
#include "resilience/engine.h"
#include "workload/generators.h"
#include "workload/scenario.h"

namespace rescq {
namespace {

struct Workload {
  const char* label;
  const char* query;       // catalog name
  const char* scenario;    // generator keyed to the query family
  int size;
};

constexpr Workload kWorkloads[] = {
    {"q_ACconf / domination", "q_ACconf", "domination", 10},
    {"q_Aperm / perm_bipartite", "q_Aperm", "perm_bipartite", 16},
    {"q_perm / perm", "q_perm", "perm", 16},
};

Database MakeInstance(const Workload& w, uint64_t seed) {
  const Scenario* scenario = FindScenario(w.scenario);
  if (scenario == nullptr) std::abort();
  return scenario->generate({w.size, 0.5, seed});
}

EngineOptions Unplanned() {
  EngineOptions options;
  options.plan_cache_capacity = 0;  // legacy: re-analyze on every call
  return options;
}

void PrintRepeatedSolveTable() {
  bench::PrintHeader(
      "E9: planned vs unplanned repeated solves",
      "1000 Solve calls on one query over a fresh small instance each "
      "call; `planned` reuses the cached ResiliencePlan, `unplanned` "
      "re-runs the query analysis per call (the pre-engine behavior).");
  std::printf("%-26s %14s %14s %9s\n", "workload", "planned_ms",
              "unplanned_ms", "speedup");
  constexpr int kCalls = 1000;
  for (const Workload& w : kWorkloads) {
    Query q = CatalogQuery(w.query);
    double ms[2] = {0, 0};
    for (int planned = 0; planned < 2; ++planned) {
      ResilienceEngine engine(planned ? EngineOptions{} : Unplanned());
      auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kCalls; ++i) {
        Database db = MakeInstance(w, 1 + static_cast<uint64_t>(i % 8));
        benchmark::DoNotOptimize(engine.Solve(q, db).result.resilience);
      }
      ms[planned] = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    }
    std::printf("%-26s %14.1f %14.1f %8.1fx\n", w.label, ms[1], ms[0],
                ms[0] / ms[1]);
  }
}

void BM_SolvePlanned(benchmark::State& state, const Workload& w) {
  Query q = CatalogQuery(w.query);
  ResilienceEngine engine;
  Database db = MakeInstance(w, 1);
  engine.Solve(q, db);  // warm the plan cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Solve(q, db).result.resilience);
  }
}

void BM_SolveUnplanned(benchmark::State& state, const Workload& w) {
  Query q = CatalogQuery(w.query);
  ResilienceEngine engine(Unplanned());
  Database db = MakeInstance(w, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Solve(q, db).result.resilience);
  }
}

void BM_PlanOnly(benchmark::State& state, const Workload& w) {
  Query q = CatalogQuery(w.query);
  ResilienceEngine engine(Unplanned());  // no cache: measure BuildPlan
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Plan(q)->components.size());
  }
}

BENCHMARK_CAPTURE(BM_SolvePlanned, q_ACconf, kWorkloads[0]);
BENCHMARK_CAPTURE(BM_SolveUnplanned, q_ACconf, kWorkloads[0]);
BENCHMARK_CAPTURE(BM_PlanOnly, q_ACconf, kWorkloads[0]);
BENCHMARK_CAPTURE(BM_SolvePlanned, q_Aperm, kWorkloads[1]);
BENCHMARK_CAPTURE(BM_SolveUnplanned, q_Aperm, kWorkloads[1]);
BENCHMARK_CAPTURE(BM_PlanOnly, q_Aperm, kWorkloads[1]);
BENCHMARK_CAPTURE(BM_SolvePlanned, q_perm, kWorkloads[2]);
BENCHMARK_CAPTURE(BM_SolveUnplanned, q_perm, kWorkloads[2]);
BENCHMARK_CAPTURE(BM_PlanOnly, q_perm, kWorkloads[2]);

}  // namespace
}  // namespace rescq

int main(int argc, char** argv) {
  rescq::PrintRepeatedSolveTable();
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
