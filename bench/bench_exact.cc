// E-exact: the exact minimum-hitting-set solver (streaming witnesses,
// connected components, packing and fractional-matching bounds) on the
// hitting-set families the vc_er / vc_grid workload scenarios produce.
// The artifact table reports per-size wall time and search counters,
// and checks each row's optimum and node count against its pinned
// value; the timing series then benchmarks the solver on fixed
// instances and end to end.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "cq/parser.h"
#include "resilience/exact_solver.h"
#include "workload/scenario.h"

namespace rescq {
namespace {

void PrintPinnedTable() {
  bench::PrintHeader(
      "E-exact: component-split + flow-bound exact solver, pinned search",
      "Minimum hitting set over the witness families of the vc_er and "
      "vc_grid scenarios (q_vc; Proposition 9 territory). The solver "
      "splits connected components and prunes with the greedy packing "
      "and fractional-matching bounds. Each row's family size, optimum "
      "and node count are pinned; a row that moves off its pin is "
      "flagged.");
  struct Case {
    const char* scenario;
    int size;
    size_t sets;     // pinned family size
    int rho;         // pinned optimum
    uint64_t nodes;  // pinned branch-and-bound nodes
  };
  const Case cases[] = {
      {"vc_er", 16, 57, 10, 13},   {"vc_er", 20, 93, 14, 21},
      {"vc_er", 24, 131, 18, 29},  {"vc_er", 26, 148, 20, 33},
      {"vc_grid", 25, 40, 12, 3},  {"vc_grid", 49, 84, 24, 5},
      {"vc_grid", 64, 112, 32, 1}, {"vc_grid", 81, 144, 40, 7},
  };
  std::printf("%-9s %5s %6s %6s | %12s %10s\n", "scenario", "size", "sets",
              "rho", "ms", "nodes");
  for (const Case& c : cases) {
    HittingSetFamily family = bench::ScenarioFamily(c.scenario, c.size, 1);
    HittingSetResult result;
    ExactStats stats;
    double ms = bench::BestMs([&] {
      stats = ExactStats{};
      result = SolveMinHittingSet(family, ExactOptions{}, &stats);
    });
    const bool pinned = family.size() == c.sets && result.size == c.rho &&
                        stats.nodes == c.nodes;
    std::printf("%-9s %5d %6zu %6d | %12.3f %10llu%s\n", c.scenario, c.size,
                family.size(), result.size, ms,
                static_cast<unsigned long long>(stats.nodes),
                pinned ? "" : "  DISAGREE");
  }
}

void BM_ComponentFlowHittingSet(benchmark::State& state,
                                const char* scenario) {
  HittingSetFamily family =
      bench::ScenarioFamily(scenario, static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveMinHittingSet(family));
  }
}

BENCHMARK_CAPTURE(BM_ComponentFlowHittingSet, vc_er, "vc_er")
    ->Arg(16)
    ->Arg(20)
    ->Arg(24)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ComponentFlowHittingSet, vc_grid, "vc_grid")
    ->Arg(25)
    ->Arg(49)
    ->Arg(81)
    ->Unit(benchmark::kMicrosecond);

// End to end: streaming witness collection + the exact solver, the path
// `rescq batch` pays for every exact cell.
void BM_ExactResilienceEndToEnd(benchmark::State& state,
                                const char* scenario_name) {
  const Scenario* scenario = FindScenario(scenario_name);
  ScenarioParams params;
  params.size = static_cast<int>(state.range(0));
  params.seed = 1;
  Database db = scenario->generate(params);
  Query q = MustParseQuery(scenario->query);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeResilienceExact(q, db));
  }
}

BENCHMARK_CAPTURE(BM_ExactResilienceEndToEnd, vc_er, "vc_er")
    ->Arg(16)
    ->Arg(20)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ExactResilienceEndToEnd, vc_grid, "vc_grid")
    ->Arg(49)
    ->Arg(81)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rescq

int main(int argc, char** argv) {
  rescq::PrintPinnedTable();
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
