// E8: "self-joins change everything" (Section 3.1) — already two atoms
// (q_chain) or two variables (q_vc) force NP-hardness. The exact solver's
// cost on the hard queries grows with instance size while the PTIME
// confluence twin of the same size stays cheap.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "complexity/catalog.h"
#include "cq/parser.h"
#include "resilience/engine.h"
#include "resilience/exact_solver.h"
#include "resilience/solver.h"

namespace rescq {
namespace {

void PrintContrastTable() {
  ResilienceEngine engine;
  bench::PrintHeader(
      "E8: hard twins vs easy twins (Section 3.1)",
      "q_chain (hard) vs q_ACconf (easy) on random databases of the same "
      "size: single-run wall-clock of the best available algorithm.");
  std::printf("%-12s %-12s %8s %8s %14s\n", "query", "class", "tuples",
              "rho", "time (us)");
  using Clock = std::chrono::steady_clock;
  for (const char* name : {"q_chain", "q_vc", "q_ACconf", "q_Aperm"}) {
    CatalogEntry entry = *FindCatalogEntry(name);
    Query q = MustParseQuery(entry.text);
    for (int tuples : {20, 40, 80}) {
      Rng rng(static_cast<uint64_t>(tuples) ^ 0x5EED);
      Database db = bench::RandomDatabase(q, std::max(4, tuples / 4),
                                          tuples, rng);
      auto t0 = Clock::now();
      ResilienceResult r = engine.Solve(q, db).result;
      auto t1 = Clock::now();
      std::printf("%-12s %-12s %8d %8d %14.1f\n", name,
                  ComplexityName(entry.expected), tuples, r.resilience,
                  std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
  }
}

void BM_ExactHardQuery(benchmark::State& state, const char* name) {
  Query q = MustParseQuery(FindCatalogEntry(name)->text);
  int tuples = static_cast<int>(state.range(0));
  Rng rng(static_cast<uint64_t>(tuples) * 131 + 7);
  Database db = bench::RandomDatabase(q, std::max(4, tuples / 4), tuples, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeResilienceExact(q, db));
  }
}
BENCHMARK_CAPTURE(BM_ExactHardQuery, qchain, "q_chain")
    ->Arg(20)->Arg(40)->Arg(80)->Arg(160)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ExactHardQuery, qvc, "q_vc")
    ->Arg(20)->Arg(40)->Arg(80)->Arg(160)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ExactHardQuery, qABperm, "q_ABperm")
    ->Arg(20)->Arg(40)->Arg(80)->Unit(benchmark::kMicrosecond);
// The 3-chain's witness sets have three tuples, so the general
// branch-and-bound (not the vertex-cover fast path) carries them; 40
// tuples is already two decades slower than 20 — the blow-up the
// dichotomy predicts.
BENCHMARK_CAPTURE(BM_ExactHardQuery, q3chain, "q_3chain")
    ->Arg(20)->Arg(40)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rescq

int main(int argc, char** argv) {
  rescq::PrintContrastTable();
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
