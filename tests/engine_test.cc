// ResilienceEngine: plan-once/solve-many API, the solver registry, and
// the plan cache — including the engine-vs-legacy equivalence sweep
// over the whole paper catalog and every workload scenario.

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "complexity/catalog.h"
#include "cq/parser.h"
#include "resilience/engine.h"
#include "resilience/exact_solver.h"
#include "resilience/solver.h"
#include "util/rng.h"
#include "workload/batch.h"
#include "workload/generators.h"
#include "workload/report.h"
#include "workload/scenario.h"

namespace rescq {
namespace {

// --- Registry self-check: report strings are a compatibility surface --------

TEST(Registry, CoversEverySolverKindWithUniqueStableNames) {
  const SolverRegistry& registry = DefaultRegistry();
  std::set<std::string> names;
  for (SolverKind kind : kAllSolverKinds) {
    const SolverEntry* entry = registry.Find(kind);
    ASSERT_NE(entry, nullptr) << SolverKindName(kind);
    EXPECT_EQ(entry->name, SolverKindName(kind));
    EXPECT_TRUE(names.insert(entry->name).second)
        << "duplicate registry name " << entry->name;
    EXPECT_FALSE(entry->citation.empty()) << entry->name;
    EXPECT_FALSE(entry->description.empty()) << entry->name;
  }
  EXPECT_EQ(registry.entries().size(), std::size(kAllSolverKinds));
}

TEST(Registry, FallbacksAreNeverProbeSelected) {
  const SolverRegistry& registry = DefaultRegistry();
  for (const CatalogEntry& entry : PaperCatalog()) {
    Query q = MustParseQuery(entry.text);
    Classification c = ClassifyResilience(q);
    for (SolverKind kind : registry.Probe(q, c)) {
      const SolverEntry* e = registry.Find(kind);
      ASSERT_NE(e, nullptr);
      EXPECT_FALSE(e->is_fallback) << entry.name;
    }
  }
}

// --- Engine-vs-legacy equivalence sweep --------------------------------------

void ExpectMatchesReference(ResilienceEngine& engine, const Query& q,
                            const Database& db, const std::string& label) {
  SolveOutcome out = engine.Solve(q, db);
  ASSERT_TRUE(out.error.empty()) << label << ": " << out.error;
  ResilienceResult oracle = ComputeResilienceReference(q, db);
  ASSERT_EQ(out.result.unbreakable, oracle.unbreakable) << label;
  if (oracle.unbreakable) return;
  EXPECT_EQ(out.result.resilience, oracle.resilience)
      << label << " solver " << SolverKindName(out.result.solver);
  Database copy = db;
  EXPECT_TRUE(VerifyContingency(q, copy, out.result.contingency)) << label;
}

class EngineCatalogEquivalence
    : public ::testing::TestWithParam<CatalogEntry> {};

TEST_P(EngineCatalogEquivalence, SolveMatchesReferenceOnUniformInstances) {
  const CatalogEntry& entry = GetParam();
  Query q = MustParseQuery(entry.text);
  ResilienceEngine engine;
  for (int size : {3, 5}) {
    for (uint64_t seed : {1u, 2u}) {
      Database db = GenerateUniform(q, {size, 0.5, seed});
      ExpectMatchesReference(
          engine, q, db,
          entry.name + " size " + std::to_string(size) + " seed " +
              std::to_string(seed));
    }
  }
  // The second size/seed rounds must have reused the memoized plan.
  EXPECT_EQ(engine.plan_cache_stats().misses, 1u);
  EXPECT_EQ(engine.plan_cache_stats().hits, 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, EngineCatalogEquivalence, ::testing::ValuesIn(PaperCatalog()),
    [](const ::testing::TestParamInfo<CatalogEntry>& info) {
      return info.param.name;
    });

TEST(Engine, SolveMatchesReferenceOnEveryScenario) {
  ResilienceEngine engine;
  for (const Scenario& scenario : ScenarioCatalog()) {
    Query q = MustParseQuery(scenario.query);
    for (int size : {4, 6}) {
      for (uint64_t seed : {1u, 2u}) {
        Database db = scenario.generate({size, 0.5, seed});
        ExpectMatchesReference(
            engine, q, db,
            scenario.name + " size " + std::to_string(size) + " seed " +
                std::to_string(seed));
      }
    }
  }
}

TEST(Engine, DisconnectedQueryTakesComponentMinimum) {
  // Two components: the permutation pair and an independent S-edge;
  // Lemma 14 takes the cheaper side.
  Query q = MustParseQuery("R(x,y), R(y,x), S(u,v)");
  Database db;
  db.AddTuple("R", {db.Intern("a"), db.Intern("b")});
  db.AddTuple("R", {db.Intern("b"), db.Intern("a")});
  db.AddTuple("S", {db.Intern("u"), db.Intern("v")});
  ResilienceEngine engine;
  SolveOutcome out = engine.Solve(q, db);
  EXPECT_EQ(out.plan->components.size(), 2u);
  EXPECT_FALSE(out.result.unbreakable);
  EXPECT_EQ(out.result.resilience, 1);
  EXPECT_EQ(out.result.resilience,
            ComputeResilienceReference(q, db).resilience);
}

// --- Plan cache --------------------------------------------------------------

TEST(Engine, PlanIsMemoizedOnTheQueryFingerprint) {
  ResilienceEngine engine;
  Query q = MustParseQuery("R(x,y), R(y,x)");
  std::shared_ptr<const ResiliencePlan> first = engine.Plan(q);
  std::shared_ptr<const ResiliencePlan> second = engine.Plan(q);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(first->fingerprint, QueryFingerprint(q));
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(Engine, PlanCacheEvictsLeastRecentlyUsed) {
  EngineOptions options;
  options.plan_cache_capacity = 1;
  ResilienceEngine engine(options);
  Query a = MustParseQuery("R(x,y), R(y,x)");
  Query b = MustParseQuery("R(x), S(x,y), R(y)");
  engine.Plan(a);
  engine.Plan(b);  // evicts a
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  engine.Plan(a);  // cold again
  EXPECT_EQ(engine.plan_cache_stats().misses, 3u);
  EXPECT_EQ(engine.plan_cache_stats().hits, 0u);
}

TEST(Engine, SolveReportsPlanCacheHits) {
  ResilienceEngine engine;
  Query q = MustParseQuery("R(x,y), R(y,x)");
  Database db = GeneratePermutation({6, 0.5, 1});
  SolveOutcome cold = engine.Solve(q, db);
  SolveOutcome warm = engine.Solve(q, db);
  EXPECT_FALSE(cold.plan_cache_hit);
  EXPECT_TRUE(warm.plan_cache_hit);
  EXPECT_EQ(warm.plan_ms, 0);
  EXPECT_EQ(cold.result.resilience, warm.result.resilience);
  EXPECT_EQ(cold.result.solver, warm.result.solver);
}

TEST(Engine, ZeroCapacityDisablesCaching) {
  EngineOptions options;
  options.plan_cache_capacity = 0;
  ResilienceEngine engine(options);
  Query q = MustParseQuery("R(x,y), R(y,x)");
  engine.Plan(q);
  engine.Plan(q);
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

// --- Options -----------------------------------------------------------------

TEST(Engine, ForceExactRunsTheReferenceSolver) {
  EngineOptions options;
  options.force_exact = true;
  ResilienceEngine engine(options);
  Query q = MustParseQuery("A(x), R(x,y), R(z,y), C(z)");
  Database db = GenerateDominationHeavy({6, 0.5, 1});
  SolveOutcome out = engine.Solve(q, db);
  EXPECT_EQ(out.result.solver, SolverKind::kExact);
  ResilienceResult oracle = ComputeResilienceReference(q, db);
  EXPECT_EQ(out.result.unbreakable, oracle.unbreakable);
  EXPECT_EQ(out.result.resilience, oracle.resilience);
}

TEST(Engine, WitnessBudgetSurfacesAsStructuredError) {
  // q_chain is NP-complete, so the engine plans the exact solver; with a
  // one-witness budget the Solve must report the budget error and the
  // default result, never a truncated answer.
  EngineOptions options;
  options.witness_limit = 1;
  ResilienceEngine engine(options);
  Query q = MustParseQuery("R(x,y), R(y,z)");
  Database db;
  Value v1 = db.Intern("1"), v2 = db.Intern("2"), v3 = db.Intern("3");
  db.AddTuple("R", {v1, v2});
  db.AddTuple("R", {v2, v3});
  db.AddTuple("R", {v3, v3});
  SolveOutcome out = engine.Solve(q, db);
  EXPECT_NE(out.error.find("witness budget exceeded"), std::string::npos);
  EXPECT_TRUE(out.exact.witness_budget_exceeded);
  EXPECT_EQ(out.result.resilience, 0);

  // A roomy budget behaves exactly like no budget.
  EngineOptions roomy;
  roomy.witness_limit = 1000;
  ResilienceEngine roomy_engine(roomy);
  SolveOutcome ok = roomy_engine.Solve(q, db);
  EXPECT_TRUE(ok.error.empty());
  EXPECT_EQ(ok.result.resilience, 2);
  EXPECT_FALSE(ok.exact.witness_budget_exceeded);
}

TEST(Engine, SolveOutcomeCarriesExactSearchStats) {
  ResilienceEngine engine;
  Query q = MustParseQuery("R(x,y), R(y,z)");  // NP-complete: exact runs
  Database db;
  Value v1 = db.Intern("1"), v2 = db.Intern("2"), v3 = db.Intern("3");
  db.AddTuple("R", {v1, v2});
  db.AddTuple("R", {v2, v3});
  db.AddTuple("R", {v3, v3});
  SolveOutcome out = engine.Solve(q, db);
  EXPECT_EQ(out.result.resilience, 2);
  EXPECT_EQ(out.exact.witnesses, 3u);
  EXPECT_EQ(out.exact.witness_sets, 3u);
  EXPECT_GE(out.exact.nodes, 1u);

  // PTIME queries dispatched to a construction never touch the exact
  // path: the counters stay zero.
  Query ptime = MustParseQuery("R(x,y), R(y,x)");
  Database perm = GeneratePermutation({6, 0.5, 1});
  SolveOutcome fast = engine.Solve(ptime, perm);
  EXPECT_EQ(fast.result.solver, SolverKind::kPermCount);
  EXPECT_EQ(fast.exact.witnesses, 0u);
  EXPECT_EQ(fast.exact.nodes, 0u);
}

TEST(Engine, NodeBudgetReturnsVerifiedUpperBound) {
  EngineOptions options;
  options.exact_node_budget = 1;
  ResilienceEngine engine(options);
  Query q = MustParseQuery("R(x,y), R(y,z)");
  Database db = GenerateChain({8, 0.5, 3});
  SolveOutcome out = engine.Solve(q, db);
  EXPECT_TRUE(out.error.empty());
  ResilienceResult oracle = ComputeResilienceReference(q, db);
  if (!oracle.unbreakable && oracle.resilience > 0) {
    EXPECT_GE(out.result.resilience, oracle.resilience);
    EXPECT_TRUE(VerifyContingency(q, db, out.result.contingency));
  }
}

TEST(Engine, FallbackReasonsRecordDeclinedConstructions) {
  // q_Aperm: perm-count probes as applicable (unbound permutation) but
  // declines at run time because A is also endogenous; the König cover
  // then solves it. The declined attempt must be visible.
  Query q = CatalogQuery("q_Aperm");
  Database db;
  db.AddTuple("A", {db.Intern("a")});
  db.AddTuple("R", {db.Intern("a"), db.Intern("b")});
  db.AddTuple("R", {db.Intern("b"), db.Intern("a")});
  ResilienceEngine engine;
  SolveOutcome out = engine.Solve(q, db);
  EXPECT_EQ(out.result.solver, SolverKind::kPermBipartite);
  ASSERT_FALSE(out.fallback_reasons.empty());
  EXPECT_NE(out.fallback_reasons[0].find("perm-count"), std::string::npos);
}

// A registry whose only construction always declines, to exercise the
// allow_fallback gate deterministically.
SolverRegistry DecliningRegistry() {
  SolverRegistry registry;
  SolverEntry declines;
  declines.kind = SolverKind::kLinearFlow;
  declines.name = "linear-flow";
  declines.citation = "test";
  declines.description = "always declines";
  declines.probe = [](const Query&, const Classification& c) {
    return c.complexity == Complexity::kPTime;
  };
  declines.run = [](const Query&,
                    const Database&) -> std::optional<ResilienceResult> {
    return std::nullopt;
  };
  registry.Register(std::move(declines));

  SolverEntry exact;
  exact.kind = SolverKind::kExact;
  exact.name = "exact";
  exact.citation = "test";
  exact.description = "exact";
  exact.run = [](const Query& q,
                 const Database& db) -> std::optional<ResilienceResult> {
    return ComputeResilienceExact(q, db);
  };
  exact.is_fallback = true;
  registry.Register(std::move(exact));

  SolverEntry fallback;
  fallback.kind = SolverKind::kExactFallback;
  fallback.name = "exact-fallback";
  fallback.citation = "test";
  fallback.description = "exact fallback";
  fallback.run = [](const Query& q,
                    const Database& db) -> std::optional<ResilienceResult> {
    ResilienceResult r = ComputeResilienceExact(q, db);
    r.solver = SolverKind::kExactFallback;
    return r;
  };
  fallback.is_fallback = true;
  registry.Register(std::move(fallback));
  return registry;
}

TEST(Engine, AllowFallbackGatesTheExactFallback) {
  static const SolverRegistry registry = DecliningRegistry();
  Query q = MustParseQuery("A(x), R(x,y), R(z,y), C(z)");
  Database db;
  db.AddTuple("A", {db.Intern("a")});
  db.AddTuple("R", {db.Intern("a"), db.Intern("b")});
  db.AddTuple("R", {db.Intern("c"), db.Intern("b")});
  db.AddTuple("C", {db.Intern("c")});

  EngineOptions strict;
  strict.allow_fallback = false;
  ResilienceEngine no_fallback(strict, &registry);
  SolveOutcome blocked = no_fallback.Solve(q, db);
  EXPECT_FALSE(blocked.error.empty());

  ResilienceEngine with_fallback(EngineOptions{}, &registry);
  SolveOutcome out = with_fallback.Solve(q, db);
  EXPECT_TRUE(out.error.empty());
  EXPECT_EQ(out.result.solver, SolverKind::kExactFallback);
  EXPECT_EQ(out.result.resilience,
            ComputeResilienceReference(q, db).resilience);
  ASSERT_FALSE(out.fallback_reasons.empty());
}

// --- Explain -----------------------------------------------------------------

// --- Engine sharing: concurrent Solve calls on one instance -----------------

// The documented concurrency contract (engine.h): every public method is
// safe from any number of threads; the only shared mutable state is the
// mutex-guarded plan-cache LRU. This hammers one engine from 8 threads
// over a working set larger than the cache (forcing concurrent splices,
// inserts, and evictions) and checks every answer against serially
// precomputed references. Runs under TSan via the `parallel` CI job's
// unit label.
void StressConcurrentSolves(EngineOptions options) {
  options.plan_cache_capacity = 3;  // < working set: constant LRU churn
  ResilienceEngine engine(options);
  struct Case {
    Query q;
    Database db;
    bool unbreakable;
    int resilience;
  };
  std::vector<Case> cases;
  const char* texts[] = {"R(x,y), R(y,x)", "R(x,y), R(y,z)",
                         "R(x), S(x,y), R(y)", "R(x,y), S(y,z), T(z,x)",
                         "A(x), R(x,y), R(y,x)", "R(x,y), R(y,z), S^x(z,w)"};
  for (const char* text : texts) {
    Case c;
    c.q = MustParseQuery(text);
    c.db = GenerateUniform(c.q, {4, 0.5, 7});
    ResilienceResult reference = ComputeResilienceReference(c.q, c.db);
    c.unbreakable = reference.unbreakable;
    c.resilience = reference.resilience;
    cases.push_back(std::move(c));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 30; ++i) {
        const Case& c = cases[static_cast<size_t>(t + i) % cases.size()];
        SolveOutcome out = engine.Solve(c.q, c.db);
        bool ok = out.error.empty() &&
                  out.result.unbreakable == c.unbreakable &&
                  (c.unbreakable || out.result.resilience == c.resilience);
        if (!ok) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 8u * 30u);
  EXPECT_LE(stats.entries, 3u);
}

TEST(Engine, ConcurrentSolvesOnOneEngineAreSafe) {
  StressConcurrentSolves(EngineOptions{});
}

TEST(Engine, ConcurrentSolvesComposeWithSolverWorkers) {
  // Each Solve additionally spins up its own private solver fan-out:
  // concurrent Solves nest independent pools without interference.
  EngineOptions options;
  options.solver_threads = 2;
  StressConcurrentSolves(options);
}

// Proposition 41's solver deletes the forced tuples before its flow.
// It must not do that by deactivating them in the caller's database:
// Solve takes the database by const reference, and concurrent Solves
// over one shared database would then see each other's deletions.
// Every thread must get exactly the serial answer.
TEST(Engine, ConcurrentForcedThenFlowSolvesShareOneDatabase) {
  Query q = CatalogQuery("q_TS3conf");
  Database db;
  Rng rng(5);
  std::vector<Value> dom;
  for (int i = 0; i < 12; ++i) dom.push_back(db.InternIndexed("c", i));
  for (const std::string& rel : q.RelationNames()) {
    for (int t = 0; t < 60; ++t) {
      Value a = dom[rng.Below(dom.size())];
      Value b = dom[rng.Below(dom.size())];
      db.AddTuple(rel, {a, b});
    }
  }
  ResilienceEngine engine;
  SolveOutcome reference = engine.Solve(q, db);
  ASSERT_TRUE(reference.error.empty());
  ASSERT_EQ(reference.result.solver, SolverKind::kConf3Forced);
  ASSERT_GT(reference.result.resilience, 0);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        SolveOutcome out = engine.Solve(q, db);
        bool ok = out.error.empty() &&
                  out.result.resilience == reference.result.resilience &&
                  out.result.contingency == reference.result.contingency;
        if (!ok) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Plan, ExplainNamesPipelineSolverAndCitation) {
  ResilienceEngine engine;
  std::string ptime =
      engine.Plan(CatalogQuery("q_ACconf"))->Explain(engine.registry());
  EXPECT_NE(ptime.find("pipeline"), std::string::npos);
  EXPECT_NE(ptime.find("linear-flow"), std::string::npos);
  EXPECT_NE(ptime.find("Proposition"), std::string::npos);
  EXPECT_NE(ptime.find("fallback"), std::string::npos);

  std::string hard =
      engine.Plan(MustParseQuery("R(x,y), R(y,z)"))->Explain(
          engine.registry());
  EXPECT_NE(hard.find("NP-complete"), std::string::npos);
  EXPECT_NE(hard.find("branch-and-bound"), std::string::npos);
}

// --- Batch integration: cold vs cached plans ---------------------------------

TEST(Batch, CachedPlanYieldsByteIdenticalReportRows) {
  // The same (scenario, size, seed) twice with memoization off: the
  // second cell re-solves with the cached plan and must produce a
  // byte-identical deterministic row prefix (columns 1-15).
  BatchPlan plan;
  plan.scenarios = {"perm", "perm"};
  plan.sizes = {5};
  plan.seeds = {3};
  std::vector<BatchJob> jobs;
  std::string error;
  ASSERT_TRUE(ExpandPlan(plan, &jobs, &error)) << error;
  ASSERT_EQ(jobs.size(), 2u);
  BatchOptions options;  // threads = 1: deterministic attribution
  options.memoize = false;
  options.check_oracle = true;
  BatchReport report = RunBatch(jobs, options);
  EXPECT_FALSE(report.cells[0].plan_cache_hit);
  EXPECT_TRUE(report.cells[1].plan_cache_hit);
  EXPECT_EQ(report.plan_cache_hits, 1u);
  EXPECT_EQ(report.plan_cache_misses, 1u);
  EXPECT_EQ(report.plan_cache_entries, 1u);

  std::stringstream csv;
  WriteReportCsv(report, csv);
  std::vector<std::string> lines;
  for (std::string line; std::getline(csv, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // header + 2 cells
  auto prefix = [](const std::string& line) {
    // Strip the volatile tail: memo_hit, plan_cache_hit, wall_ms.
    size_t end = line.size();
    for (int cut = 0; cut < 3; ++cut) end = line.rfind(',', end - 1);
    return line.substr(0, end);
  };
  EXPECT_EQ(prefix(lines[1]), prefix(lines[2]));
}

TEST(Batch, MemoizedCellsDoNotTouchThePlanCache) {
  BatchPlan plan;
  plan.scenarios = {"perm", "perm"};
  plan.sizes = {5};
  plan.seeds = {3};
  std::vector<BatchJob> jobs;
  std::string error;
  ASSERT_TRUE(ExpandPlan(plan, &jobs, &error)) << error;
  BatchOptions options;  // memoize = true
  BatchReport report = RunBatch(jobs, options);
  EXPECT_TRUE(report.cells[1].memo_hit);
  EXPECT_FALSE(report.cells[1].plan_cache_hit);
  EXPECT_EQ(report.plan_cache_hits, 0u);
  EXPECT_EQ(report.plan_cache_misses, 1u);
}

}  // namespace
}  // namespace rescq
