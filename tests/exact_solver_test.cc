#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "cq/parser.h"
#include "db/database.h"
#include "db/witness.h"
#include "resilience/exact_solver.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace rescq {
namespace {

TEST(HittingSet, EmptyFamily) {
  EXPECT_EQ(SolveMinHittingSet({}).size, 0);
}

TEST(HittingSet, SingletonsForced) {
  HittingSetResult r = SolveMinHittingSet({{3}, {5}, {3, 5, 7}});
  EXPECT_EQ(r.size, 2);
  EXPECT_EQ(r.chosen, (std::vector<int>{3, 5}));
}

TEST(HittingSet, DisjointSetsNeedOneEach) {
  HittingSetResult r = SolveMinHittingSet({{0, 1}, {2, 3}, {4, 5}});
  EXPECT_EQ(r.size, 3);
}

TEST(HittingSet, SharedElementCoversAll) {
  HittingSetResult r = SolveMinHittingSet({{0, 9}, {1, 9}, {2, 9}});
  EXPECT_EQ(r.size, 1);
  EXPECT_EQ(r.chosen, (std::vector<int>{9}));
}

TEST(HittingSet, SupersetsIgnored) {
  HittingSetResult r = SolveMinHittingSet({{0, 1}, {0, 1, 2, 3}});
  EXPECT_EQ(r.size, 1);
}

TEST(HittingSet, TriangleVertexCover) {
  // Sets = edges of a triangle: minimum VC is 2.
  HittingSetResult r = SolveMinHittingSet({{0, 1}, {1, 2}, {2, 0}});
  EXPECT_EQ(r.size, 2);
}

TEST(HittingSet, C5VertexCover) {
  // 5-cycle: VC = 3.
  HittingSetResult r =
      SolveMinHittingSet({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  EXPECT_EQ(r.size, 3);
}

TEST(HittingSet, PetersenGraphVertexCover) {
  // The Petersen graph has vertex cover number 6.
  std::vector<std::vector<int>> edges = {
      {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},   // outer cycle
      {5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5},   // inner pentagram
      {0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}};  // spokes
  EXPECT_EQ(SolveMinHittingSet(edges).size, 6);
}

bool HitsEverySet(const std::vector<std::vector<int>>& sets,
                  const std::vector<int>& chosen) {
  for (const std::vector<int>& s : sets) {
    bool hit = false;
    for (int e : s) {
      hit = hit || std::find(chosen.begin(), chosen.end(), e) != chosen.end();
    }
    if (!hit) return false;
  }
  return true;
}

TEST(HittingSet, ChosenElementsHitEverySet) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::vector<int>> sets;
    int universe = 12;
    for (int s = 0; s < 15; ++s) {
      std::vector<int> set;
      int size = static_cast<int>(rng.Range(1, 4));
      for (int i = 0; i < size; ++i) {
        set.push_back(static_cast<int>(rng.Below(static_cast<uint64_t>(universe))));
      }
      sets.push_back(set);
    }
    HittingSetResult r = SolveMinHittingSet(sets);
    EXPECT_TRUE(HitsEverySet(sets, r.chosen));
  }
}

// Exhaustive search over every hitting set of the universe: elements
// are decided in ascending order, in or out, and a branch dies only when
// some set has all of its elements out. No bounds and no reductions, so
// it shares nothing with the solver; the number of branches is about the
// number of hitting sets (independent sets' complements on graphs), which
// keeps dense graphs of up to ~30 vertices quick. Element ids must be
// below 32.
int BruteForceHittingSet(const std::vector<std::vector<int>>& sets,
                         int universe) {
  // Sets by their largest element: deciding that element out is the last
  // chance to hit them.
  std::vector<std::vector<uint32_t>> closing(static_cast<size_t>(universe));
  for (const std::vector<int>& s : sets) {
    uint32_t m = 0;
    int top = 0;
    for (int e : s) {
      m |= 1u << e;
      top = std::max(top, e);
    }
    closing[static_cast<size_t>(top)].push_back(m);
  }
  int best = universe;
  std::vector<std::pair<int, uint32_t>> stack = {{0, 0u}};
  while (!stack.empty()) {
    auto [e, in] = stack.back();
    stack.pop_back();
    if (e == universe) {
      best = std::min(best, __builtin_popcount(in));
      continue;
    }
    stack.push_back({e + 1, in | (1u << e)});
    bool out_ok = true;
    for (uint32_t m : closing[static_cast<size_t>(e)]) {
      out_ok = out_ok && (m & in) != 0;
    }
    if (out_ok) stack.push_back({e + 1, in});
  }
  return best;
}

// Random G(n, p) edge sets, edge probability p_tenths / 10, plus a
// couple of singletons.
std::vector<std::vector<int>> DenseGraphFamily(int n, int p_tenths,
                                               Rng& rng) {
  std::vector<std::vector<int>> sets;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (rng.Chance(static_cast<uint64_t>(p_tenths), 10)) {
        sets.push_back({a, b});
      }
    }
  }
  for (int k = 0; k < 2; ++k) {
    sets.push_back({static_cast<int>(rng.Below(static_cast<uint64_t>(n)))});
  }
  return sets;
}

// Dense graphs against the brute force. Up to 18 vertices the vertex
// cover search stays below the flow bound's 32-node gate (at most 25
// nodes here), so 28- and 30-vertex graphs follow: those run past the
// gate, where the search undoes deep trails and the fractional-matching
// bound prunes. The smaller sweeps above never get there.
TEST(HittingSet, MatchesBruteForceOnDenseGraphs) {
  Rng rng(2024);
  uint64_t max_nodes = 0;
  uint64_t flow_prunes = 0;
  for (int n : {14, 15, 16, 17, 18, 28, 30}) {
    for (int p : {3, 5, 7}) {
      for (int trial = 0; trial < 2; ++trial) {
        std::vector<std::vector<int>> sets = DenseGraphFamily(n, p, rng);
        ExactStats stats;
        HittingSetResult r = SolveMinHittingSet(sets, ExactOptions{}, &stats);
        EXPECT_TRUE(r.proven_optimal);
        EXPECT_EQ(r.size, BruteForceHittingSet(sets, n))
            << "n=" << n << " p=0." << p << " trial " << trial;
        EXPECT_TRUE(HitsEverySet(sets, r.chosen))
            << "n=" << n << " p=0." << p << " trial " << trial;
        max_nodes = std::max(max_nodes, stats.nodes);
        flow_prunes += stats.flow_prunes;
      }
    }
  }
  EXPECT_GE(max_nodes, 32u);
  EXPECT_GT(flow_prunes, 0u);
}

TEST(HittingSet, BudgetedDenseGraphsKeepAFeasibleCover) {
  Rng rng(4048);
  for (int n = 14; n <= 18; ++n) {
    for (int p : {3, 5, 7}) {
      std::vector<std::vector<int>> sets = DenseGraphFamily(n, p, rng);
      ExactOptions options;
      options.node_budget = 5;
      ExactStats stats;
      HittingSetResult r = SolveMinHittingSet(sets, options, &stats);
      EXPECT_TRUE(HitsEverySet(sets, r.chosen))
          << "n=" << n << " p=0." << p;
      EXPECT_EQ(r.size, static_cast<int>(r.chosen.size()));
      EXPECT_GE(r.size, BruteForceHittingSet(sets, n));
      EXPECT_EQ(r.proven_optimal, !stats.node_budget_exceeded);
    }
  }
}

// The witness family of a generated scenario instance (density 0.5) as
// a hitting-set family over dense element ids, tuples numbered in
// first-seen order.
HittingSetFamily ScenarioFamily(const char* name, int size, uint64_t seed) {
  const Scenario* scenario = FindScenario(name);
  EXPECT_NE(scenario, nullptr) << name;
  ScenarioParams params;
  params.size = size;
  params.density = 0.5;
  params.seed = seed;
  Database db = scenario->generate(params);
  Query q = MustParseQuery(scenario->query);
  WitnessFamily witnesses = CollectWitnessFamily(q, db, kNoWitnessLimit);
  std::map<TupleId, int> ids;
  HittingSetFamily family;
  for (size_t i = 0; i < witnesses.size(); ++i) {
    std::vector<int> set;
    for (const TupleId* t = witnesses.begin(i); t != witnesses.end(i); ++t) {
      set.push_back(
          ids.emplace(*t, static_cast<int>(ids.size())).first->second);
    }
    family.Add(set);
  }
  return family;
}

void MixU64(uint64_t v, Fnv1a* h) {
  h->MixU32(static_cast<uint32_t>(v));
  h->MixU32(static_cast<uint32_t>(v >> 32));
}

// Pins the search itself, not just its answers: (size, chosen, nodes,
// packing / flow prunes, components) of SolveMinHittingSet and the root
// HittingSetLowerBound over fixed-seed families of the NP-hard cells,
// folded into one digest. Any change to visit order, bound values or
// gates moves a counter and with it the digest. The constant was
// recorded from the set-based vertex-cover search and Dinic matching
// bound that the trail-undo search and Hopcroft-Karp bound replaced.
TEST(ExactSolver, SearchIsPinnedByDigest) {
  struct Cell {
    const char* scenario;
    int size;
  };
  const Cell cells[] = {
      {"vc_er", 30},      {"vc_er", 40},   {"vc_er", 50},
      {"vc_planted", 60}, {"vc_path", 60}, {"vc_grid", 400},
      {"chain", 120},     {"triad", 7},    {"uniform", 80},
  };
  Fnv1a h;
  uint64_t flow_prunes = 0;
  for (const Cell& cell : cells) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      HittingSetFamily family = ScenarioFamily(cell.scenario, cell.size, seed);
      ExactStats stats;
      HittingSetResult r = SolveMinHittingSet(family, ExactOptions{}, &stats);
      ASSERT_TRUE(r.proven_optimal) << cell.scenario << "/" << cell.size;
      h.MixU32(static_cast<uint32_t>(r.size));
      for (int e : r.chosen) h.MixU32(static_cast<uint32_t>(e));
      MixU64(stats.nodes, &h);
      MixU64(stats.packing_prunes, &h);
      MixU64(stats.flow_prunes, &h);
      h.MixU32(static_cast<uint32_t>(stats.components));
      h.MixU32(static_cast<uint32_t>(HittingSetLowerBound(family)));
      flow_prunes += stats.flow_prunes;
    }
  }
  EXPECT_GT(flow_prunes, 0u);  // the matching bound is part of the pin
  EXPECT_EQ(h.digest(), 0x0b8fa4f0162b5493ULL);
}

TEST(HittingSet, MatchesBruteForceOnRandomInstances) {
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    int universe = 10;
    std::vector<std::vector<int>> sets;
    for (int s = 0; s < 8; ++s) {
      std::vector<int> set;
      int size = static_cast<int>(rng.Range(1, 3));
      for (int i = 0; i < size; ++i) {
        set.push_back(static_cast<int>(rng.Below(static_cast<uint64_t>(universe))));
      }
      sets.push_back(set);
    }
    EXPECT_EQ(SolveMinHittingSet(sets).size,
              BruteForceHittingSet(sets, universe))
        << "trial " << trial;
  }
}

TEST(HittingSet, MatchesBruteForceWithMixedSetSizes) {
  // Larger sets exercise the element-domination reduction and the
  // packing-plus-matching split of the flow bound together.
  Rng rng(1234);
  for (int trial = 0; trial < 40; ++trial) {
    int universe = 12;
    std::vector<std::vector<int>> sets;
    int num_sets = static_cast<int>(rng.Range(4, 14));
    for (int s = 0; s < num_sets; ++s) {
      std::vector<int> set;
      int size = static_cast<int>(rng.Range(1, 4));
      for (int i = 0; i < size; ++i) {
        set.push_back(
            static_cast<int>(rng.Below(static_cast<uint64_t>(universe))));
      }
      sets.push_back(set);
    }
    ExactStats stats;
    HittingSetResult r = SolveMinHittingSet(sets, ExactOptions{}, &stats);
    EXPECT_TRUE(r.proven_optimal);
    EXPECT_EQ(r.size, BruteForceHittingSet(sets, universe))
        << "trial " << trial;
    // The chosen elements really hit everything.
    EXPECT_TRUE(HitsEverySet(sets, r.chosen)) << "trial " << trial;
  }
}

TEST(HittingSet, DisjointComponentsAreSolvedIndependently) {
  // Three triangles over disjoint elements: VC(triangle) = 2 each.
  std::vector<std::vector<int>> sets;
  for (int c = 0; c < 3; ++c) {
    int base = 10 * c;
    sets.push_back({base, base + 1});
    sets.push_back({base + 1, base + 2});
    sets.push_back({base + 2, base});
  }
  ExactStats stats;
  HittingSetResult r = SolveMinHittingSet(sets, ExactOptions{}, &stats);
  EXPECT_EQ(r.size, 6);
  EXPECT_EQ(stats.components, 3);
}

TEST(HittingSet, DominatedElementsNeverNeeded) {
  // Element 9 appears only where 0 also appears: a q_vc-style private
  // element. The optimum never uses it.
  HittingSetResult r =
      SolveMinHittingSet({{0, 9, 1}, {0, 9, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(r.size, 2);
  EXPECT_TRUE(std::find(r.chosen.begin(), r.chosen.end(), 9) ==
              r.chosen.end());
}

TEST(HittingSet, NodeBudgetReturnsFeasibleIncumbent) {
  // A hard-ish instance with a budget of one node: the answer must
  // still hit every set (the greedy incumbent), just without the
  // optimality proof.
  Rng rng(99);
  std::vector<std::vector<int>> sets;
  for (int s = 0; s < 20; ++s) {
    std::vector<int> set;
    for (int i = 0; i < 3; ++i) {
      set.push_back(static_cast<int>(rng.Below(15)));
    }
    sets.push_back(set);
  }
  ExactOptions options;
  options.node_budget = 1;
  ExactStats stats;
  HittingSetResult r = SolveMinHittingSet(sets, options, &stats);
  EXPECT_TRUE(stats.node_budget_exceeded || r.proven_optimal);
  EXPECT_TRUE(HitsEverySet(sets, r.chosen));
  // An unlimited run can only be at least as good.
  HittingSetResult full = SolveMinHittingSet(sets);
  EXPECT_LE(full.size, r.size);
  EXPECT_TRUE(full.proven_optimal);
}

// --- Resilience via the exact solver -----------------------------------------

TEST(ExactResilience, QueryFalseIsZero) {
  Database db;
  db.AddTuple("R", {db.Intern("a"), db.Intern("b")});
  Query q = MustParseQuery("R(x,y), R(y,z)");  // no chain in db... a->b only
  ResilienceResult r = ComputeResilienceExact(q, db);
  EXPECT_FALSE(r.unbreakable);
  EXPECT_EQ(r.resilience, 0);
}

TEST(ExactResilience, PaperChainExample) {
  // Section 2 example: witnesses {t1,t2}, {t2,t3}, {t3}. t3 is forced;
  // then t1 or t2 kills the rest: resilience 2.
  Database db;
  Value v1 = db.Intern("1"), v2 = db.Intern("2"), v3 = db.Intern("3");
  db.AddTuple("R", {v1, v2});
  db.AddTuple("R", {v2, v3});
  TupleId t3 = db.AddTuple("R", {v3, v3});
  Query q = MustParseQuery("R(x,y), R(y,z)");
  ResilienceResult r = ComputeResilienceExact(q, db);
  EXPECT_EQ(r.resilience, 2);
  EXPECT_TRUE(std::find(r.contingency.begin(), r.contingency.end(), t3) !=
              r.contingency.end());
}

TEST(ExactResilience, Example11DominationFails) {
  // Section 3.2, Example 11: q^sj1_rats over
  // D = {A(1),A(5),R(1,2),R(2,3),R(3,1),R(5,1),R(2,5)} has resilience 1
  // via R(1,2), showing dominated R must stay endogenous.
  Database db;
  auto val = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("A", {val("1")});
  db.AddTuple("A", {val("5")});
  TupleId r12 = db.AddTuple("R", {val("1"), val("2")});
  db.AddTuple("R", {val("2"), val("3")});
  db.AddTuple("R", {val("3"), val("1")});
  db.AddTuple("R", {val("5"), val("1")});
  db.AddTuple("R", {val("2"), val("5")});
  Query q = MustParseQuery("A(x), R(x,y), R(y,z), R(z,x)");
  ResilienceResult r = ComputeResilienceExact(q, db);
  EXPECT_EQ(r.resilience, 1);
  EXPECT_EQ(r.contingency, (std::vector<TupleId>{r12}));

  // With R exogenous, the only contingency set is {A(1), A(5)}: size 2.
  Query q_exo = q.WithRelationExogenous("R");
  ResilienceResult r2 = ComputeResilienceExact(q_exo, db);
  EXPECT_EQ(r2.resilience, 2);
}

TEST(ExactResilience, UnbreakableWhenAllExogenous) {
  Database db;
  db.AddTuple("R", {db.Intern("a"), db.Intern("a")});
  Query q = MustParseQuery("R^x(x,y)");
  ResilienceResult r = ComputeResilienceExact(q, db);
  EXPECT_TRUE(r.unbreakable);
}

TEST(ExactResilience, VertexCoverQuery) {
  // q_vc over the complete graph K4 (as a digraph both ways): every edge
  // is a witness; resilience = VC(K4) = 3.
  Database db;
  std::vector<Value> v;
  for (int i = 0; i < 4; ++i) v.push_back(db.InternIndexed("v", i));
  for (int i = 0; i < 4; ++i) db.AddTuple("R", {v[static_cast<size_t>(i)]});
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i != j) {
        db.AddTuple("S", {v[static_cast<size_t>(i)], v[static_cast<size_t>(j)]});
      }
    }
  }
  Query q = MustParseQuery("R(x), S(x,y), R(y)");
  EXPECT_EQ(ComputeResilienceExact(q, db).resilience, 3);
}

TEST(ExactResilience, PermutationPairsAreIndependent) {
  // q_perm: witnesses are the 2-cycles; each needs one deletion (Prop 33).
  Database db;
  auto val = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("R", {val("a"), val("b")});
  db.AddTuple("R", {val("b"), val("a")});
  db.AddTuple("R", {val("c"), val("d")});
  db.AddTuple("R", {val("d"), val("c")});
  db.AddTuple("R", {val("a"), val("c")});  // no inverse: not a witness
  Query q = MustParseQuery("R(x,y), R(y,x)");
  EXPECT_EQ(ComputeResilienceExact(q, db).resilience, 2);
}

// --- Budgets & streaming ------------------------------------------------------

TEST(WitnessFamilyCollection, DeduplicatesAndCounts) {
  Database db;
  Value v1 = db.Intern("1"), v2 = db.Intern("2"), v3 = db.Intern("3");
  db.AddTuple("R", {v1, v2});
  db.AddTuple("R", {v2, v3});
  db.AddTuple("R", {v3, v3});
  Query q = MustParseQuery("R(x,y), R(y,z)");
  WitnessFamily family = CollectWitnessFamily(q, db, kNoWitnessLimit);
  EXPECT_EQ(family.witnesses, 3u);  // (1,2,3), (2,3,3), (3,3,3)
  EXPECT_EQ(family.sets.size(), 3u);
  EXPECT_FALSE(family.unbreakable);
  EXPECT_FALSE(family.budget_exceeded);
}

TEST(WitnessFamilyCollection, BudgetTripsOnlyWhenWitnessesRemain) {
  Database db;
  for (int i = 0; i < 5; ++i) {
    db.AddTuple("R", {db.InternIndexed("a", i)});
  }
  Query q = MustParseQuery("R(x)");
  // Exactly at the instance's witness count: complete, not exceeded.
  WitnessFamily at = CollectWitnessFamily(q, db, 5);
  EXPECT_EQ(at.witnesses, 5u);
  EXPECT_FALSE(at.budget_exceeded);
  // One below: truncated and flagged.
  WitnessFamily under = CollectWitnessFamily(q, db, 4);
  EXPECT_EQ(under.witnesses, 4u);
  EXPECT_TRUE(under.budget_exceeded);
}

TEST(WitnessFamilyCollection, UnbreakableShortCircuits) {
  Database db;
  db.AddTuple("R", {db.Intern("a"), db.Intern("a")});
  for (int i = 0; i < 50; ++i) {
    db.AddTuple("R", {db.InternIndexed("b", i), db.InternIndexed("b", i)});
  }
  Query q = MustParseQuery("R^x(x,y)");
  WitnessFamily family = CollectWitnessFamily(q, db, kNoWitnessLimit);
  EXPECT_TRUE(family.unbreakable);
  // The first empty endogenous set stops enumeration.
  EXPECT_EQ(family.witnesses, 1u);
}

TEST(ExactResilience, WitnessBudgetIsAStructuredOutcome) {
  // Exceeding the witness budget must never yield a truncated "answer":
  // the stats flag is set and the result stays at the default.
  Database db;
  Value v1 = db.Intern("1"), v2 = db.Intern("2"), v3 = db.Intern("3");
  db.AddTuple("R", {v1, v2});
  db.AddTuple("R", {v2, v3});
  db.AddTuple("R", {v3, v3});
  Query q = MustParseQuery("R(x,y), R(y,z)");
  ExactOptions options;
  options.witness_limit = 1;
  ExactStats stats;
  ResilienceResult r = ComputeResilienceExact(q, db, options, &stats);
  EXPECT_TRUE(stats.witness_budget_exceeded);
  EXPECT_EQ(stats.witnesses, 1u);
  EXPECT_EQ(r.resilience, 0);
  EXPECT_TRUE(r.contingency.empty());

  // A budget the instance fits under changes nothing.
  options.witness_limit = 100;
  ExactStats roomy;
  ResilienceResult full = ComputeResilienceExact(q, db, options, &roomy);
  EXPECT_FALSE(roomy.witness_budget_exceeded);
  EXPECT_EQ(full.resilience, 2);
}

TEST(ExactResilience, StatsReportSearchCounters) {
  Database db;
  Value v1 = db.Intern("1"), v2 = db.Intern("2"), v3 = db.Intern("3");
  db.AddTuple("R", {v1, v2});
  db.AddTuple("R", {v2, v3});
  db.AddTuple("R", {v3, v3});
  Query q = MustParseQuery("R(x,y), R(y,z)");
  ExactStats stats;
  ResilienceResult r = ComputeResilienceExact(q, db, ExactOptions{}, &stats);
  EXPECT_EQ(r.resilience, 2);
  EXPECT_EQ(stats.witnesses, 3u);
  EXPECT_EQ(stats.witness_sets, 3u);
  EXPECT_GE(stats.components, 1);
  EXPECT_GE(stats.nodes, 1u);
  EXPECT_FALSE(stats.witness_budget_exceeded);
  EXPECT_FALSE(stats.node_budget_exceeded);
}

TEST(ExactResilience, NodeBudgetKeepsContingencyValid) {
  Rng rng(7);
  Query q = MustParseQuery("R(x,y), R(y,z)");
  for (int trial = 0; trial < 5; ++trial) {
    Database db;
    for (int e = 0; e < 20; ++e) {
      Value a = db.InternIndexed("n", static_cast<int>(rng.Below(7)));
      Value b = db.InternIndexed("n", static_cast<int>(rng.Below(7)));
      db.AddTuple("R", {a, b});
    }
    ExactOptions tight;
    tight.node_budget = 2;
    ExactStats stats;
    ResilienceResult r = ComputeResilienceExact(q, db, tight, &stats);
    ResilienceResult full = ComputeResilienceExact(q, db);
    if (full.unbreakable || full.resilience == 0) continue;
    // The budgeted answer is an upper bound whose contingency really
    // falsifies the query.
    EXPECT_GE(r.resilience, full.resilience);
    for (TupleId t : r.contingency) db.SetActive(t, false);
    EXPECT_FALSE(QueryHolds(q, db));
    db.ActivateAll();
  }
}

TEST(ExactResilience, ContingencySetActuallyBreaksQuery) {
  Rng rng(5);
  Query q = MustParseQuery("R(x,y), R(y,z)");
  for (int trial = 0; trial < 10; ++trial) {
    Database db;
    for (int e = 0; e < 15; ++e) {
      Value a = db.InternIndexed("n", static_cast<int>(rng.Below(6)));
      Value b = db.InternIndexed("n", static_cast<int>(rng.Below(6)));
      db.AddTuple("R", {a, b});
    }
    ResilienceResult r = ComputeResilienceExact(q, db);
    ASSERT_FALSE(r.unbreakable);
    for (TupleId t : r.contingency) db.SetActive(t, false);
    EXPECT_FALSE(QueryHolds(q, db));
    db.ActivateAll();
  }
}

}  // namespace
}  // namespace rescq
