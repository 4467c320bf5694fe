#include <gtest/gtest.h>

#include "complexity/catalog.h"
#include "cq/parser.h"
#include "db/database.h"
#include "db/witness.h"
#include "resilience/engine.h"
#include "resilience/exact_solver.h"
#include "resilience/linear_flow_solver.h"
#include "resilience/perm3_solver.h"
#include "resilience/perm_solver.h"
#include "resilience/solver.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace rescq {
namespace {

// Fills db with `tuples_per_relation` random tuples per query relation
// over a domain of `domain` constants.
Database RandomDatabase(const Query& q, int domain, int tuples_per_relation,
                        Rng& rng) {
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

// --- Property sweep: dispatcher agrees with the exact oracle on every
// --- PTIME query of the paper, over many random databases.

class PTimeSolverAgreement : public ::testing::TestWithParam<CatalogEntry> {};

TEST_P(PTimeSolverAgreement, MatchesExactOracleOnRandomDatabases) {
  ResilienceEngine engine;
  const CatalogEntry& entry = GetParam();
  Query q = MustParseQuery(entry.text);
  Rng rng(0xC0FFEE ^ std::hash<std::string>()(entry.name));
  for (int trial = 0; trial < 30; ++trial) {
    int domain = 3 + static_cast<int>(rng.Below(4));
    int tuples = 4 + static_cast<int>(rng.Below(10));
    Database db = RandomDatabase(q, domain, tuples, rng);
    ResilienceResult fast = engine.Solve(q, db).result;
    ResilienceResult exact = ComputeResilienceExact(q, db);
    ASSERT_EQ(fast.unbreakable, exact.unbreakable)
        << entry.name << " trial " << trial;
    if (exact.unbreakable) continue;
    EXPECT_EQ(fast.resilience, exact.resilience)
        << entry.name << " trial " << trial << " solver "
        << SolverKindName(fast.solver);
    EXPECT_EQ(static_cast<int>(fast.contingency.size()), fast.resilience);
    EXPECT_TRUE(VerifyContingency(q, db, fast.contingency))
        << entry.name << " trial " << trial;
  }
}

std::vector<CatalogEntry> PTimeEntries() {
  std::vector<CatalogEntry> out;
  for (const CatalogEntry& e : PaperCatalog()) {
    if (e.expected == Complexity::kPTime) out.push_back(e);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Paper, PTimeSolverAgreement, ::testing::ValuesIn(PTimeEntries()),
    [](const ::testing::TestParamInfo<CatalogEntry>& info) {
      return info.param.name;
    });

// --- Hard queries still get correct answers through the exact solver ---------

class HardSolverAgreement : public ::testing::TestWithParam<CatalogEntry> {};

TEST_P(HardSolverAgreement, ExactPathIsUsedAndVerifies) {
  ResilienceEngine engine;
  const CatalogEntry& entry = GetParam();
  Query q = MustParseQuery(entry.text);
  Rng rng(0xBEEF ^ std::hash<std::string>()(entry.name));
  for (int trial = 0; trial < 8; ++trial) {
    Database db = RandomDatabase(q, 4, 8, rng);
    ResilienceResult r = engine.Solve(q, db).result;
    if (r.unbreakable) continue;
    EXPECT_TRUE(VerifyContingency(q, db, r.contingency))
        << entry.name << " trial " << trial;
    EXPECT_EQ(ComputeResilienceExact(q, db).resilience, r.resilience);
  }
}

std::vector<CatalogEntry> SomeHardEntries() {
  // A representative sample (the full NPC set would be slow under the
  // exact oracle on every trial).
  std::vector<CatalogEntry> out;
  for (const char* name : {"q_vc", "q_chain", "q_ABperm", "q_triangle",
                           "cf_p", "q_3chain", "z5"}) {
    out.push_back(*FindCatalogEntry(name));
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Paper, HardSolverAgreement, ::testing::ValuesIn(SomeHardEntries()),
    [](const ::testing::TestParamInfo<CatalogEntry>& info) {
      return info.param.name;
    });

// --- Dispatcher picks the published algorithm ---------------------------------

struct KindCase {
  const char* query_name;
  SolverKind kind;
};

class DispatcherKind : public ::testing::TestWithParam<KindCase> {};

TEST_P(DispatcherKind, UsesExpectedAlgorithm) {
  ResilienceEngine engine;
  const KindCase& kc = GetParam();
  Query q = CatalogQuery(kc.query_name);
  Rng rng(17);
  // Retry until a satisfying database is found so the solver actually runs.
  for (int trial = 0; trial < 50; ++trial) {
    Database db = RandomDatabase(q, 4, 12, rng);
    if (!QueryHolds(q, db)) continue;
    ResilienceResult r = engine.Solve(q, db).result;
    if (r.unbreakable || r.resilience == 0) continue;
    EXPECT_EQ(SolverKindName(r.solver), SolverKindName(kc.kind))
        << kc.query_name;
    return;
  }
  GTEST_SKIP() << "no satisfying database generated";
}

INSTANTIATE_TEST_SUITE_P(
    Paper, DispatcherKind,
    ::testing::Values(KindCase{"q_lin", SolverKind::kLinearFlow},
                      KindCase{"q_ACconf", SolverKind::kLinearFlow},
                      KindCase{"q_perm", SolverKind::kPermCount},
                      KindCase{"q_Aperm", SolverKind::kPermBipartite},
                      KindCase{"z3", SolverKind::kRepFlow},
                      KindCase{"q_TS3conf", SolverKind::kConf3Forced},
                      KindCase{"q_A3perm_R", SolverKind::kPerm3Flow},
                      KindCase{"q_Swx3perm_R", SolverKind::kPerm3Flow},
                      KindCase{"q_chain", SolverKind::kExact}),
    [](const ::testing::TestParamInfo<KindCase>& info) {
      return info.param.query_name;
    });

// --- Hand-built scenarios ------------------------------------------------------

TEST(LinearFlow, SimpleLinearChainOfRelations) {
  // A(x), R(x,y), B(y): two witnesses sharing A(a) -> delete A(a).
  Database db;
  Value a = db.Intern("a"), b1 = db.Intern("b1"), b2 = db.Intern("b2");
  TupleId ta = db.AddTuple("A", {a});
  db.AddTuple("R", {a, b1});
  db.AddTuple("R", {a, b2});
  db.AddTuple("B", {b1});
  db.AddTuple("B", {b2});
  Query q = MustParseQuery("A(x), R(x,y), B(y)");
  std::optional<ResilienceResult> r = SolveLinearFlow(q, db);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->resilience, 1);
  EXPECT_EQ(r->contingency, (std::vector<TupleId>{ta}));
}

TEST(LinearFlow, ExogenousTuplesNeverChosen) {
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b");
  db.AddTuple("A", {a});
  db.AddTuple("R", {a, b});
  db.AddTuple("B", {b});
  Query q = MustParseQuery("A^x(x), R(x,y), B^x(y)");
  std::optional<ResilienceResult> r = SolveLinearFlow(q, db);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->resilience, 1);
  EXPECT_EQ(db.TupleToString(r->contingency[0]), "R(a,b)");
}

TEST(LinearFlow, UnbreakableAllExogenous) {
  Database db;
  db.AddTuple("R", {db.Intern("a"), db.Intern("b")});
  Query q = MustParseQuery("R^x(x,y)");
  std::optional<ResilienceResult> r = SolveLinearFlow(q, db);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->unbreakable);
}

TEST(LinearFlow, NotLinearReturnsNullopt) {
  Database db;
  Query q = MustParseQuery("R(x,y), S(y,z), T(z,x)");
  EXPECT_FALSE(SolveLinearFlow(q, db).has_value());
}

TEST(LinearFlow, ConfluenceSharedTupleCountedOnce) {
  // q_ACconf over a database where one R tuple serves both R positions:
  // A(a), R(a,b), C(a): witness (a,b,a) uses R(a,b) twice.
  Database db;
  Value a = db.Intern("a"), b = db.Intern("b");
  db.AddTuple("A", {a});
  db.AddTuple("R", {a, b});
  db.AddTuple("C", {a});
  Query q = CatalogQuery("q_ACconf");
  std::optional<ResilienceResult> r = SolveLinearFlow(q, db);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->resilience, 1);
}

TEST(PermSolvers, CountOnPairsAndLoops) {
  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("R", {v("a"), v("b")});
  db.AddTuple("R", {v("b"), v("a")});
  db.AddTuple("R", {v("c"), v("c")});  // loop: witness by itself
  db.AddTuple("R", {v("d"), v("e")});  // no inverse: no witness
  Query q = CatalogQuery("q_perm");
  std::optional<ResilienceResult> r = SolvePermutationCount(q, db);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->resilience, 2);
}

TEST(PermSolvers, BipartiteSharedATuple) {
  // A(a) joins two pairs; deleting A(a) is optimal.
  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("A", {v("a")});
  db.AddTuple("R", {v("a"), v("b")});
  db.AddTuple("R", {v("b"), v("a")});
  db.AddTuple("R", {v("a"), v("c")});
  db.AddTuple("R", {v("c"), v("a")});
  Query q = CatalogQuery("q_Aperm");
  std::optional<ResilienceResult> r = SolvePermutationBipartite(q, db);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->resilience, 1);
  EXPECT_EQ(db.TupleToString(r->contingency[0]), "A(a)");

  std::optional<ResilienceResult> f = SolveUnboundPermutationFlow(q, db);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->resilience, 1);
}

TEST(PermSolvers, SharedRPairBeatsTwoATuples) {
  // A(a), A(b) each witness only via pair {a,b}: deleting one R tuple of
  // the pair kills both witnesses.
  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("A", {v("a")});
  db.AddTuple("A", {v("b")});
  db.AddTuple("R", {v("a"), v("b")});
  db.AddTuple("R", {v("b"), v("a")});
  Query q = CatalogQuery("q_Aperm");
  std::optional<ResilienceResult> r = SolvePermutationBipartite(q, db);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->resilience, 1);
  EXPECT_EQ(db.TupleToString(r->contingency[0]).substr(0, 1), "R");
}

// Folds (unbreakable, resilience, contingency) into an FNV-1a digest.
void MixResult(const ResilienceResult& r, Fnv1a* h) {
  h->MixByte(r.unbreakable ? 1 : 0);
  h->MixU32(static_cast<uint32_t>(r.resilience));
  h->MixU32(static_cast<uint32_t>(r.contingency.size()));
  for (TupleId t : r.contingency) {
    h->MixU32(static_cast<uint32_t>(t.relation));
    h->MixU32(static_cast<uint32_t>(t.row));
  }
}

// Pins both perm builders' exact outputs on fixed-seed perm_bipartite
// instances, and the counting solver's on fixed-seed perm instances:
// every (unbreakable, resilience, contingency) folded into one digest.
// Each network is built in a deterministic node and edge order, so the
// cover or cut chosen among equally small ones must not move. The
// constant was recorded from the materialising constructions the
// streamed ones replaced.
TEST(PermSolvers, OutputsArePinnedByDigest) {
  const Scenario* bipartite = FindScenario("perm_bipartite");
  const Scenario* perm = FindScenario("perm");
  ASSERT_NE(bipartite, nullptr);
  ASSERT_NE(perm, nullptr);
  Query q_aperm = MustParseQuery(bipartite->query);
  Query q_perm = MustParseQuery(perm->query);
  Fnv1a h;
  for (int size : {8, 40, 200}) {
    for (double density : {0.3, 0.7}) {
      for (uint64_t seed : {1, 2, 3}) {
        ScenarioParams params{size, density, seed};
        Database db = bipartite->generate(params);
        std::optional<ResilienceResult> cover =
            SolvePermutationBipartite(q_aperm, db);
        std::optional<ResilienceResult> flow =
            SolveUnboundPermutationFlow(q_aperm, db);
        ASSERT_TRUE(cover.has_value() && flow.has_value());
        EXPECT_EQ(cover->resilience, flow->resilience)
            << "size " << size << " seed " << seed;
        MixResult(*cover, &h);
        MixResult(*flow, &h);
        std::optional<ResilienceResult> count =
            SolvePermutationCount(q_perm, perm->generate(params));
        ASSERT_TRUE(count.has_value());
        MixResult(*count, &h);
      }
    }
  }
  EXPECT_EQ(h.digest(), 0x469d647fcd5565b1ULL);
}

TEST(Perm3, OneWayTuplesAreDominatedByUnaryL) {
  // Proposition 13 graph: with A(x), a 1-way connector is never chosen.
  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("A", {v("a")});
  db.AddTuple("R", {v("a"), v("b")});  // 1-way connector
  db.AddTuple("R", {v("b"), v("c")});
  db.AddTuple("R", {v("c"), v("b")});  // pair {b,c}
  Query q = CatalogQuery("q_A3perm_R");
  std::optional<ResilienceResult> r = SolvePerm3Flow(q, db);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->resilience, 1);
  // Either A(a) or one pair tuple; never the 1-way R(a,b).
  EXPECT_NE(db.TupleToString(r->contingency[0]), "R(a,b)");
}

TEST(Perm3, LoopPairs) {
  // Witness A(a),R(a,a): loop pair {a,a}.
  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("A", {v("a")});
  db.AddTuple("R", {v("a"), v("a")});
  Query q = CatalogQuery("q_A3perm_R");
  std::optional<ResilienceResult> r = SolvePerm3Flow(q, db);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->resilience, 1);
}

TEST(Perm3, BinaryLMayPreferOneWayTuple) {
  // Prop 44: with many S(e,a) behind one 1-way R(a,b), deleting R(a,b)
  // (1 tuple) beats deleting all S tuples.
  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  for (int e = 0; e < 3; ++e) {
    db.AddTuple("S", {db.InternIndexed("e", e), v("a")});
  }
  db.AddTuple("R", {v("a"), v("b")});  // 1-way
  db.AddTuple("R", {v("b"), v("c")});
  db.AddTuple("R", {v("c"), v("b")});
  Query q = CatalogQuery("q_Swx3perm_R");
  std::optional<ResilienceResult> r = SolvePerm3Flow(q, db);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->resilience, 1);
}

TEST(Dispatcher, DisconnectedQueryTakesMinimumOverComponents) {
  ResilienceEngine engine;
  // Component 1: A(x),R(x,y) with 3 witnesses; component 2: B(w) with 1
  // tuple. Minimum is the B side.
  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("A", {v("a1")});
  db.AddTuple("A", {v("a2")});
  db.AddTuple("R", {v("a1"), v("b")});
  db.AddTuple("R", {v("a2"), v("b")});
  TupleId bw = db.AddTuple("B", {v("w")});
  Query q = MustParseQuery("A(x), R(x,y), B(w)");
  ResilienceResult r = engine.Solve(q, db).result;
  EXPECT_EQ(r.resilience, 1);
  EXPECT_EQ(r.contingency, (std::vector<TupleId>{bw}));
}

TEST(Dispatcher, QueryFalseIsZero) {
  ResilienceEngine engine;
  Database db;
  db.AddTuple("R", {db.Intern("a"), db.Intern("b")});
  Query q = MustParseQuery("R(x,y), R(y,z)");
  ResilienceResult r = engine.Solve(q, db).result;
  EXPECT_EQ(r.resilience, 0);
  EXPECT_FALSE(r.unbreakable);
}

TEST(Dispatcher, Example11EndToEnd) {
  ResilienceEngine engine;
  // The Section 3.2 example through the dispatcher (exact path: the query
  // has a triad).
  Database db;
  auto v = [&](const char* s) { return db.Intern(s); };
  db.AddTuple("A", {v("1")});
  db.AddTuple("A", {v("5")});
  db.AddTuple("R", {v("1"), v("2")});
  db.AddTuple("R", {v("2"), v("3")});
  db.AddTuple("R", {v("3"), v("1")});
  db.AddTuple("R", {v("5"), v("1")});
  db.AddTuple("R", {v("2"), v("5")});
  Query q = MustParseQuery("A(x), R(x,y), R(y,z), R(z,x)");
  ResilienceResult r = engine.Solve(q, db).result;
  EXPECT_EQ(r.resilience, 1);
  EXPECT_EQ(SolverKindName(r.solver), SolverKindName(SolverKind::kExact));
}

TEST(Dispatcher, DominationNormalizationPreservesValue) {
  ResilienceEngine engine;
  // Example 17 q2: A dominates R and S; answers must match the exact
  // solver on the raw query.
  Query q = MustParseQuery("R(x,y), A(y), R(z,y), S(y,z)");
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    Database db = RandomDatabase(q, 4, 8, rng);
    ResilienceResult fast = engine.Solve(q, db).result;
    ResilienceResult exact = ComputeResilienceExact(q, db);
    ASSERT_EQ(fast.unbreakable, exact.unbreakable);
    if (!exact.unbreakable) {
      EXPECT_EQ(fast.resilience, exact.resilience) << "trial " << trial;
    }
  }
}

TEST(Dispatcher, MinimizationPreservesValue) {
  ResilienceEngine engine;
  // Example 22's non-minimal query is equivalent to R(x,y).
  Query q = MustParseQuery("R(x,y), R(z,y), R(z,w), R(x,w)");
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    Database db = RandomDatabase(q, 4, 6, rng);
    ResilienceResult fast = engine.Solve(q, db).result;
    ResilienceResult exact = ComputeResilienceExact(q, db);
    EXPECT_EQ(fast.resilience, exact.resilience) << "trial " << trial;
  }
}

TEST(VerifyContingency, RestoresDatabaseWithDuplicateTupleIds) {
  // Regression: with a duplicate id the second occurrence records the
  // tuple as already-inactive; a forward-order restore would apply that
  // state last and leave the tuple deactivated after the call.
  Query q = MustParseQuery("R(x,y)");
  Database db;
  TupleId t = db.AddTuple("R", {db.Intern("a"), db.Intern("b")});
  TupleId u = db.AddTuple("R", {db.Intern("c"), db.Intern("d")});
  std::vector<TupleId> duplicated = {t, t, u, t};
  EXPECT_TRUE(VerifyContingency(q, db, duplicated));
  EXPECT_TRUE(db.IsActive(t));
  EXPECT_TRUE(db.IsActive(u));
  EXPECT_EQ(db.NumActiveTuples(), 2);
}

TEST(Dispatcher, PseudoLinearSjFreeFallsBackExactly) {
  ResilienceEngine engine;
  // q_rats is PTIME but cyclic in the hypergraph (not linear), so the
  // dispatcher falls back to the exact solver with the fallback label.
  Query q = CatalogQuery("q_rats");
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    Database db = RandomDatabase(q, 4, 10, rng);
    if (!QueryHolds(q, db)) continue;
    ResilienceResult r = engine.Solve(q, db).result;
    if (r.unbreakable || r.resilience == 0) continue;
    EXPECT_EQ(SolverKindName(r.solver),
              SolverKindName(SolverKind::kExactFallback));
    return;
  }
  GTEST_SKIP() << "no satisfying database generated";
}

}  // namespace
}  // namespace rescq
