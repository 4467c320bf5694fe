// Dedicated tests for the linear-query flow solver: agreement with the
// exact oracle across a family of linear queries (sj-free, confluence,
// REP), exogenous handling, and the Lemma 55 no-duplicate-cut property
// that makes the confluence case sound.

#include <gtest/gtest.h>

#include "complexity/catalog.h"
#include "cq/parser.h"
#include "db/witness.h"
#include "resilience/conf3_solver.h"
#include "resilience/exact_solver.h"
#include "resilience/linear_flow_solver.h"
#include "resilience/rep_solver.h"
#include "resilience/solver.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace rescq {
namespace {

Database RandomDatabase(const Query& q, int domain, int tuples, Rng& rng) {
  Database db;
  std::vector<Value> dom;
  for (int i = 0; i < domain; ++i) dom.push_back(db.InternIndexed("c", i));
  for (const std::string& rel : q.RelationNames()) {
    int arity = q.RelationArity(rel);
    for (int t = 0; t < tuples; ++t) {
      std::vector<Value> row;
      for (int c = 0; c < arity; ++c) {
        row.push_back(dom[rng.Below(static_cast<uint64_t>(domain))]);
      }
      db.AddTuple(rel, row);
    }
  }
  return db;
}

// Linear queries the flow solver must handle exactly. Mixed arities,
// exogenous atoms in every position, and the confluence pattern.
const char* const kLinearQueries[] = {
    // sj-free linear chains of various lengths and arities
    "A(x), R(x,y), B(y)",                       //
    "A(x), R(x,y), S(y,z), C(z)",               //
    "A(x), R(x,y), S(y,z), T(z,w), D(w)",       //
    "A(x), W(x,y,z), S(y,z)",                   // ternary middle
    "R(x,y), S(y,z)",                           // no unary anchors
    // exogenous atoms at the ends and in the middle
    "A^x(x), R(x,y), B(y)",                     //
    "A(x), R^x(x,y), B(y)",                     //
    "A(x), R(x,y), S^x(y,z), T(z,w)",           //
    // the confluence family (Propositions 12 and 31)
    "A(x), R(x,y), R(z,y), C(z)",               //
    "A(x), R(x,y), R(z,y)",                     //
    "U(v,x), R(x,y), R(z,y), C(z)",             // binary left anchor
    "A(x), R(x,y), R(z,y), G^x(z,w), C(w)"};    // exo tail

// The REP queries of the Z3 family (Proposition 36).
const char* const kRepQueries[] = {"R(x,x), R(x,y), A(y)",
                                   "B(x), R(x,x), R(x,y), A(y)"};

// The fixed-seed databases LinearFlowAgreement solves for one query.
std::vector<Database> LinearTrialDatabases(const Query& q, const char* text) {
  Rng rng(std::hash<std::string>()(text) ^ 0x11);
  std::vector<Database> dbs;
  for (int trial = 0; trial < 25; ++trial) {
    dbs.push_back(RandomDatabase(q, 3 + static_cast<int>(rng.Below(4)),
                                 4 + static_cast<int>(rng.Below(12)), rng));
  }
  return dbs;
}

// The fixed-seed databases RepOverrideAgreesOnZ3Family solves for one
// query.
std::vector<Database> RepTrialDatabases(const Query& q, const char* text) {
  Rng rng(std::hash<std::string>()(text));
  std::vector<Database> dbs;
  for (int trial = 0; trial < 20; ++trial) {
    dbs.push_back(RandomDatabase(q, 4, 9, rng));
  }
  return dbs;
}

class LinearFlowAgreement : public ::testing::TestWithParam<const char*> {};

TEST_P(LinearFlowAgreement, MatchesExactOracle) {
  Query q = MustParseQuery(GetParam());
  std::vector<Database> dbs = LinearTrialDatabases(q, GetParam());
  for (size_t trial = 0; trial < dbs.size(); ++trial) {
    Database& db = dbs[trial];
    std::optional<ResilienceResult> flow = SolveLinearFlow(q, db);
    ASSERT_TRUE(flow.has_value()) << "query should be linear";
    ResilienceResult exact = ComputeResilienceExact(q, db);
    ASSERT_EQ(flow->unbreakable, exact.unbreakable) << "trial " << trial;
    if (exact.unbreakable) continue;
    EXPECT_EQ(flow->resilience, exact.resilience) << "trial " << trial;
    EXPECT_TRUE(VerifyContingency(q, db, flow->contingency))
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, LinearFlowAgreement, ::testing::ValuesIn(kLinearQueries),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return "q" + std::to_string(info.index);
    });

TEST(LinearFlow, RepOverrideAgreesOnZ3Family) {
  for (const char* text : kRepQueries) {
    Query q = MustParseQuery(text);
    std::vector<Database> dbs = RepTrialDatabases(q, text);
    for (size_t trial = 0; trial < dbs.size(); ++trial) {
      const Database& db = dbs[trial];
      std::optional<ResilienceResult> rep = SolveRepFlow(q, db);
      ASSERT_TRUE(rep.has_value()) << text;
      ResilienceResult exact = ComputeResilienceExact(q, db);
      ASSERT_EQ(rep->unbreakable, exact.unbreakable);
      if (!exact.unbreakable) {
        EXPECT_EQ(rep->resilience, exact.resilience)
            << text << " trial " << trial;
      }
    }
  }
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

// Pins the flow constructions' exact outputs, not just their values:
// every (unbreakable, resilience, contingency) of the fixed-seed
// LinearFlowAgreement and RepOverrideAgreesOnZ3Family trials, folded
// into one digest. The network is built in a deterministic node and
// edge order, so the Dinic cut — and with it the contingency chosen
// among equally small ones — must not move. The constant was recorded
// from the materialising construction the streamed one replaced.
TEST(LinearFlow, OutputsArePinnedByDigest) {
  Fnv1a h;
  for (const char* text : kLinearQueries) {
    Query q = MustParseQuery(text);
    for (const Database& db : LinearTrialDatabases(q, text)) {
      std::optional<ResilienceResult> flow = SolveLinearFlow(q, db);
      ASSERT_TRUE(flow.has_value()) << text;
      MixResult(*flow, &h);
    }
  }
  for (const char* text : kRepQueries) {
    Query q = MustParseQuery(text);
    for (const Database& db : RepTrialDatabases(q, text)) {
      std::optional<ResilienceResult> rep = SolveRepFlow(q, db);
      ASSERT_TRUE(rep.has_value()) << text;
      MixResult(*rep, &h);
    }
  }
  EXPECT_EQ(h.digest(), 0x6b58f5cf1783f1f2ULL);
}

// The same pin for Proposition 41's forced-tuples-then-flow solver on
// fixed-seed q^TS_3conf instances, small enough that singleton witness
// sets (forced tuples) are common.
TEST(LinearFlow, ForcedThenFlowOutputsArePinnedByDigest) {
  Query q = CatalogQuery("q_TS3conf");
  Rng rng(41);
  Fnv1a h;
  for (int trial = 0; trial < 30; ++trial) {
    int domain = 3 + static_cast<int>(rng.Below(3));
    int tuples = 6 + static_cast<int>(rng.Below(10));
    Database db = RandomDatabase(q, domain, tuples, rng);
    std::optional<ResilienceResult> r = SolveForcedThenFlow(q, db);
    ASSERT_TRUE(r.has_value());
    MixResult(*r, &h);
  }
  EXPECT_EQ(h.digest(), 0x3b501a4082062bddULL);
}

TEST(LinearFlow, CutNeverContainsExogenousTuples) {
  Query q = MustParseQuery("A(x), R^x(x,y), B(y)");
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    Database db = RandomDatabase(q, 4, 8, rng);
    std::optional<ResilienceResult> r = SolveLinearFlow(q, db);
    ASSERT_TRUE(r.has_value());
    if (r->unbreakable) continue;
    int r_rel = db.RelationId("R");
    for (TupleId t : r->contingency) EXPECT_NE(t.relation, r_rel);
  }
}

TEST(LinearFlow, SharedMiddleValueForcesBottleneckCut) {
  // All chains pass through R(m, m'); the min cut is that single tuple.
  Database db;
  Value m = db.Intern("m"), m2 = db.Intern("m'");
  for (int i = 0; i < 4; ++i) {
    db.AddTuple("A", {db.InternIndexed("a", i)});
    db.AddTuple("L", {db.InternIndexed("a", i), m});
    db.AddTuple("B", {db.InternIndexed("b", i)});
    db.AddTuple("T", {m2, db.InternIndexed("b", i)});
  }
  TupleId mid = db.AddTuple("R", {m, m2});
  Query q = MustParseQuery("A(x), L(x,u), R(u,v), T(v,y), B(y)");
  std::optional<ResilienceResult> r = SolveLinearFlow(q, db);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->resilience, 1);
  EXPECT_EQ(r->contingency, (std::vector<TupleId>{mid}));
}

TEST(LinearFlow, DispatchedSolverHandlesLargeInstancesFast) {
  // 2000 tuples per relation: far beyond the exact oracle's comfort zone.
  Query q = MustParseQuery("A(x), R(x,y), R(z,y), C(z)");
  Rng rng(1234);
  Database db = RandomDatabase(q, 60, 2000, rng);
  ResilienceResult r = ComputeResilience(q, db);
  EXPECT_FALSE(r.unbreakable);
  EXPECT_TRUE(VerifyContingency(q, db, r.contingency));
  EXPECT_EQ(SolverKindName(r.solver),
            SolverKindName(SolverKind::kLinearFlow));
}

}  // namespace
}  // namespace rescq
