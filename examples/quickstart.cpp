// Quickstart: define a query, load a database, compute resilience.
//
// Reproduces the running example of Section 2 of the paper:
// q_chain :- R(x,y), R(y,z) over D = {R(1,2), R(2,3), R(3,3)}.

#include <cstdio>

#include "cq/parser.h"
#include "db/database.h"
#include "db/witness.h"
#include "resilience/engine.h"
#include "resilience/solver.h"

int main() {
  using namespace rescq;

  // 1. Parse a Boolean conjunctive query. '^x' marks exogenous relations.
  Query q = MustParseQuery("q :- R(x,y), R(y,z)");
  std::printf("query: %s\n", q.ToString().c_str());

  // 2. Build a database instance.
  Database db;
  Value v1 = db.Intern("1"), v2 = db.Intern("2"), v3 = db.Intern("3");
  db.AddTuple("R", {v1, v2});
  db.AddTuple("R", {v2, v3});
  db.AddTuple("R", {v3, v3});

  // 3. Inspect the witnesses (Section 2: three witnesses).
  std::vector<Witness> witnesses = EnumerateWitnesses(q, db, kNoWitnessLimit);
  std::printf("witnesses: %zu\n", witnesses.size());
  for (const Witness& w : witnesses) {
    std::printf("  (");
    for (size_t i = 0; i < w.assignment.size(); ++i) {
      std::printf("%s%s", i ? "," : "", db.ValueName(w.assignment[i]).c_str());
    }
    std::printf(") uses");
    for (TupleId t : w.endo_tuples) {
      std::printf(" %s", db.TupleToString(t).c_str());
    }
    std::printf("\n");
  }

  // 4. Compute the resilience: the minimum number of endogenous tuples
  //    whose deletion makes the query false. The engine plans the query
  //    once (classify, pick the paper's construction) and reuses the
  //    plan for every later Solve of the same query.
  ResilienceEngine engine;
  ResilienceResult r = engine.Solve(q, db).result;
  std::printf("resilience rho(q, D) = %d (solver: %s)\n", r.resilience,
              SolverKindName(r.solver));
  std::printf("a minimum contingency set:\n");
  for (TupleId t : r.contingency) {
    std::printf("  delete %s\n", db.TupleToString(t).c_str());
  }

  // 5. Verify: deleting the contingency set falsifies the query.
  bool broken = VerifyContingency(q, db, r.contingency);
  std::printf("query false after deletion: %s\n", broken ? "yes" : "no");
  return broken ? 0 : 1;
}
