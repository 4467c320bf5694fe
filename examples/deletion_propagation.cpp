// deletion_propagation: resilience as deletion propagation with
// source-side effects (Section 1 of the paper).
//
// Scenario: a small who-follows-whom network and a moderation view
//   alert() :- Follows(x,y), Follows(y,z), Blocked^x(z)
// ("somebody reaches a blocked account in two hops"). The view is
// Boolean; the moderation team wants the *minimum* number of follow
// edges to remove so the alert disappears — exactly the resilience of
// the query, i.e. deletion propagation with minimal source side-effects.

#include <cstdio>

#include "complexity/classifier.h"
#include "cq/parser.h"
#include "db/database.h"
#include "db/witness.h"
#include "resilience/engine.h"
#include "resilience/solver.h"

int main() {
  using namespace rescq;

  Query alert = MustParseQuery(
      "alert :- Follows(x,y), Follows(y,z), Blocked^x(z)");

  Database db;
  auto user = [&](const char* name) { return db.Intern(name); };
  const char* follows[][2] = {
      {"ana", "bob"},  {"bob", "eve"},  {"cat", "bob"},  {"dan", "cat"},
      {"eve", "mal"},  {"ana", "cat"},  {"cat", "eve"},  {"dan", "eve"},
      {"eve", "spam"}, {"bob", "dan"},
  };
  for (auto [a, b] : follows) db.AddTuple("Follows", {user(a), user(b)});
  db.AddTuple("Blocked", {user("mal")});
  db.AddTuple("Blocked", {user("spam")});

  std::printf("view: %s\n", alert.ToString().c_str());
  std::vector<Witness> ws = EnumerateWitnesses(alert, db, kNoWitnessLimit);
  std::printf("the alert currently fires via %zu witnesses:\n", ws.size());
  for (const Witness& w : ws) {
    std::printf("  %s -> %s -> %s\n",
                db.ValueName(w.assignment[0]).c_str(),
                db.ValueName(w.assignment[1]).c_str(),
                db.ValueName(w.assignment[2]).c_str());
  }

  // The complexity side: this is a chain self-join on Follows — the
  // dichotomy says the minimization problem is NP-complete in general.
  Classification c = ClassifyResilience(alert);
  std::printf("\ndichotomy verdict: RES(alert) is %s (%s)\n",
              ComplexityName(c.complexity), c.pattern.c_str());

  // The data side: this instance is small, so the exact solver answers.
  ResilienceEngine engine;
  ResilienceResult r = engine.Solve(alert, db).result;
  std::printf("minimum source side-effect: remove %d follow edge(s):\n",
              r.resilience);
  for (TupleId t : r.contingency) {
    std::printf("  %s\n", db.TupleToString(t).c_str());
  }
  bool ok = VerifyContingency(alert, db, r.contingency);
  std::printf("alert silenced: %s\n", ok ? "yes" : "no");
  return ok ? 0 : 1;
}
