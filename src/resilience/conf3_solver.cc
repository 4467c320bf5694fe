#include "resilience/conf3_solver.h"

#include <algorithm>

#include "db/witness.h"
#include "resilience/linear_flow_solver.h"
#include "util/check.h"

namespace rescq {

std::optional<ResilienceResult> SolveForcedThenFlow(const Query& q,
                                                    const Database& db) {
  ResilienceResult result;
  result.solver = SolverKind::kConf3Forced;

  WitnessFamily family = CollectWitnessFamily(q, db, kNoWitnessLimit);
  if (family.unbreakable) {
    result.unbreakable = true;
    return result;
  }
  if (family.sets.empty()) return result;
  // Singleton sets, in the family's lexicographic order: sorted, and
  // distinct because the family is deduplicated.
  std::vector<TupleId> forced;
  for (size_t i = 0; i < family.size(); ++i) {
    if (family.sets[i].len == 1) forced.push_back(*family.begin(i));
  }

  // Flow on the witnesses the forced tuples do not already hit.
  std::optional<ResilienceResult> flow =
      SolveLinearFlow(q, db, nullptr, forced);
  if (!flow.has_value()) return std::nullopt;
  RESCQ_CHECK(!flow->unbreakable);

  result.resilience = static_cast<int>(forced.size()) + flow->resilience;
  result.contingency = std::move(forced);
  result.contingency.insert(result.contingency.end(),
                            flow->contingency.begin(),
                            flow->contingency.end());
  std::sort(result.contingency.begin(), result.contingency.end());
  return result;
}

}  // namespace rescq
