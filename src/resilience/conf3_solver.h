#ifndef RESCQ_RESILIENCE_CONF3_SOLVER_H_
#define RESCQ_RESILIENCE_CONF3_SOLVER_H_

#include <optional>

#include "cq/query.h"
#include "db/database.h"
#include "resilience/result.h"

namespace rescq {

/// Proposition 41 (q^TS_3conf): tuples that form a witness all by
/// themselves (singleton witness tuple-sets) are forced into every
/// contingency set. After deleting them, the remaining problem is solved
/// by the linear-query network flow; the proof's exchange argument shows
/// the flow's min cut is optimal on the residual database. The deletion
/// is never applied to db: the forced tuples reach SolveLinearFlow as its
/// `deleted` set, so concurrent solves over one database are safe.
///
/// The solver is generic "forced tuples + linear flow"; the dispatcher
/// applies it to queries isomorphic to q^TS_3conf. Returns nullopt if q
/// is not linear.
std::optional<ResilienceResult> SolveForcedThenFlow(const Query& q,
                                                    const Database& db);

}  // namespace rescq

#endif  // RESCQ_RESILIENCE_CONF3_SOLVER_H_
