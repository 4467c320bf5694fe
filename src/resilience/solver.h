#ifndef RESCQ_RESILIENCE_SOLVER_H_
#define RESCQ_RESILIENCE_SOLVER_H_

#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "resilience/result.h"

namespace rescq {

/// True if deactivating `tuples` makes q false over db (db is restored
/// before returning).
bool VerifyContingency(const Query& q, Database& db,
                       const std::vector<TupleId>& tuples);

}  // namespace rescq

#endif  // RESCQ_RESILIENCE_SOLVER_H_
