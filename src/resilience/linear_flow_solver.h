#ifndef RESCQ_RESILIENCE_LINEAR_FLOW_SOLVER_H_
#define RESCQ_RESILIENCE_LINEAR_FLOW_SOLVER_H_

#include <functional>
#include <optional>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "resilience/result.h"

namespace rescq {

/// Treats selected tuples as undeletable in the flow network even though
/// their atoms are endogenous (used by the REP solver, which proves
/// non-loop R-tuples are never needed in a minimum contingency set).
using TupleOverride = std::function<bool(const Database&, TupleId)>;

/// Computes resilience for a *linear* query by reduction to network flow
/// ([31]; Proposition 31 for the confluence case):
///
///  - arrange the atoms in a linear order; between consecutive atoms the
///    shared variables form an "interface";
///  - each witness becomes an s-t path whose i-th edge is the tuple
///    matched by the i-th atom, connecting interface-value nodes;
///  - endogenous tuples get capacity 1 (one edge per (position, tuple),
///    shared across witnesses), exogenous (or overridden) tuples get ∞;
///  - a minimum cut is a minimum contingency set.
///
/// With a self-join, one tuple may appear at several positions (the
/// paper's duplicated R_l/R_r edges); Lemma 55 shows a minimal cut never
/// takes two copies of one tuple, and cardinality-minimal cuts are
/// inclusion-minimal, so the cut maps 1:1 onto tuples. This holds for
/// confluences and REP queries, but NOT for permutations — exactly the
/// paper's point in Section 7.3 — so callers must not use this solver on
/// permutation self-joins.
///
/// The network is built while witnesses stream out of ForEachWitness
/// (db/witness.h); no witness list is materialized. Nodes and edges are
/// created in first-appearance order over the deterministic enumeration,
/// so the Dinic cut, and with it the contingency returned, depends only
/// on (q, db). The database is only read, so concurrent calls over one
/// database are safe.
///
/// `deleted` lists tuples already in the contingency set (any order; the
/// result does not include them): every witness using one of them, in
/// any atom, is already hit and adds nothing to the network. The result
/// is the one the solver would return on db with those tuples
/// deactivated — the surviving witnesses stream out in the same order —
/// without mutating db. Proposition 41's forced tuples arrive this way.
///
/// Returns nullopt if q is not linear.
std::optional<ResilienceResult> SolveLinearFlow(
    const Query& q, const Database& db,
    const TupleOverride& force_undeletable = nullptr,
    const std::vector<TupleId>& deleted = {});

}  // namespace rescq

#endif  // RESCQ_RESILIENCE_LINEAR_FLOW_SOLVER_H_
