#include "resilience/perm_solver.h"

#include <algorithm>
#include <string>

#include "complexity/patterns.h"
#include "db/witness.h"
#include "flow/bipartite.h"
#include "flow/max_flow.h"
#include "util/check.h"

namespace rescq {

namespace {

// Shape of an unbound-permutation query: the permutation pair plus at
// most one further endogenous atom L containing exactly one of the pair's
// variables.
struct PermShape {
  int a1 = -1;
  int a2 = -1;
  int l_atom = -1;  // -1 if the pair are the only endogenous atoms
};

std::optional<PermShape> MatchPermShape(const Query& q) {
  std::vector<int> endo = q.EndogenousAtoms();
  PermShape shape;
  // Find the permutation pair.
  for (size_t i = 0; i < endo.size() && shape.a1 < 0; ++i) {
    for (size_t j = i + 1; j < endo.size() && shape.a1 < 0; ++j) {
      const Atom& p = q.atom(endo[i]);
      const Atom& r = q.atom(endo[j]);
      if (p.relation != r.relation || p.arity() != 2 || r.arity() != 2) {
        continue;
      }
      if (ClassifyPair(q, endo[i], endo[j]) == PairPattern::kPermutation) {
        shape.a1 = endo[i];
        shape.a2 = endo[j];
      }
    }
  }
  if (shape.a1 < 0) return std::nullopt;
  VarId x = q.atom(shape.a1).vars[0];
  VarId y = q.atom(shape.a1).vars[1];
  for (int i : endo) {
    if (i == shape.a1 || i == shape.a2) continue;
    if (shape.l_atom != -1) return std::nullopt;  // more than one extra atom
    const Atom& a = q.atom(i);
    bool has_x = a.HasVar(x);
    bool has_y = a.HasVar(y);
    if (has_x == has_y) return std::nullopt;  // both or neither: not case 1
    shape.l_atom = i;
  }
  return shape;
}

// The pair of a witness under a shape is the (deduplicated) tuples
// matched by the two permutation atoms R(x,y), R(y,x): either tuple
// determines the other (its reverse), so the pair is identified by its
// smaller tuple, a row of R.
TupleId PairFront(const Witness& w, const PermShape& shape) {
  return std::min(w.atom_tuples[static_cast<size_t>(shape.a1)],
                  w.atom_tuples[static_cast<size_t>(shape.a2)]);
}

// Dense ids over the tuples of one relation, assigned in
// first-appearance order: the streamed builders' map from a tuple (an L
// tuple, or a pair by its front) to its vertex.
class TupleIds {
 public:
  TupleIds(const Database& db, const std::string& relation) {
    int rel = db.RelationId(relation);
    if (rel >= 0) ids_.assign(static_cast<size_t>(db.NumRows(rel)), -1);
  }

  /// The tuple's id; a new tuple gets the next id (and sets *inserted).
  int Intern(TupleId t, bool* inserted = nullptr) {
    int& id = ids_[static_cast<size_t>(t.row)];
    bool fresh = id < 0;
    if (fresh) {
      id = static_cast<int>(tuples_.size());
      tuples_.push_back(t);
    }
    if (inserted != nullptr) *inserted = fresh;
    return id;
  }

  /// Tuples by id.
  const std::vector<TupleId>& tuples() const { return tuples_; }

 private:
  std::vector<int> ids_;  // per row of the relation, -1 = not seen yet
  std::vector<TupleId> tuples_;
};

}  // namespace

std::optional<ResilienceResult> SolvePermutationCount(const Query& q,
                                                      const Database& db) {
  std::optional<PermShape> shape = MatchPermShape(q);
  if (!shape.has_value() || shape->l_atom != -1) return std::nullopt;
  ResilienceResult result;
  result.solver = SolverKind::kPermCount;
  WitnessFamily family = CollectWitnessFamily(q, db, kNoWitnessLimit);
  // Both pair atoms are endogenous: no witness has an empty set.
  RESCQ_CHECK(!family.unbreakable);
  // Each tuple participates in exactly one witness tuple-set: the sets are
  // pairwise disjoint, so the minimum hitting set takes one per set.
  result.resilience = static_cast<int>(family.size());
  for (size_t i = 0; i < family.size(); ++i) {
    result.contingency.push_back(*family.begin(i));
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  return result;
}

std::optional<ResilienceResult> SolvePermutationBipartite(
    const Query& q, const Database& db) {
  std::optional<PermShape> shape = MatchPermShape(q);
  if (!shape.has_value() || shape->l_atom == -1) return std::nullopt;
  ResilienceResult result;
  result.solver = SolverKind::kPermBipartite;

  // Left: L-tuples; right: pair tuple-sets. One bipartite edge per
  // witness. Deleting the L-tuple or either tuple of the pair kills the
  // witness, so a vertex cover = a contingency set.
  TupleIds lefts(db, q.atom(shape->l_atom).relation);
  TupleIds rights(db, q.atom(shape->a1).relation);  // pairs by front
  std::vector<std::pair<int, int>> bip_edges;
  ForEachWitness(q, db, [&](const Witness& w) {
    int left = lefts.Intern(w.atom_tuples[static_cast<size_t>(shape->l_atom)]);
    int right = rights.Intern(PairFront(w, *shape));
    bip_edges.emplace_back(left, right);
    return true;
  });
  if (bip_edges.empty()) return result;

  BipartiteCover cover(static_cast<int>(lefts.tuples().size()),
                       static_cast<int>(rights.tuples().size()));
  std::sort(bip_edges.begin(), bip_edges.end());
  bip_edges.erase(std::unique(bip_edges.begin(), bip_edges.end()),
                  bip_edges.end());
  for (auto [l, r] : bip_edges) cover.AddEdge(l, r);
  cover.Compute();
  result.resilience = cover.CoverSize();
  for (size_t i = 0; i < lefts.tuples().size(); ++i) {
    if (cover.left_in_cover()[i]) {
      result.contingency.push_back(lefts.tuples()[i]);
    }
  }
  for (size_t i = 0; i < rights.tuples().size(); ++i) {
    if (cover.right_in_cover()[i]) {
      result.contingency.push_back(rights.tuples()[i]);
    }
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  return result;
}

std::optional<ResilienceResult> SolveUnboundPermutationFlow(
    const Query& q, const Database& db) {
  std::optional<PermShape> shape = MatchPermShape(q);
  if (!shape.has_value() || shape->l_atom == -1) return std::nullopt;
  ResilienceResult result;
  result.solver = SolverKind::kUnboundPermFlow;

  MaxFlow flow(2);
  const int s = 0;
  const int t = 1;
  // Edge tags: an L id, or kPairTagBase + a pair id.
  TupleIds l_ids(db, q.atom(shape->l_atom).relation);
  std::vector<int> l_nodes;  // L id -> node
  TupleIds pair_ids(db, q.atom(shape->a1).relation);  // pairs by front
  std::vector<int> pair_nodes;  // pair id -> node
  constexpr int64_t kPairTagBase = 1'000'000'000;

  ForEachWitness(q, db, [&](const Witness& w) {
    bool inserted = false;
    int l_id = l_ids.Intern(
        w.atom_tuples[static_cast<size_t>(shape->l_atom)], &inserted);
    if (inserted) {
      l_nodes.push_back(flow.AddNode());
      flow.AddEdge(s, l_nodes.back(), 1, l_id);
    }
    int pair_id = pair_ids.Intern(PairFront(w, *shape), &inserted);
    if (inserted) {
      pair_nodes.push_back(flow.AddNode());
      flow.AddEdge(pair_nodes.back(), t, 1, kPairTagBase + pair_id);
    }
    flow.AddEdge(l_nodes[static_cast<size_t>(l_id)],
                 pair_nodes[static_cast<size_t>(pair_id)], kInfCapacity);
    return true;
  });
  if (l_nodes.empty()) return result;

  int64_t value = flow.Compute(s, t);
  RESCQ_CHECK_LT(value, kInfCapacity);
  for (int e : flow.MinCutEdges()) {
    int64_t tag = flow.edge(e).tag;
    if (tag >= kPairTagBase) {
      result.contingency.push_back(
          pair_ids.tuples()[static_cast<size_t>(tag - kPairTagBase)]);
    } else {
      result.contingency.push_back(l_ids.tuples()[static_cast<size_t>(tag)]);
    }
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  result.contingency.erase(
      std::unique(result.contingency.begin(), result.contingency.end()),
      result.contingency.end());
  result.resilience = static_cast<int>(value);
  RESCQ_CHECK_EQ(result.resilience,
                 static_cast<int>(result.contingency.size()));
  return result;
}

}  // namespace rescq
