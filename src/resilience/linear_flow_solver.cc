#include "resilience/linear_flow_solver.h"

#include <algorithm>
#include <unordered_map>

#include "complexity/linearity.h"
#include "db/witness.h"
#include "flow/max_flow.h"
#include "util/check.h"

namespace rescq {

std::optional<ResilienceResult> SolveLinearFlow(
    const Query& q, const Database& db,
    const TupleOverride& force_undeletable,
    const std::vector<TupleId>& deleted) {
  std::optional<std::vector<int>> order_opt = FindLinearOrder(q);
  if (!order_opt.has_value()) return std::nullopt;
  const std::vector<int>& order = *order_opt;
  const int m = q.num_atoms();
  std::vector<std::vector<VarId>> interfaces = LinearInterfaces(q, order);

  ResilienceResult result;
  result.solver = SolverKind::kLinearFlow;
  // Edges: per position, row of the position's relation -> edge index
  // (-1 = no edge yet). One edge per (position, tuple), shared across
  // witnesses.
  std::vector<std::vector<int>> edge_of(static_cast<size_t>(m));
  for (int pos = 0; pos < m; ++pos) {
    int rel = db.RelationId(q.atom(order[static_cast<size_t>(pos)]).relation);
    if (rel < 0) return result;  // a missing relation means no witnesses
    edge_of[static_cast<size_t>(pos)].assign(
        static_cast<size_t>(db.NumRows(rel)), -1);
  }
  // Deleted tuples: per relation, a row bitmap (empty = none deleted).
  // A witness using one is already hit, exactly as if the tuple were
  // inactive.
  std::vector<std::vector<bool>> is_deleted(
      static_cast<size_t>(db.num_relations()));
  for (TupleId d : deleted) {
    std::vector<bool>& rows = is_deleted[static_cast<size_t>(d.relation)];
    rows.resize(static_cast<size_t>(db.NumRows(d.relation)));
    rows[static_cast<size_t>(d.row)] = true;
  }
  auto already_hit = [&](const Witness& w) {
    for (TupleId u : w.atom_tuples) {
      const std::vector<bool>& rows =
          is_deleted[static_cast<size_t>(u.relation)];
      if (!rows.empty() && rows[static_cast<size_t>(u.row)]) return true;
    }
    return false;
  };

  MaxFlow flow(2);  // s = 0, t = 1
  const int s = 0;
  const int t = 1;
  // Interface nodes: per boundary, interface values -> node. The key is
  // built only when a new edge needs the node.
  std::vector<std::unordered_map<std::vector<Value>, int, ValuesHash>> nodes(
      static_cast<size_t>(m + 1));
  std::vector<Value> key;
  auto boundary_node = [&](int boundary, const Witness& w) {
    if (boundary == 0) return s;
    if (boundary == m) return t;
    key.clear();
    for (VarId v : interfaces[static_cast<size_t>(boundary - 1)]) {
      key.push_back(w.assignment[static_cast<size_t>(v)]);
    }
    auto& boundary_nodes = nodes[static_cast<size_t>(boundary)];
    auto it = boundary_nodes.find(key);
    if (it != boundary_nodes.end()) return it->second;
    int node = flow.AddNode();
    boundary_nodes.emplace(key, node);
    return node;
  };
  // Edge tag indexes edge_tuples.
  std::vector<TupleId> edge_tuples;
  std::vector<bool> edge_deletable;

  ForEachWitness(q, db, [&](const Witness& w) {
    if (!deleted.empty() && already_hit(w)) return true;
    for (int pos = 0; pos < m; ++pos) {
      int atom_idx = order[static_cast<size_t>(pos)];
      TupleId tuple = w.atom_tuples[static_cast<size_t>(atom_idx)];
      int& edge =
          edge_of[static_cast<size_t>(pos)][static_cast<size_t>(tuple.row)];
      if (edge >= 0) continue;
      int from = boundary_node(pos, w);
      int to = boundary_node(pos + 1, w);
      bool deletable = !q.atom(atom_idx).exogenous &&
                       !(force_undeletable && force_undeletable(db, tuple));
      int64_t cap = deletable ? 1 : kInfCapacity;
      int tag = static_cast<int>(edge_tuples.size());
      edge_tuples.push_back(tuple);
      edge_deletable.push_back(deletable);
      edge = flow.AddEdge(from, to, cap, tag);
    }
    return true;
  });
  if (edge_tuples.empty()) return result;  // no witness left to hit

  int64_t value = flow.Compute(s, t);
  if (value >= kInfCapacity) {
    result.unbreakable = true;
    return result;
  }
  std::vector<TupleId> cut_tuples;
  for (int e : flow.MinCutEdges()) {
    int64_t tag = flow.edge(e).tag;
    RESCQ_CHECK(edge_deletable[static_cast<size_t>(tag)]);
    cut_tuples.push_back(edge_tuples[static_cast<size_t>(tag)]);
  }
  std::sort(cut_tuples.begin(), cut_tuples.end());
  cut_tuples.erase(std::unique(cut_tuples.begin(), cut_tuples.end()),
                   cut_tuples.end());
  // Lemma 55: a (cardinality-)minimal cut never takes two copies of one
  // tuple, so the cut value equals the number of distinct tuples.
  RESCQ_CHECK_EQ(static_cast<int64_t>(cut_tuples.size()), value);
  result.resilience = static_cast<int>(value);
  result.contingency = std::move(cut_tuples);
  return result;
}

}  // namespace rescq
