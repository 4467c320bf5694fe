#include "resilience/exact_solver.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/disjoint_set.h"
#include "util/parallel.h"

namespace rescq {

void ExactStats::Merge(const ExactStats& other) {
  witnesses += other.witnesses;
  witness_sets += other.witness_sets;
  components += other.components;
  nodes += other.nodes;
  packing_prunes += other.packing_prunes;
  flow_prunes += other.flow_prunes;
  witness_budget_exceeded = witness_budget_exceeded ||
                            other.witness_budget_exceeded;
  node_budget_exceeded = node_budget_exceeded || other.node_budget_exceeded;
}

namespace {

using Family = HittingSetFamily;

// Node-budget state shared by all components of one solve — and, when
// components fan out to a worker pool, by all workers at once, so its
// fields are atomics. Relaxed ordering suffices: the budget only gates
// a heuristic cutoff, never publishes data between threads. Once it
// trips, every further Search() on any worker returns immediately and
// the incumbents (seeded by the greedy upper bounds, so always
// feasible) stand as the answer. Under contention the taken count may
// overshoot the limit by at most one per worker (each worker checks,
// then increments). With no budget set (limit 0, the default) the
// atomics are never touched at all.
struct NodeBudget {
  uint64_t limit = 0;  // 0 = unlimited
  std::atomic<uint64_t> taken{0};
  std::atomic<bool> exceeded{false};
};

// Per-component search counters. Exactly one worker owns a component,
// so the counters are plain integers: summing them in partition order
// afterwards makes ExactStats byte-identical at any thread count —
// there is no shared mutable reporting state for schedules to race on.
// Only the budget (when set) crosses components.
struct SearchCtx {
  NodeBudget* budget = nullptr;
  uint64_t nodes = 0;
  uint64_t packing_prunes = 0;
  uint64_t flow_prunes = 0;

  bool TakeNode() {
    if (budget->limit != 0) {
      if (budget->taken.load(std::memory_order_relaxed) >= budget->limit) {
        budget->exceeded.store(true, std::memory_order_relaxed);
        return false;
      }
      budget->taken.fetch_add(1, std::memory_order_relaxed);
    }
    ++nodes;
    return true;
  }

  bool BudgetExceeded() const {
    return budget->limit != 0 &&
           budget->exceeded.load(std::memory_order_relaxed);
  }
};

// Below this many residual edges a matching run costs more than the
// nodes it could prune — the greedy bounds and the eager reductions
// already dispatch such instances in a handful of nodes.
constexpr size_t kFlowBoundMinEdges = 8;

// The flow bound also waits until the component's search has expanded
// this many nodes: a component that finishes earlier was never going to
// repay a matching run per node, while a search still alive past the
// threshold is exactly where the stronger bound cuts whole subtrees.
// The gate reads the component-local counter, so whether it fires never
// depends on sibling components or on the worker schedule.
constexpr uint64_t kFlowBoundMinNodes = 32;

// Counting-sort CSR of an undirected edge list over vertices [0, n):
// row v of `adj`, offsets[v]..offsets[v+1], lists v's neighbours in edge
// order. `fill` is scratch. Reuses the vectors' capacity.
void BuildCsr(size_t n, const std::vector<std::pair<int, int>>& edges,
              std::vector<int>* offsets, std::vector<int>* adj,
              std::vector<int>* fill) {
  offsets->assign(n + 1, 0);
  for (const auto& [a, b] : edges) {
    ++(*offsets)[static_cast<size_t>(a) + 1];
    ++(*offsets)[static_cast<size_t>(b) + 1];
  }
  for (size_t v = 0; v < n; ++v) (*offsets)[v + 1] += (*offsets)[v];
  adj->resize(static_cast<size_t>((*offsets)[n]));
  fill->assign(offsets->begin(), offsets->end() - 1);
  for (const auto& [a, b] : edges) {
    (*adj)[static_cast<size_t>((*fill)[static_cast<size_t>(a)]++)] = b;
    (*adj)[static_cast<size_t>((*fill)[static_cast<size_t>(b)]++)] = a;
  }
}

// Buffers for FractionalMatchingBound, owned by one component's solver
// and reused by every call: the caller fills `edges`, the bound builds
// its CSR and matching state in the rest. Once they have grown to the
// component's size, a bound evaluation allocates nothing.
struct MatchingScratch {
  std::vector<std::pair<int, int>> edges;
  std::vector<int> offsets;      // CSR row starts, num_vertices + 1
  std::vector<int> adj;          // both directions of every edge
  std::vector<int> match_left;   // left copy -> matched right copy, or -1
  std::vector<int> match_right;  // right copy -> matched left copy, or -1
  std::vector<int> dist;         // BFS layer of each left copy
  std::vector<int> next;         // per left copy: next CSR slot to try
  std::vector<int> queue;        // BFS queue, then the DFS path stack
};

// One Hopcroft–Karp phase's augmentation from the free left copy `root`
// along the BFS layering, iteratively: the path stack holds left copies
// and, for each, the right copy it went through is adj[next[u] - 1].
// Left copies that lead nowhere get dist INT_MAX so later searches of the
// phase skip them.
bool Augment(int root, MatchingScratch* s) {
  std::vector<int>& path = s->queue;
  path.clear();
  path.push_back(root);
  while (!path.empty()) {
    const int u = path.back();
    const size_t uu = static_cast<size_t>(u);
    if (s->next[uu] == s->offsets[uu + 1]) {
      s->dist[uu] = INT_MAX;
      path.pop_back();
      continue;
    }
    const int v = s->adj[static_cast<size_t>(s->next[uu]++)];
    const int w = s->match_right[static_cast<size_t>(v)];
    if (w < 0) {
      for (int x : path) {
        const size_t xx = static_cast<size_t>(x);
        const int via = s->adj[static_cast<size_t>(s->next[xx] - 1)];
        s->match_left[xx] = via;
        s->match_right[static_cast<size_t>(via)] = x;
      }
      return true;
    }
    if (s->dist[static_cast<size_t>(w)] == s->dist[uu] + 1) path.push_back(w);
  }
  return false;
}

// LP-dual lower bound over size-2 sets: a maximum *fractional* matching
// of the graph they form is dual-feasible for the hitting-set LP, so its
// value bounds any hitting set of those edges from below. Its value is
// half the maximum integral matching of the bipartite double cover
// (each vertex split into a left and a right copy, each edge doubled) —
// whose left copy of a has exactly a's neighbours as right copies, so
// Hopcroft–Karp runs on the graph's own CSR adjacency, no blossom
// needed. Any maximum matching has the same size, so the bound does not
// depend on which one is found. Returns the ceiling, which is still a
// valid bound because hitting sets are integral. Reads s->edges (ids
// below num_vertices).
int FractionalMatchingBound(int num_vertices, MatchingScratch* s) {
  if (s->edges.empty()) return 0;
  const size_t n = static_cast<size_t>(num_vertices);
  BuildCsr(n, s->edges, &s->offsets, &s->adj, &s->next);
  s->match_left.assign(n, -1);
  s->match_right.assign(n, -1);
  s->dist.resize(n);
  int matched = 0;
  for (;;) {
    // BFS layers from every free left copy over alternating paths; stop
    // once no free right copy is reachable (the matching is maximum).
    s->queue.clear();
    for (size_t u = 0; u < n; ++u) {
      if (s->match_left[u] < 0) {
        s->dist[u] = 0;
        s->queue.push_back(static_cast<int>(u));
      } else {
        s->dist[u] = INT_MAX;
      }
    }
    bool reachable = false;
    for (size_t head = 0; head < s->queue.size(); ++head) {
      const size_t u = static_cast<size_t>(s->queue[head]);
      for (int i = s->offsets[u]; i < s->offsets[u + 1]; ++i) {
        const int v = s->adj[static_cast<size_t>(i)];
        const int w = s->match_right[static_cast<size_t>(v)];
        if (w < 0) {
          reachable = true;
        } else if (s->dist[static_cast<size_t>(w)] == INT_MAX) {
          s->dist[static_cast<size_t>(w)] = s->dist[u] + 1;
          s->queue.push_back(w);
        }
      }
    }
    if (!reachable) break;
    s->next.assign(s->offsets.begin(), s->offsets.end() - 1);
    for (size_t u = 0; u < n; ++u) {
      if (s->match_left[u] < 0 && s->dist[u] == 0 &&
          Augment(static_cast<int>(u), s)) {
        ++matched;
      }
    }
  }
  return (matched + 1) / 2;
}

// Sorts every span in place, deduplicates the family, and drops
// supersets (hitting a subset hits all of its supersets). Output spans
// are size-ascending; the pool is shared and never copied — dedup
// inside a span just shrinks its len, leaving a dead gap the family's
// lifetime amortizes away. This runs 2-3x per solve on the reduction
// fixpoint, so it must not allocate per set.
Family ReduceFamily(Family f) {
  for (SetSpan& s : f.sets) {
    RESCQ_CHECK(s.len > 0);
    int* b = f.pool.data() + s.offset;
    std::sort(b, b + s.len);
    s.len = static_cast<uint32_t>(std::unique(b, b + s.len) - b);
  }
  const int* pool = f.pool.data();
  std::sort(f.sets.begin(), f.sets.end(), [pool](SetSpan a, SetSpan b) {
    if (a.len != b.len) return a.len < b.len;
    return std::lexicographical_compare(pool + a.offset,
                                        pool + a.offset + a.len,
                                        pool + b.offset,
                                        pool + b.offset + b.len);
  });
  f.sets.erase(std::unique(f.sets.begin(), f.sets.end(),
                           [pool](SetSpan a, SetSpan b) {
                             return a.len == b.len &&
                                    std::equal(pool + a.offset,
                                               pool + a.offset + a.len,
                                               pool + b.offset);
                           }),
               f.sets.end());
  // Only a strictly shorter set can be a proper subset, and `out` is
  // length-ascending: scan just its prefix of shorter sets (empty on a
  // uniform-length family, so that case is linear).
  std::vector<SetSpan> out;
  out.reserve(f.sets.size());
  size_t shorter = 0;  // out[0, shorter) have len < s.len
  for (SetSpan s : f.sets) {
    while (shorter < out.size() && out[shorter].len < s.len) ++shorter;
    bool has_subset = false;
    for (size_t k = 0; k < shorter; ++k) {
      const SetSpan t = out[k];
      if (std::includes(pool + s.offset, pool + s.offset + s.len,
                        pool + t.offset, pool + t.offset + t.len)) {
        has_subset = true;
        break;
      }
    }
    if (!has_subset) out.push_back(s);
  }
  f.sets = std::move(out);
  return f;
}

// CSR element -> set-id lists: offsets[e]..offsets[e+1] indexes `flat`.
// Filled in ascending set order, so every per-element list is sorted —
// the same sequences per-element push_back produced.
struct ElementSets {
  std::vector<int> offsets;
  std::vector<int> flat;

  void Build(const Family& f, int num_elements) {
    offsets.assign(static_cast<size_t>(num_elements) + 1, 0);
    for (size_t i = 0; i < f.size(); ++i) {
      for (const int* p = f.begin(i); p != f.end(i); ++p) {
        ++offsets[static_cast<size_t>(*p) + 1];
      }
    }
    for (size_t e = 0; e < static_cast<size_t>(num_elements); ++e) {
      offsets[e + 1] += offsets[e];
    }
    flat.resize(static_cast<size_t>(offsets[static_cast<size_t>(
        num_elements)]));
    std::vector<int> pos(offsets.begin(), offsets.end() - 1);
    for (size_t i = 0; i < f.size(); ++i) {
      for (const int* p = f.begin(i); p != f.end(i); ++p) {
        flat[static_cast<size_t>(pos[static_cast<size_t>(*p)]++)] =
            static_cast<int>(i);
      }
    }
  }

  const int* begin(int e) const {
    return flat.data() + offsets[static_cast<size_t>(e)];
  }
  const int* end(int e) const {
    return flat.data() + offsets[static_cast<size_t>(e) + 1];
  }
  int count(int e) const {
    return offsets[static_cast<size_t>(e) + 1] -
           offsets[static_cast<size_t>(e)];
  }
};

int MaxElementPlusOne(const Family& f) {
  int num_elements = 0;
  for (size_t i = 0; i < f.size(); ++i) {
    for (const int* p = f.begin(i); p != f.end(i); ++p) {
      num_elements = std::max(num_elements, *p + 1);
    }
  }
  return num_elements;
}

// State for the branch-and-bound search. Sets are spans into the
// component's pool; "open" sets are those not yet hit by the current
// partial choice.
struct Solver {
  Family family;
  ElementSets element_sets;
  int num_elements = 0;
  SearchCtx* ctx = nullptr;

  std::vector<int> hit_count;    // per set: #chosen elements in it
  std::vector<bool> chosen;      // per element
  std::vector<int> current;      // chosen stack
  std::vector<int> best;
  int best_size = 0;
  std::vector<char> used;        // bound scratch: per element, claimed
  MatchingScratch matching;

  // For families that are already sorted, deduplicated, and subset-free
  // (per-component slices of a globally reduced family).
  void InitReduced(Family reduced) {
    family = std::move(reduced);
    num_elements = MaxElementPlusOne(family);
    element_sets.Build(family, num_elements);
    hit_count.assign(family.size(), 0);
    chosen.assign(static_cast<size_t>(num_elements), false);
  }

  void Choose(int e) {
    chosen[static_cast<size_t>(e)] = true;
    current.push_back(e);
    for (const int* s = element_sets.begin(e); s != element_sets.end(e);
         ++s) {
      ++hit_count[static_cast<size_t>(*s)];
    }
  }

  void Unchoose(int e) {
    chosen[static_cast<size_t>(e)] = false;
    current.pop_back();
    for (const int* s = element_sets.begin(e); s != element_sets.end(e);
         ++s) {
      --hit_count[static_cast<size_t>(*s)];
    }
  }

  // Greedy upper bound: repeatedly pick the element hitting the most open
  // sets. Also used to initialize `best`.
  void GreedyUpperBound() {
    std::vector<bool> open(family.size(), true);
    size_t open_count = 0;
    for (size_t i = 0; i < family.size(); ++i) {
      open[i] = hit_count[i] == 0;
      open_count += open[i] ? 1 : 0;
    }
    std::vector<int> greedy = current;
    std::vector<int> freq(static_cast<size_t>(num_elements), 0);
    while (open_count > 0) {
      std::fill(freq.begin(), freq.end(), 0);
      for (size_t i = 0; i < family.size(); ++i) {
        if (!open[i]) continue;
        for (const int* p = family.begin(i); p != family.end(i); ++p) {
          ++freq[static_cast<size_t>(*p)];
        }
      }
      int best_e = 0;
      for (int e = 1; e < num_elements; ++e) {
        if (freq[static_cast<size_t>(e)] > freq[static_cast<size_t>(best_e)]) {
          best_e = e;
        }
      }
      greedy.push_back(best_e);
      for (const int* s = element_sets.begin(best_e);
           s != element_sets.end(best_e); ++s) {
        if (open[static_cast<size_t>(*s)]) {
          open[static_cast<size_t>(*s)] = false;
          --open_count;
        }
      }
    }
    if (best.empty() || static_cast<int>(greedy.size()) < best_size) {
      best = greedy;
      best_size = static_cast<int>(greedy.size());
    }
  }

  // Lower bound on additional elements: greedily pack pairwise
  // element-disjoint open sets; each needs a distinct element.
  int PackingLowerBound() {
    int packed = 0;
    used.assign(static_cast<size_t>(num_elements), 0);
    // Smaller sets first makes the packing larger on average; sets are
    // globally sorted by size already (the reduction sorts before
    // superset removal; removal preserves order).
    for (size_t i = 0; i < family.size(); ++i) {
      if (hit_count[i] > 0) continue;
      bool disjoint = true;
      for (const int* p = family.begin(i); p != family.end(i); ++p) {
        if (used[static_cast<size_t>(*p)]) disjoint = false;
      }
      if (!disjoint) continue;
      ++packed;
      for (const int* p = family.begin(i); p != family.end(i); ++p) {
        used[static_cast<size_t>(*p)] = true;
      }
    }
    return packed;
  }

  // Stronger lower bound: disjoint-pack the open sets of size != 2, then
  // add the fractional-matching dual over the open 2-sets that avoid the
  // packed elements. Dual-feasible for the hitting-set LP (each element
  // is claimed by at most one packed set or by the matching, never
  // both), so it is a valid bound; it beats pure packing whenever the
  // 2-sets form odd structures the greedy can only half-use.
  int FlowLowerBound() {
    used.assign(static_cast<size_t>(num_elements), 0);
    int packed = 0;
    for (size_t i = 0; i < family.size(); ++i) {
      if (hit_count[i] > 0) continue;
      if (family.len(i) == 2) continue;  // handled by the matching below
      bool disjoint = true;
      for (const int* p = family.begin(i); p != family.end(i); ++p) {
        if (used[static_cast<size_t>(*p)]) disjoint = false;
      }
      if (!disjoint) continue;
      ++packed;
      for (const int* p = family.begin(i); p != family.end(i); ++p) {
        used[static_cast<size_t>(*p)] = true;
      }
    }
    std::vector<std::pair<int, int>>& edges = matching.edges;
    edges.clear();
    for (size_t i = 0; i < family.size(); ++i) {
      if (hit_count[i] > 0 || family.len(i) != 2) continue;
      int a = family.begin(i)[0], b = family.begin(i)[1];
      if (used[static_cast<size_t>(a)] || used[static_cast<size_t>(b)]) {
        continue;
      }
      edges.emplace_back(a, b);
    }
    if (edges.size() < kFlowBoundMinEdges) {
      return packed;  // skip the matching run, keep the packing just computed
    }
    return packed + FractionalMatchingBound(num_elements, &matching);
  }

  // Finds the open set with the fewest elements; -1 if none.
  int PickBranchSet() {
    int best_set = -1;
    size_t best_sz = ~size_t{0};
    for (size_t i = 0; i < family.size(); ++i) {
      if (hit_count[i] > 0) continue;
      if (family.len(i) < best_sz) {
        best_sz = family.len(i);
        best_set = static_cast<int>(i);
        if (best_sz == 1) break;
      }
    }
    return best_set;
  }

  void Search() {
    if (!ctx->TakeNode()) return;
    int branch_set = PickBranchSet();
    if (branch_set < 0) {
      if (static_cast<int>(current.size()) < best_size) {
        best = current;
        best_size = static_cast<int>(current.size());
      }
      return;
    }
    int lb = PackingLowerBound();
    if (static_cast<int>(current.size()) + lb >= best_size) {
      ++ctx->packing_prunes;
      return;
    }
    // The flow bound costs a matching run, so it only fires where the cheap
    // packing bound failed to prune and the search is demonstrably
    // non-trivial — exactly the nodes worth cutting.
    if (ctx->nodes >= kFlowBoundMinNodes) {
      int flow_lb = FlowLowerBound();
      if (flow_lb > lb &&
          static_cast<int>(current.size()) + flow_lb >= best_size) {
        ++ctx->flow_prunes;
        return;
      }
    }

    // Branch over the elements of the smallest open set, most-frequent
    // first.
    std::vector<int> elems(family.begin(static_cast<size_t>(branch_set)),
                           family.end(static_cast<size_t>(branch_set)));
    std::sort(elems.begin(), elems.end(), [&](int a, int b) {
      return element_sets.count(a) > element_sets.count(b);
    });
    for (int e : elems) {
      Choose(e);
      Search();
      Unchoose(e);
      if (ctx->BudgetExceeded()) return;
    }
  }
};

// Element domination: if every set containing b also contains some a
// (a != b), a minimum hitting set never needs b — any solution using b
// can swap it for a — so b is deleted from the family. Ties (identical
// membership) break toward the smaller id so exactly one of the pair
// survives. Classic hitting-set preprocessing; on the q_vc witness
// families it strips the per-edge S-tuples (each private to one set that
// also holds both endpoint R-tuples) and leaves a pure vertex-cover
// instance the matching bounds are exact on. Sets stay non-empty: every
// set that loses b still contains its dominator. Returns true when
// something was removed (callers re-reduce and iterate to fixpoint).
bool EliminateDominatedElements(Family* f) {
  const int num_elements = MaxElementPlusOne(*f);
  ElementSets element_sets;
  element_sets.Build(*f, num_elements);
  std::vector<bool> removed(static_cast<size_t>(num_elements), false);
  bool changed = false;
  for (int b = 0; b < num_elements; ++b) {
    if (element_sets.count(b) == 0) continue;
    const int* sb_begin = element_sets.begin(b);
    const int* sb_end = element_sets.end(b);
    // A dominator of b sits in every set containing b, in particular the
    // first one — so only its elements need checking.
    const size_t first_set = static_cast<size_t>(*sb_begin);
    for (const int* p = f->begin(first_set); p != f->end(first_set); ++p) {
      const int a = *p;
      if (a == b || removed[static_cast<size_t>(a)]) continue;
      if (element_sets.count(a) < element_sets.count(b)) continue;
      if (!std::includes(element_sets.begin(a), element_sets.end(a),
                         sb_begin, sb_end)) {
        continue;
      }
      if (element_sets.count(a) == element_sets.count(b) && a > b) {
        continue;  // keep the smaller id
      }
      removed[static_cast<size_t>(b)] = true;
      changed = true;
      break;
    }
  }
  if (!changed) return false;
  for (SetSpan& s : f->sets) {
    int* b = f->pool.data() + s.offset;
    int* kept = std::remove_if(b, b + s.len, [&](int e) {
      return removed[static_cast<size_t>(e)];
    });
    s.len = static_cast<uint32_t>(kept - b);
  }
  return true;
}

// Specialized exact vertex cover for the all-sets-size-<=2 case (graph
// instances; the hardness gadgets produce exactly these). Classic branch
// and bound: eager degree-0/1 reductions, branching "v in cover" vs
// "N(v) in cover" on a maximum-degree vertex, a greedy-matching lower
// bound backed by the fractional-matching bound, and a max-degree greedy
// cover seeding the incumbent. Cycles and trees collapse under the
// reductions, which is what the paper's variable gadgets are made of.
//
// The graph never changes shape: a fixed CSR adjacency (rows ascending)
// plus per-vertex `live` flags and live-neighbour `degree` counts. Taking
// a vertex into the cover clears its flag and decrements its live
// neighbours; `cover` doubles as the undo trail, so backtracking is
// UndoTo(mark), which re-adds the vertices taken since `mark` in reverse
// order. A node therefore costs O(V) scans plus the edges of the
// vertices it takes, and allocates nothing once the scratch buffers have
// grown.
struct VcSolver {
  std::vector<int> offsets;  // CSR row starts, num_vertices + 1
  std::vector<int> nbrs;     // neighbours, ascending within each row
  std::vector<char> live;    // not in the cover
  std::vector<int> degree;   // live neighbours of a live vertex; 0 if taken
  size_t live_edges = 0;
  SearchCtx* ctx = nullptr;
  std::vector<int> cover;    // current partial cover, also the undo trail
  std::vector<int> best;
  size_t best_size = ~size_t{0};
  std::vector<char> used;    // MatchingLowerBound scratch
  MatchingScratch matching;

  size_t num_vertices() const { return degree.size(); }
  const int* row_begin(int v) const {
    return nbrs.data() + offsets[static_cast<size_t>(v)];
  }
  const int* row_end(int v) const {
    return nbrs.data() + offsets[static_cast<size_t>(v) + 1];
  }

  void Init(int n, const std::vector<std::pair<int, int>>& edges) {
    const size_t nn = static_cast<size_t>(n);
    std::vector<int> fill;
    BuildCsr(nn, edges, &offsets, &nbrs, &fill);
    degree.resize(nn);
    for (size_t v = 0; v < nn; ++v) {
      std::sort(nbrs.begin() + offsets[v], nbrs.begin() + offsets[v + 1]);
      degree[v] = offsets[v + 1] - offsets[v];
    }
    live.assign(nn, 1);
    live_edges = edges.size();
  }

  void TakeVertex(int v) {
    cover.push_back(v);
    live[static_cast<size_t>(v)] = 0;
    live_edges -= static_cast<size_t>(degree[static_cast<size_t>(v)]);
    degree[static_cast<size_t>(v)] = 0;
    for (const int* u = row_begin(v); u != row_end(v); ++u) {
      if (live[static_cast<size_t>(*u)]) --degree[static_cast<size_t>(*u)];
    }
  }

  // Pops the trail back to `mark`. Undoing in reverse take order restores
  // exactly the live set each vertex saw when it was taken, so its degree
  // is recounted from its live neighbours.
  void UndoTo(size_t mark) {
    while (cover.size() > mark) {
      const int v = cover.back();
      cover.pop_back();
      int d = 0;
      for (const int* u = row_begin(v); u != row_end(v); ++u) {
        if (live[static_cast<size_t>(*u)]) {
          ++degree[static_cast<size_t>(*u)];
          ++d;
        }
      }
      live[static_cast<size_t>(v)] = 1;
      degree[static_cast<size_t>(v)] = d;
      live_edges += static_cast<size_t>(d);
    }
  }

  // The smallest live neighbour of v (v must have one).
  int FirstLiveNeighbor(int v) const {
    const int* u = row_begin(v);
    while (!live[static_cast<size_t>(*u)]) ++u;
    return *u;
  }

  // The maximum-degree vertex, ties to the smallest id; -1 if no edges.
  int MaxDegreeVertex() const {
    int v = -1;
    int max_deg = 0;
    for (size_t u = 0; u < num_vertices(); ++u) {
      if (degree[u] > max_deg) {
        max_deg = degree[u];
        v = static_cast<int>(u);
      }
    }
    return v;
  }

  void Reduce() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t v = 0; v < num_vertices(); ++v) {
        if (degree[v] == 1) {
          TakeVertex(FirstLiveNeighbor(static_cast<int>(v)));
          changed = true;
        }
      }
    }
  }

  // Max-degree greedy cover: seeds `best` so that pruning bites from the
  // first search node and a budget-stopped search still holds a feasible
  // answer.
  void GreedySeed() {
    const size_t mark = cover.size();
    for (int v = MaxDegreeVertex(); v >= 0; v = MaxDegreeVertex()) {
      TakeVertex(v);
    }
    best = cover;
    best_size = cover.size();
    UndoTo(mark);
  }

  size_t MatchingLowerBound() {
    used.assign(num_vertices(), 0);
    size_t matching_size = 0;
    for (size_t v = 0; v < num_vertices(); ++v) {
      if (used[v] || degree[v] == 0) continue;
      for (const int* u = row_begin(static_cast<int>(v));
           u != row_end(static_cast<int>(v)); ++u) {
        const size_t uu = static_cast<size_t>(*u);
        if (live[uu] && !used[uu]) {
          used[v] = 1;
          used[uu] = 1;
          ++matching_size;
          break;
        }
      }
    }
    return matching_size;
  }

  // Fractional matching over the live edges (see
  // FractionalMatchingBound): exact on bipartite residuals by König, and
  // gains the +1/2-per-odd-component the greedy matching leaves behind.
  size_t FlowLowerBound() {
    if (live_edges < kFlowBoundMinEdges) return 0;  // not worth a matching run
    std::vector<std::pair<int, int>>& edges = matching.edges;
    edges.clear();
    for (size_t v = 0; v < num_vertices(); ++v) {
      if (degree[v] == 0) continue;
      for (const int* u = row_begin(static_cast<int>(v));
           u != row_end(static_cast<int>(v)); ++u) {
        if (*u > static_cast<int>(v) && live[static_cast<size_t>(*u)]) {
          edges.emplace_back(static_cast<int>(v), *u);
        }
      }
    }
    return static_cast<size_t>(FractionalMatchingBound(
        static_cast<int>(num_vertices()), &matching));
  }

  void Search() {
    if (!ctx->TakeNode()) return;
    Reduce();
    const int branch = MaxDegreeVertex();
    if (branch < 0) {
      if (cover.size() < best_size) {
        best = cover;
        best_size = cover.size();
      }
      return;
    }
    size_t lb = MatchingLowerBound();
    if (cover.size() + lb >= best_size) {
      ++ctx->packing_prunes;
      return;
    }
    if (ctx->nodes >= kFlowBoundMinNodes) {
      size_t flow_lb = FlowLowerBound();
      if (flow_lb > lb && cover.size() + flow_lb >= best_size) {
        ++ctx->flow_prunes;
        return;
      }
    }

    const size_t mark = cover.size();
    // Branch 1: v in the cover.
    TakeVertex(branch);
    Search();
    UndoTo(mark);
    if (ctx->BudgetExceeded()) return;
    // Branch 2: all live neighbours of v in the cover, ascending. Taking
    // one never kills another (v stays live), so filtering the fixed row
    // by `live` as it goes visits exactly the neighbours v had here.
    for (const int* u = row_begin(branch); u != row_end(branch); ++u) {
      if (live[static_cast<size_t>(*u)]) TakeVertex(*u);
    }
    Search();
    UndoTo(mark);
  }
};

// A vertex-cover component split into its solver and the elements the
// singleton sets force: the forced part needs no search.
struct VcInstance {
  VcSolver vc;
  std::vector<int> forced;  // ascending element ids forced by 1-sets
};

// Builds the cover instance for one component; every span must have
// size 1 or 2 (deduplicated). Edges touching a forced element are
// already hit and stay out of the graph.
VcInstance BuildVcInstance(const Family& f, int num_elements) {
  std::vector<bool> forced(static_cast<size_t>(num_elements), false);
  for (size_t i = 0; i < f.size(); ++i) {
    if (f.len(i) == 1) forced[static_cast<size_t>(f.begin(i)[0])] = true;
  }
  VcInstance inst;
  std::vector<std::pair<int, int>> edges;
  for (size_t i = 0; i < f.size(); ++i) {
    if (f.len(i) != 2) continue;
    const int a = f.begin(i)[0], b = f.begin(i)[1];
    if (forced[static_cast<size_t>(a)] || forced[static_cast<size_t>(b)]) {
      continue;  // already hit
    }
    edges.emplace_back(a, b);
  }
  inst.vc.Init(num_elements, edges);
  for (int e = 0; e < num_elements; ++e) {
    if (forced[static_cast<size_t>(e)]) inst.forced.push_back(e);
  }
  return inst;
}

// Solves one hitting-set component as vertex cover; every span must have
// size 1 or 2 (deduplicated). Singleton sets are forced.
std::vector<int> SolveAsVertexCover(const Family& f, int num_elements,
                                    SearchCtx* ctx) {
  VcInstance inst = BuildVcInstance(f, num_elements);
  inst.vc.ctx = ctx;
  inst.vc.GreedySeed();
  inst.vc.Search();
  std::vector<int> chosen = inst.vc.best;
  chosen.insert(chosen.end(), inst.forced.begin(), inst.forced.end());
  return chosen;
}

// Solves one general component with the branch-and-bound solver. The
// component's spans are already reduced (slices of the global fixpoint).
std::vector<int> SolveComponent(Family f, SearchCtx* ctx) {
  Solver solver;
  solver.ctx = ctx;
  solver.InitReduced(std::move(f));
  solver.best_size = 1 << 30;
  solver.GreedyUpperBound();
  solver.Search();
  return solver.best;
}

// Reduction fixpoint shared by the solve and the root bound: dedup +
// superset removal, then element domination, re-reduced until nothing
// changes (domination shrinks sets, which can expose new subset
// relations and vice versa).
Family ReduceToFixpoint(Family f) {
  f = ReduceFamily(std::move(f));
  while (EliminateDominatedElements(&f)) {
    f = ReduceFamily(std::move(f));
  }
  return f;
}

}  // namespace

HittingSetResult SolveMinHittingSet(
    const std::vector<std::vector<int>>& sets) {
  return SolveMinHittingSet(sets, ExactOptions{}, nullptr);
}

int HittingSetLowerBound(const HittingSetFamily& family) {
  if (family.empty()) return 0;
  Solver solver;  // ctx stays null: the root bounds never take a node
  solver.InitReduced(ReduceToFixpoint(family));
  // Both bounds with nothing chosen yet (every set open); the flow bound
  // subsumes the packing one only on 2-set-heavy families, so take the
  // max.
  return std::max(solver.PackingLowerBound(), solver.FlowLowerBound());
}

int HittingSetLowerBound(const std::vector<std::vector<int>>& sets) {
  return HittingSetLowerBound(HittingSetFamily::From(sets));
}

HittingSetResult SolveMinHittingSet(const std::vector<std::vector<int>>& sets,
                                    const ExactOptions& options,
                                    ExactStats* stats) {
  return SolveMinHittingSet(HittingSetFamily::From(sets), options, stats);
}

HittingSetResult SolveMinHittingSet(const HittingSetFamily& family,
                                    const ExactOptions& options,
                                    ExactStats* stats) {
  HittingSetResult result;
  if (family.empty()) return result;

  // Global reduction to fixpoint, then split into connected components
  // over shared elements: two sets with no element in common constrain
  // disjoint parts of the universe, so the minimum hitting set is the
  // concatenation of per-component minima. Components shrink the
  // branching factor *and* let small parts finish instantly while the
  // search budget concentrates on the hard core.
  Family reduced;
  {
    obs::Span span("reduce", "exact");
    reduced = ReduceToFixpoint(family);
  }
  const int num_elements = MaxElementPlusOne(reduced);

  DisjointSet components(num_elements);
  for (size_t i = 0; i < reduced.size(); ++i) {
    const int* s = reduced.begin(i);
    for (size_t j = 1; j < reduced.len(i); ++j) components.Union(s[0], s[j]);
  }
  std::map<int, std::vector<uint32_t>> groups;  // root -> span ids
  for (size_t i = 0; i < reduced.size(); ++i) {
    groups[components.Find(reduced.begin(i)[0])].push_back(
        static_cast<uint32_t>(i));
  }

  // Localize every component up front (serial, in deterministic
  // map-of-roots order): dense local ids keep each component's solver
  // small, and a flat task vector is what the worker pool fans out over.
  struct ComponentTask {
    std::vector<int> local_to_global;
    Family local;
    bool all_small = true;
  };
  std::vector<ComponentTask> tasks;
  tasks.reserve(groups.size());
  std::vector<int> global_to_local(static_cast<size_t>(num_elements), -1);
  for (const auto& [root, group] : groups) {
    ComponentTask task;
    task.local.sets.reserve(group.size());
    for (uint32_t si : group) {
      const uint32_t offset = static_cast<uint32_t>(task.local.pool.size());
      for (const int* p = reduced.begin(si); p != reduced.end(si); ++p) {
        int& slot = global_to_local[static_cast<size_t>(*p)];
        if (slot < 0) {
          slot = static_cast<int>(task.local_to_global.size());
          task.local_to_global.push_back(*p);
        }
        task.local.pool.push_back(slot);
      }
      task.all_small = task.all_small && reduced.len(si) <= 2;
      task.local.sets.push_back(
          SetSpan{offset, reduced.sets[si].len});
    }
    for (int e : task.local_to_global) {
      global_to_local[static_cast<size_t>(e)] = -1;
    }
    tasks.push_back(std::move(task));
  }

  // One budget for the whole solve, one counter slot per component.
  // Components share no elements, so each solve below is a pure
  // function of its task (plus, under a budget, the raced budget
  // atomics) — which worker runs it cannot change its answer or its
  // counters. That is what makes the parallel path byte-identical to
  // the serial one: same per-component searches, same counter slots,
  // merged in the same partition order.
  NodeBudget budget;
  budget.limit = options.node_budget;
  std::vector<SearchCtx> ctxs(tasks.size());
  for (SearchCtx& c : ctxs) c.budget = &budget;
  std::vector<std::vector<int>> chosen(tasks.size());  // local ids per task

  auto solve_component = [&](size_t i) {
    obs::Span span("component-solve", "exact");
    ComponentTask& task = tasks[i];
    chosen[i] =
        task.all_small
            ? SolveAsVertexCover(task.local,
                                 static_cast<int>(task.local_to_global.size()),
                                 &ctxs[i])
            : SolveComponent(std::move(task.local), &ctxs[i]);
  };
  int threads = std::max(1, options.solver_threads);
  if (threads <= 1 || tasks.size() <= 1) {
    for (size_t i = 0; i < tasks.size(); ++i) solve_component(i);
  } else {
    WorkerPool pool(static_cast<int>(
        std::min<size_t>(static_cast<size_t>(threads), tasks.size())));
    pool.Run(tasks.size(), solve_component);
  }

  // Deterministic component-index-ordered merge (the final sort makes
  // the member order canonical regardless of which worker finished
  // first).
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (int e : chosen[i]) {
      result.chosen.push_back(
          tasks[i].local_to_global[static_cast<size_t>(e)]);
    }
  }
  std::sort(result.chosen.begin(), result.chosen.end());
  result.size = static_cast<int>(result.chosen.size());

  // Partition-order merge of the per-component slots (the order is the
  // deterministic map-of-roots order the tasks were built in).
  ExactStats search;
  search.components = static_cast<int>(groups.size());
  for (const SearchCtx& c : ctxs) {
    search.nodes += c.nodes;
    search.packing_prunes += c.packing_prunes;
    search.flow_prunes += c.flow_prunes;
  }
  search.node_budget_exceeded =
      budget.exceeded.load(std::memory_order_relaxed);
  result.proven_optimal = !search.node_budget_exceeded;

  obs::Count("exact.solves");
  obs::Count("exact.components", static_cast<uint64_t>(search.components));
  obs::Count("exact.nodes", search.nodes);
  obs::Count("exact.packing_prunes", search.packing_prunes);
  obs::Count("exact.flow_prunes", search.flow_prunes);

  if (stats != nullptr) stats->Merge(search);
  return result;
}

ResilienceResult ComputeResilienceExact(const Query& q, const Database& db) {
  return ComputeResilienceExact(q, db, ExactOptions{}, nullptr);
}

ResilienceResult ComputeResilienceExact(const Query& q, const Database& db,
                                        const ExactOptions& options,
                                        ExactStats* stats) {
  ResilienceResult result;
  result.solver = SolverKind::kExact;
  WitnessFamily family = CollectWitnessFamily(q, db, options.witness_limit);

  ExactStats local;
  local.witnesses = family.witnesses;
  local.witness_sets = family.size();
  local.witness_budget_exceeded = family.budget_exceeded;

  if (family.unbreakable) {
    result.unbreakable = true;
    if (stats != nullptr) stats->Merge(local);
    return result;
  }
  if (family.budget_exceeded) {
    // Incomplete family: any hitting set of it could miss witnesses, so
    // no answer is returned. Callers must check the stats flag.
    if (stats != nullptr) stats->Merge(local);
    return result;
  }
  if (family.sets.empty()) {
    if (stats != nullptr) stats->Merge(local);
    return result;  // D does not satisfy q
  }

  // Map tuples to dense element ids in first-seen order, straight from
  // the family's spans into the solver's pool — no per-set vectors in
  // between. The id table is flat: relation r's rows start at
  // row_base[r], and -1 marks a tuple not seen yet.
  std::vector<size_t> row_base(static_cast<size_t>(db.num_relations()) + 1, 0);
  for (int r = 0; r < db.num_relations(); ++r) {
    row_base[static_cast<size_t>(r) + 1] =
        row_base[static_cast<size_t>(r)] + static_cast<size_t>(db.NumRows(r));
  }
  std::vector<int> ids(row_base.back(), -1);
  std::vector<TupleId> tuples;
  HittingSetFamily hs;
  hs.pool.reserve(family.arena.pool_size());
  hs.sets.reserve(family.size());
  for (size_t i = 0; i < family.size(); ++i) {
    const uint32_t offset = static_cast<uint32_t>(hs.pool.size());
    for (const TupleId* t = family.begin(i); t != family.end(i); ++t) {
      int& id = ids[row_base[static_cast<size_t>(t->relation)] +
                    static_cast<size_t>(t->row)];
      if (id < 0) {
        id = static_cast<int>(tuples.size());
        tuples.push_back(*t);
      }
      hs.pool.push_back(id);
    }
    hs.sets.push_back(SetSpan{offset, family.sets[i].len});
  }
  HittingSetResult hs_result = SolveMinHittingSet(hs, options, &local);
  result.resilience = hs_result.size;
  for (int e : hs_result.chosen) {
    result.contingency.push_back(tuples[static_cast<size_t>(e)]);
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  if (stats != nullptr) stats->Merge(local);
  return result;
}

}  // namespace rescq
