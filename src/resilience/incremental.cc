#include "resilience/incremental.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/exact_solver.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/disjoint_set.h"

namespace rescq {

namespace {

std::string WitnessBudgetError(size_t limit) {
  return "witness budget exceeded (witness_limit=" + std::to_string(limit) +
         "): the maintained witness family is incomplete and the session "
         "cannot answer";
}

/// Greedy packing of pairwise element-disjoint sets — each packed set
/// needs its own element, so the count bounds the minimum hitting set
/// from below. No reduction, no flow: the O(total set size) bound that
/// certifies the tree-shaped components sparse churn mostly touches;
/// the branch-and-bound core (with its own domination and flow-bound
/// machinery) is the escalation when this one leaves a gap.
int QuickPackingBound(const HittingSetFamily& sets, int num_elements) {
  std::vector<bool> used(static_cast<size_t>(num_elements), false);
  int packed = 0;
  for (size_t i = 0; i < sets.size(); ++i) {
    bool disjoint = true;
    for (const int* p = sets.begin(i); p != sets.end(i); ++p) {
      if (used[static_cast<size_t>(*p)]) disjoint = false;
    }
    if (!disjoint) continue;
    ++packed;
    for (const int* p = sets.begin(i); p != sets.end(i); ++p) {
      used[static_cast<size_t>(*p)] = true;
    }
  }
  return packed;
}

/// Repairs `incumbent` (element ids of a previously good hitting set)
/// into a feasible, inclusion-tight hitting set of `sets`: uncovered
/// sets are greedily covered by the max-frequency element, then members
/// every one of whose sets is multiply covered are stripped — the warm
/// upper bound of a touched component. Deliberately set-major
/// (membership is rescanned instead of materializing element->sets
/// lists): touched components are small and the pass must stay
/// allocation-light.
std::vector<int> RepairIncumbent(const HittingSetFamily& sets,
                                 int num_elements,
                                 std::vector<int> incumbent) {
  std::sort(incumbent.begin(), incumbent.end());
  incumbent.erase(std::unique(incumbent.begin(), incumbent.end()),
                  incumbent.end());
  std::vector<bool> chosen(static_cast<size_t>(num_elements), false);
  for (int e : incumbent) chosen[static_cast<size_t>(e)] = true;
  std::vector<int> cover(sets.size(), 0);
  size_t uncovered = 0;
  for (size_t s = 0; s < sets.size(); ++s) {
    for (const int* p = sets.begin(s); p != sets.end(s); ++p) {
      cover[s] += chosen[static_cast<size_t>(*p)] ? 1 : 0;
    }
    uncovered += cover[s] == 0 ? 1 : 0;
  }
  std::vector<int> freq(static_cast<size_t>(num_elements), 0);
  while (uncovered > 0) {
    std::fill(freq.begin(), freq.end(), 0);
    for (size_t s = 0; s < sets.size(); ++s) {
      if (cover[s] > 0) continue;
      for (const int* p = sets.begin(s); p != sets.end(s); ++p) {
        ++freq[static_cast<size_t>(*p)];
      }
    }
    int best = 0;
    for (size_t e = 1; e < freq.size(); ++e) {
      if (freq[e] > freq[static_cast<size_t>(best)]) best = static_cast<int>(e);
    }
    RESCQ_CHECK(freq[static_cast<size_t>(best)] > 0);
    chosen[static_cast<size_t>(best)] = true;
    incumbent.push_back(best);
    for (size_t s = 0; s < sets.size(); ++s) {
      bool has = false;
      for (const int* p = sets.begin(s); p != sets.end(s); ++p) {
        has = has || *p == best;
      }
      if (has && cover[s]++ == 0) --uncovered;
    }
  }
  // Redundancy strip: a member every one of whose sets is multiply
  // covered can go (keeps delete-churn upper bounds tight).
  std::sort(incumbent.begin(), incumbent.end());
  std::vector<int> repaired;
  repaired.reserve(incumbent.size());
  for (int e : incumbent) {
    bool needed = false;
    for (size_t s = 0; s < sets.size(); ++s) {
      if (cover[s] != 1) continue;
      for (const int* p = sets.begin(s); p != sets.end(s); ++p) {
        needed = needed || *p == e;
      }
      if (needed) break;
    }
    if (!needed) {
      for (size_t s = 0; s < sets.size(); ++s) {
        for (const int* p = sets.begin(s); p != sets.end(s); ++p) {
          if (*p == e) {
            --cover[s];
            break;
          }
        }
      }
      continue;
    }
    repaired.push_back(e);
  }
  return repaired;
}

// Exhaustive first-open-set branch and bound for tiny components — no
// reductions, no heap churn. The odd (non-star, non-tree) components
// sparse churn leaves behind have a handful of small sets; the full
// SolveMinHittingSet pipeline (sort/dedup/domination fixpoint/flow)
// costs more than this whole search there. Bounded: <= kTinySets sets
// of size <= kTinySetSize, so the tree is at most 4^8 nodes and the
// incumbent prune keeps it far below that.
constexpr size_t kTinySets = 8;
constexpr size_t kTinySetSize = 4;

struct TinySolver {
  const HittingSetFamily& sets;
  std::vector<bool> chosen;
  std::vector<int> current;
  std::vector<int> best;  // seeded with a feasible incumbent

  void Search() {
    if (current.size() + 1 > best.size()) return;  // can't beat incumbent
    size_t open = sets.size();
    for (size_t s = 0; s < sets.size(); ++s) {
      bool hit = false;
      for (const int* p = sets.begin(s); p != sets.end(s); ++p) {
        hit = hit || chosen[static_cast<size_t>(*p)];
      }
      if (!hit) {
        open = s;
        break;
      }
    }
    if (open == sets.size()) {
      best = current;
      return;
    }
    for (const int* p = sets.begin(open); p != sets.end(open); ++p) {
      const int e = *p;
      chosen[static_cast<size_t>(e)] = true;
      current.push_back(e);
      Search();
      current.pop_back();
      chosen[static_cast<size_t>(e)] = false;
    }
  }
};

bool TinyEligible(const HittingSetFamily& sets) {
  if (sets.size() > kTinySets) return false;
  for (size_t s = 0; s < sets.size(); ++s) {
    if (sets.len(s) > kTinySetSize) return false;
  }
  return true;
}

}  // namespace

int IncrementalSession::DenseId(TupleId t) {
  auto [it, inserted] =
      dense_ids_.emplace(t, static_cast<int>(dense_tuples_.size()));
  if (inserted) {
    dense_tuples_.push_back(t);
    comp_label_.push_back(-1);
  }
  return it->second;
}

void IncrementalSession::TouchSet(const std::vector<TupleId>& endo_tuples,
                                  int64_t sign) {
  const uint32_t id =
      family_arena_.Intern(endo_tuples.data(), endo_tuples.size());
  if (id == set_states_.size()) {
    // First appearance: extend the flat per-set state and mirror the
    // new arena run into dense element ids (same offsets).
    set_states_.emplace_back();
    for (TupleId t : endo_tuples) dense_pool_.push_back(DenseId(t));
    if (endo_tuples.empty()) empty_set_id_ = static_cast<int32_t>(id);
  }
  SetState& state = set_states_[id];
  const bool was_dead = state.count == 0;
  state.count += sign;
  RESCQ_CHECK(state.count >= 0);
  const uint32_t len = SetLen(static_cast<int32_t>(id));
  if (len == 0) return;  // the unbreakable key joins no component
  if (was_dead && state.count > 0) {
    // Newly live — first appearance or a revival: it may attach to (or
    // bridge) the components its elements currently live in — flag
    // them for dissolution.
    const int* e = DenseBegin(static_cast<int32_t>(id));
    for (uint32_t i = 0; i < len; ++i) {
      int label = comp_label_[static_cast<size_t>(e[i])];
      if (label >= 0) affected_labels_.push_back(label);
    }
    state.label = -1;
    state.label_slot = static_cast<int>(fresh_sets_.size());
    fresh_sets_.push_back(static_cast<int32_t>(id));
    ++live_sets_;
  } else if (!was_dead && state.count == 0) {
    // Died: tombstone wherever the set currently sits. Its span stays
    // in the arena — a later revival reuses the same SetId.
    if (state.label >= 0) {
      affected_labels_.push_back(state.label);
      auto comp = components_.find(state.label);
      RESCQ_CHECK(comp != components_.end());
      comp->second.sets[static_cast<size_t>(state.label_slot)] = -1;
    } else {
      fresh_sets_[static_cast<size_t>(state.label_slot)] = -1;
    }
    state.label = -1;
    state.label_slot = -1;
    --live_sets_;
  }
}

bool IncrementalSession::ShiftSupport(const std::vector<TupleId>& changed,
                                      int64_t sign, EpochOutcome* out) {
  const size_t limit =
      options_.witness_limit == 0 ? kNoWitnessLimit : options_.witness_limit;
  bool ok = true;
  index_->ForEachDelta(changed, [&](const Witness& w) {
    if (out->delta_witnesses >= limit) {
      poisoned_ = true;
      poison_error_ = WitnessBudgetError(options_.witness_limit);
      ok = false;
      return false;
    }
    ++out->delta_witnesses;
    TouchSet(w.endo_tuples, sign);
    return true;
  });
  return ok;
}

void IncrementalSession::AdoptComponent(int label, Component component) {
  total_size_ += component.size;
  total_lower_ += component.lower;
  if (!component.proven) ++unproven_components_;
  bool inserted = components_.emplace(label, std::move(component)).second;
  RESCQ_CHECK(inserted);
}

IncrementalSession::IncrementalSession(const Query& q, Database base,
                                       EngineOptions options)
    : q_(q), db_(std::move(base)), options_(options) {
  Clock::time_point start = Clock::now();
  index_.reset(new WitnessIndex(q_, db_));
  last_.epoch = 0;
  const size_t limit =
      options_.witness_limit == 0 ? kNoWitnessLimit : options_.witness_limit;
  // Full build: count the support of every endogenous set. Unlike
  // CollectWitnessFamily this cannot short-circuit on an unbreakable
  // witness — deletions may later revive the query's breakability, and
  // the rest of the family must be live by then.
  index_->ForEach([&](const Witness& w) {
    if (last_.delta_witnesses >= limit) {
      poisoned_ = true;
      poison_error_ = WitnessBudgetError(options_.witness_limit);
      return false;
    }
    ++last_.delta_witnesses;
    TouchSet(w.endo_tuples, +1);
    return true;
  });
  Refresh(&last_);
  last_.wall_ms = MsSince(start);
  if (obs::MetricsEnabled()) obs::PublishMemBreakdown(ApproxMemory());
}

size_t IncrementalSession::EvictColdState() {
  if (index_ == nullptr) return 0;
  size_t freed = index_->ApproxBytes() +
                 static_cast<size_t>(obs::VectorBytes(global_to_local_));
  index_.reset();
  std::vector<int>().swap(global_to_local_);
  ++evictions_;
  obs::Count("mem.evictions");
  return freed;
}

EpochOutcome IncrementalSession::Apply(const Epoch& epoch) {
  obs::Span span("epoch-apply", "incremental");
  obs::Count("incremental.epochs");
  obs::Count("incremental.updates", epoch.updates.size());
  Clock::time_point start = Clock::now();
  EpochOutcome out;
  out.epoch = ++epoch_count_;

  // Lazy rebuild after an eviction: a fresh index over the current
  // database enumerates exactly what the dropped, synced one would —
  // activity is checked at probe time and appended rows are indexed on
  // construction — so the delta streams below pick up mid-session as
  // if nothing happened. (A poisoned session skips the rebuild: its
  // batches never stream.)
  if (index_ == nullptr && !poisoned_) {
    index_.reset(new WitnessIndex(q_, db_));
    ++rebuilds_;
    obs::Count("mem.rebuilds");
  }

  // Within an epoch, the last update of each fact wins: activity is
  // last-writer, and the support invariant (the family = the witness
  // family of the current database, restored after every batch) only
  // depends on the final database state — so an insert-then-delete of
  // an initially absent fact nets to nothing, exactly as if the
  // sequence had been applied one by one. The netted epoch then
  // coalesces into one insert batch and one delete batch: a batch of
  // inserts is activated first and its incident witnesses arrive with
  // +1 support; a batch of deletions streams its incident witnesses
  // *while still active* with -1 support, then deactivates. Each
  // witness born or killed by a batch is visited exactly once
  // (ForEachDelta's first-changed-atom rule).
  std::vector<const Update*> net;
  net.reserve(epoch.updates.size());
  {
    std::unordered_map<std::string, size_t> last;  // fact key -> net slot
    last.reserve(epoch.updates.size());
    std::string key;
    for (const Update& u : epoch.updates) {
      key = u.relation;
      for (const std::string& c : u.constants) {
        key += '\x01';
        key += c;
      }
      auto [it, inserted] = last.emplace(key, net.size());
      if (inserted) {
        net.push_back(&u);
      } else {
        net[it->second] = &u;
      }
    }
  }

  auto run_batch = [&](UpdateKind kind, const std::vector<const Update*>&
                                            batch) {
    if (batch.empty() || poisoned_) return;
    std::vector<TupleId> changed;
    for (const Update* u : batch) {
      if (kind == UpdateKind::kInsert) {
        std::optional<TupleId> id = ApplyUpdate(*u, &db_);
        if (id.has_value()) changed.push_back(*id);
      } else {
        // Resolve without applying: the delta stream needs the tuple
        // still active.
        if (db_.RelationId(u->relation) < 0) continue;
        std::vector<Value> row;
        row.reserve(u->constants.size());
        for (const std::string& c : u->constants) row.push_back(db_.Intern(c));
        std::optional<TupleId> id = db_.FindTuple(u->relation, row);
        if (id.has_value() && db_.IsActive(*id)) changed.push_back(*id);
      }
    }
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
    if (kind == UpdateKind::kInsert) {
      out.inserted += static_cast<int>(changed.size());
      index_->SyncNewRows();  // the batch may have appended rows
      ShiftSupport(changed, +1, &out);
    } else {
      out.deleted += static_cast<int>(changed.size());
      ShiftSupport(changed, -1, &out);
      for (TupleId t : changed) db_.SetActive(t, false);
    }
  };

  std::vector<const Update*> inserts, deletes;
  inserts.reserve(net.size());
  deletes.reserve(net.size());
  for (const Update* u : net) {
    (u->kind == UpdateKind::kInsert ? inserts : deletes).push_back(u);
  }
  run_batch(UpdateKind::kInsert, inserts);
  run_batch(UpdateKind::kDelete, deletes);

  Refresh(&out);
  out.wall_ms = MsSince(start);
  obs::ObserveLatencyMs("incremental.epoch_ms", out.wall_ms);
  if (obs::MetricsEnabled()) obs::PublishMemBreakdown(ApproxMemory());
  last_ = out;
  return out;
}

obs::MemBreakdown IncrementalSession::ApproxMemory() const {
  obs::MemBreakdown mem;
  mem.index_bytes = index_ != nullptr ? index_->ApproxBytes() : 0;

  mem.family_bytes = family_arena_.ApproxBytes() +
                     obs::VectorBytes(dense_pool_) +
                     obs::VectorBytes(set_states_);
  mem.family_bytes += obs::HashContainerBytes(dense_ids_);
  mem.family_bytes += obs::VectorBytes(dense_tuples_);
  mem.arena_reserved_bytes = family_arena_.ReservedBytes();
  mem.arena_live_bytes = family_arena_.LiveBytes();

  mem.component_bytes = obs::HashContainerBytes(components_);
  for (const auto& [label, comp] : components_) {
    mem.component_bytes +=
        obs::VectorBytes(comp.sets) + obs::VectorBytes(comp.solution);
  }
  mem.component_bytes += obs::VectorBytes(comp_label_);
  mem.component_bytes += obs::VectorBytes(global_to_local_);

  mem.tuples = static_cast<size_t>(db_.NumActiveTuples());
  mem.witness_sets = static_cast<size_t>(live_sets_);
  return mem;
}

void IncrementalSession::Refresh(EpochOutcome* out) {
  const bool unbreakable =
      empty_set_id_ >= 0 &&
      set_states_[static_cast<size_t>(empty_set_id_)].count > 0;
  out->family_sets = static_cast<size_t>(live_sets_);

  if (poisoned_) {
    affected_labels_.clear();
    fresh_sets_.clear();
    out->budget_exceeded = true;
    out->error = poison_error_;
    return;
  }

  // Dissolve the touched components and collect the region to rebuild:
  // their surviving sets, this epoch's fresh sets, and — as the repair
  // seed — their old solutions. Components outside the region are
  // untouched and keep their records, so the work below scales with the
  // churn's footprint. This runs even while the query is unbreakable:
  // the decomposition must be current the moment breakability resumes.
  std::sort(affected_labels_.begin(), affected_labels_.end());
  affected_labels_.erase(
      std::unique(affected_labels_.begin(), affected_labels_.end()),
      affected_labels_.end());
  std::vector<int32_t> region;  // SetIds
  std::vector<int> seeds;
  for (int label : affected_labels_) {
    auto it = components_.find(label);
    if (it == components_.end()) continue;  // stale element label
    for (int32_t s : it->second.sets) {
      if (s >= 0) region.push_back(s);
    }
    seeds.insert(seeds.end(), it->second.solution.begin(),
                 it->second.solution.end());
    total_size_ -= it->second.size;
    total_lower_ -= it->second.lower;
    if (!it->second.proven) --unproven_components_;
    components_.erase(it);
  }
  for (int32_t s : fresh_sets_) {
    if (s >= 0) region.push_back(s);
  }
  affected_labels_.clear();
  fresh_sets_.clear();

  if (!region.empty()) {
    // Local dense ids over the region and its sub-components. The
    // localized region is itself a span family — one pool, no per-set
    // vectors.
    if (global_to_local_.size() < dense_tuples_.size()) {
      global_to_local_.resize(dense_tuples_.size(), -1);
    }
    std::vector<int> local_to_dense;
    HittingSetFamily region_local;
    region_local.pool.reserve(region.size() * 2);
    region_local.sets.reserve(region.size());
    for (int32_t id : region) {
      const uint32_t offset = static_cast<uint32_t>(region_local.pool.size());
      const int* e = DenseBegin(id);
      const uint32_t len = SetLen(id);
      for (uint32_t i = 0; i < len; ++i) {
        int& slot = global_to_local_[static_cast<size_t>(e[i])];
        if (slot < 0) {
          slot = static_cast<int>(local_to_dense.size());
          local_to_dense.push_back(e[i]);
        }
        region_local.pool.push_back(slot);
      }
      region_local.sets.push_back(SetSpan{offset, len});
    }
    DisjointSet dsu(static_cast<int>(local_to_dense.size()));
    for (size_t s = 0; s < region_local.size(); ++s) {
      const int* p = region_local.begin(s);
      for (size_t j = 1; j < region_local.len(s); ++j) {
        dsu.Union(p[0], p[static_cast<size_t>(j)]);
      }
    }
    // Group region sets by sub-component, first-seen order.
    std::vector<int> root_group(local_to_dense.size(), -1);
    std::vector<std::vector<int>> group_sets;  // indices into region
    for (size_t s = 0; s < region.size(); ++s) {
      int root = dsu.Find(region_local.begin(s)[0]);
      int& g = root_group[static_cast<size_t>(root)];
      if (g < 0) {
        g = static_cast<int>(group_sets.size());
        group_sets.emplace_back();
      }
      group_sets[static_cast<size_t>(g)].push_back(static_cast<int>(s));
    }
    // Distribute the seed elements to their sub-components.
    std::vector<std::vector<int>> group_seeds(group_sets.size());
    for (int e : seeds) {
      int slot = global_to_local_[static_cast<size_t>(e)];
      if (slot < 0) continue;  // the seed's element dropped out entirely
      int g = root_group[static_cast<size_t>(dsu.Find(slot))];
      if (g >= 0) group_seeds[static_cast<size_t>(g)].push_back(e);
    }

    // The rebuild is three passes so the hard solves can fan out to a
    // worker pool without touching shared session state:
    //  1. (serial) label assignment, comp_label_/SetState mutation, and
    //     the closed-form tiers — all the passes that write shared
    //     structures are cheap;
    //  2. (parallel when solver_threads > 1) the hard sub-components —
    //     each task reads only its own comp.sets / seeds and writes
    //     only its own GroupTask slot, with the nested exact solve kept
    //     serial (the pool is not reentrant);
    //  3. (serial, partition order) adoption into components_ and the
    //     running totals.
    // Pass 2 tasks are self-contained and internally serial, so every
    // epoch outcome is byte-identical to the serial session.
    struct GroupTask {
      int label = -1;
      Component comp;
      bool done = false;      // a pass-1 closed form finished it
      bool resolved = false;  // a pass-2 search tier ran
    };
    std::vector<GroupTask> tasks(group_sets.size());

    for (size_t g = 0; g < group_sets.size(); ++g) {
      const std::vector<int>& members = group_sets[g];
      Component& comp = tasks[g].comp;
      comp.sets.reserve(members.size());
      // The label is the component's minimum dense element: unique per
      // component, stable while the component is untouched.
      int label = std::numeric_limits<int>::max();
      for (int m : members) {
        const int32_t id = region[static_cast<size_t>(m)];
        const int* e = DenseBegin(id);
        const uint32_t len = SetLen(id);
        for (uint32_t i = 0; i < len; ++i) label = std::min(label, e[i]);
        comp.sets.push_back(id);
      }
      for (size_t k = 0; k < members.size(); ++k) {
        SetState& s = set_states_[static_cast<size_t>(comp.sets[k])];
        s.label = label;
        s.label_slot = static_cast<int>(k);
        const int* e = DenseBegin(comp.sets[k]);
        const uint32_t len = SetLen(comp.sets[k]);
        for (uint32_t i = 0; i < len; ++i) {
          comp_label_[static_cast<size_t>(e[i])] = label;
        }
      }
      tasks[g].label = label;

      // Tiered solve. Closed forms first: one set (any element), two
      // sets (a shared element or one of each), a common element across
      // all sets (the star shape a graph vertex's edges produce).
      const size_t count = comp.sets.size();
      bool done = false;
      if (count == 1) {
        const int* s0 = DenseBegin(comp.sets[0]);
        comp.size = 1;
        comp.solution.push_back(
            *std::min_element(s0, s0 + SetLen(comp.sets[0])));
        done = true;
      } else if (count == 2) {
        const int* s0 = DenseBegin(comp.sets[0]);
        const uint32_t n0 = SetLen(comp.sets[0]);
        const int* s1 = DenseBegin(comp.sets[1]);
        const uint32_t n1 = SetLen(comp.sets[1]);
        int common = -1;
        for (uint32_t i = 0; i < n0; ++i) {
          for (uint32_t j = 0; j < n1; ++j) {
            if (s0[i] == s1[j] && (common < 0 || s0[i] < common)) {
              common = s0[i];
            }
          }
        }
        if (common >= 0) {
          comp.size = 1;
          comp.solution.push_back(common);
        } else {
          comp.size = 2;
          comp.solution.push_back(*std::min_element(s0, s0 + n0));
          comp.solution.push_back(*std::min_element(s1, s1 + n1));
        }
        done = true;
      } else {
        std::vector<int> common(DenseBegin(comp.sets[0]),
                                DenseBegin(comp.sets[0]) +
                                    SetLen(comp.sets[0]));
        for (size_t k = 1; !common.empty() && k < count; ++k) {
          const int* s = DenseBegin(comp.sets[k]);
          const uint32_t n = SetLen(comp.sets[k]);
          std::vector<int> kept;
          for (int e : common) {
            for (uint32_t i = 0; i < n; ++i) {
              if (s[i] == e) {
                kept.push_back(e);
                break;
              }
            }
          }
          common.swap(kept);
        }
        if (!common.empty()) {
          comp.size = 1;
          comp.solution.push_back(
              *std::min_element(common.begin(), common.end()));
          done = true;
        }
      }
      if (done) {
        comp.lower = comp.size;
        comp.proven = true;
        std::sort(comp.solution.begin(), comp.solution.end());
        tasks[g].done = true;
      }
    }

    // Pass 2: the hard sub-components. Each task is self-contained —
    // compact local ids, repair the dissolved incumbent for the upper
    // bound, certify with the packing dual, and only a remaining gap
    // pays for the branch-and-bound core (whose own domination / flow
    // machinery then runs on this component alone).
    std::vector<size_t> hard;
    for (size_t g = 0; g < tasks.size(); ++g) {
      if (!tasks[g].done) hard.push_back(g);
    }
    auto solve_hard = [&](size_t idx) {
      const size_t g = hard[idx];
      GroupTask& task = tasks[g];
      Component& comp = task.comp;
      const size_t count = comp.sets.size();
      std::vector<int> sub_to_dense;
      HittingSetFamily local_sets;
      local_sets.sets.reserve(count);
      {
        std::unordered_map<int, int> sub_ids;
        sub_ids.reserve(16);
        for (size_t k = 0; k < count; ++k) {
          const int* s = DenseBegin(comp.sets[k]);
          const uint32_t n = SetLen(comp.sets[k]);
          const uint32_t offset =
              static_cast<uint32_t>(local_sets.pool.size());
          for (uint32_t i = 0; i < n; ++i) {
            auto [it, inserted] =
                sub_ids.emplace(s[i], static_cast<int>(sub_to_dense.size()));
            if (inserted) sub_to_dense.push_back(s[i]);
            local_sets.pool.push_back(it->second);
          }
          local_sets.sets.push_back(SetSpan{offset, n});
        }
        std::vector<int> incumbent;
        for (int e : group_seeds[g]) {
          auto it = sub_ids.find(e);
          if (it != sub_ids.end()) incumbent.push_back(it->second);
        }
        std::vector<int> repaired =
            RepairIncumbent(local_sets, static_cast<int>(sub_to_dense.size()),
                            std::move(incumbent));
        const int upper = static_cast<int>(repaired.size());
        const int packing = QuickPackingBound(
            local_sets, static_cast<int>(sub_to_dense.size()));
        if (packing == upper) {
          comp.size = upper;
          comp.lower = upper;
          comp.proven = true;
          for (int e : repaired) {
            comp.solution.push_back(sub_to_dense[static_cast<size_t>(e)]);
          }
        } else if (TinyEligible(local_sets)) {
          task.resolved = true;
          TinySolver tiny{local_sets,
                          std::vector<bool>(sub_to_dense.size(), false),
                          {},
                          repaired};
          tiny.Search();
          comp.size = static_cast<int>(tiny.best.size());
          comp.lower = comp.size;
          comp.proven = true;
          for (int e : tiny.best) {
            comp.solution.push_back(sub_to_dense[static_cast<size_t>(e)]);
          }
        } else if (HittingSetLowerBound(local_sets) == upper) {
          // The full root bound (domination + fractional matching) can
          // still certify a big component the cheap packing could not —
          // one reduction pass instead of a search.
          comp.size = upper;
          comp.lower = upper;
          comp.proven = true;
          for (int e : repaired) {
            comp.solution.push_back(sub_to_dense[static_cast<size_t>(e)]);
          }
        } else {
          task.resolved = true;
          ExactOptions exact;
          exact.witness_limit = kNoWitnessLimit;  // stream already budgeted
          exact.node_budget = options_.exact_node_budget;
          // Deliberately serial (the default): this task already runs
          // on a pool worker and the pool is not reentrant, and a
          // serial inner solve keeps the component's answer — size,
          // proof, and chosen set — byte-identical to the serial
          // session.
          ExactStats stats;
          HittingSetResult hs = SolveMinHittingSet(local_sets, exact, &stats);
          if (!hs.proven_optimal && upper < hs.size) {
            // The budget-stopped search's incumbent lost to the
            // repaired restriction — keep the better feasible answer.
            hs.size = upper;
            hs.chosen = std::move(repaired);
          }
          comp.size = hs.size;
          comp.proven = hs.proven_optimal;
          comp.lower = comp.proven ? hs.size : std::max(packing, 1);
          for (int e : hs.chosen) {
            comp.solution.push_back(sub_to_dense[static_cast<size_t>(e)]);
          }
        }
      }
      std::sort(comp.solution.begin(), comp.solution.end());
    };
    obs::Count("incremental.hard_solves", hard.size());
    const int threads = std::max(1, options_.solver_threads);
    if (threads > 1 && hard.size() > 1) {
      if (pool_ == nullptr) pool_.reset(new WorkerPool(threads));
      pool_->Run(hard.size(), solve_hard);
    } else {
      for (size_t idx = 0; idx < hard.size(); ++idx) solve_hard(idx);
    }

    // Pass 3: adopt in partition order.
    {
      obs::Span adopt_span("adopt", "incremental");
      for (GroupTask& task : tasks) {
        out->resolved = out->resolved || task.resolved;
        AdoptComponent(task.label, std::move(task.comp));
      }
    }
    for (int e : local_to_dense) {
      global_to_local_[static_cast<size_t>(e)] = -1;
    }
  }

  if (unbreakable) {
    // Some live witness uses no endogenous tuple: resilience is
    // undefined until deletions kill every such witness. The
    // decomposition keeps being maintained so the session can resume.
    out->unbreakable = true;
    return;
  }

  out->resilience = total_size_;
  out->upper_bound = total_size_;
  out->lower_bound = total_lower_;
  if (unproven_components_ > 0) {
    out->budget_exceeded = true;
    out->error = "exact node budget exhausted: resilience is an upper bound";
  }

  out->contingency.reserve(static_cast<size_t>(total_size_));
  for (const auto& [label, comp] : components_) {
    for (int e : comp.solution) {
      out->contingency.push_back(dense_tuples_[static_cast<size_t>(e)]);
    }
  }
  std::sort(out->contingency.begin(), out->contingency.end());
}

}  // namespace rescq
