#include "layers.h"

#include <map>
#include <memory>

#include "complexity/classifier.h"
#include "cq/parser.h"
#include "db/tuple_io.h"
#include "db/witness.h"
#include "obs/metrics.h"
#include "resilience/exact_solver.h"
#include "resilience/incremental.h"
#include "server/protocol.h"
#include "server/session_registry.h"
#include "served.h"
#include "util/check.h"
#include "util/string_util.h"

namespace perfbench {

using namespace rescq;

namespace {

double P50(std::vector<double> v) { return Quantile(&v, 0.5); }

double RatioOrZero(double num, double den) { return den == 0 ? 0 : num / den; }

/// One pass of the workload's script through in-process
/// ProtocolHandlers: one handler per writer connection, each session
/// open → push → begin → epochs (updates, epoch, reads, stats) →
/// close; on serve_epochs a reader handler's `use` + `resilience`
/// follows every epoch.
struct HandleReplay {
  double total_ms = 0;
  uint64_t errors = 0;
  PlanCacheStats plan;
};
HandleReplay ReplayHandle(const ServedInputs& in, int sessions, bool armed,
                          SpanRecorder* rec) {
  obs::SetMetricsEnabled(armed);
  SessionRegistry registry;
  ResilienceEngine engine;
  ServerLimits limits;
  ProtocolHandler reader(&registry, &engine, &limits);
  HandleReplay out;
  uint64_t request = 0;
  auto handle = [&](ProtocolHandler& h, Verb verb, std::string_view line) {
    ScopedSpan span(rec, "ProtocolHandler::Handle", kVerbNames[verb], ++request);
    if (StartsWith(h.Handle(line).response, "err ")) ++out.errors;
  };
  const ServedSpec& spec = in.spec;
  Clock::time_point start = Clock::now();
  for (int w = 0; w < spec.writers; ++w) {
    ProtocolHandler writer(&registry, &engine, &limits);
    for (int i = 0; i < sessions; ++i) {
      int s = w * spec.scripts_per_writer + i % spec.scripts_per_writer;
      const SessionScript& script = in.scripts[static_cast<size_t>(s)];
      ScopedSpan session_span(rec, "bench.session", nullptr, static_cast<uint64_t>(s));
      std::string name = StrFormat("w%d-%d", w, i);
      handle(writer, kOpen, "open " + name + " " + script.query_text);
      for (const std::string& line : script.push_lines) handle(writer, kPush, line);
      handle(writer, kBegin, "begin");
      for (const std::vector<std::string>& epoch : script.update_lines) {
        for (const std::string& line : epoch) handle(writer, kUpdate, line);
        handle(writer, kEpoch, "epoch");
        for (int r = 0; r < spec.reads_per_epoch; ++r) {
          handle(writer, kResilience, "resilience");
        }
        if (spec.stats_per_epoch) handle(writer, kStats, "stats");
        if (spec.reader_hz > 0) {
          handle(reader, kUse, "use " + name);
          handle(reader, kResilience, "resilience");
        }
      }
      handle(writer, kClose, "close " + name);
    }
  }
  out.total_ms = MsSince(start);
  out.plan = engine.plan_cache_stats();
  obs::SetMetricsEnabled(true);
  return out;
}

/// The deck solved once through a warm engine; the exact path rides
/// along inside each cell's span when `totals` is given.
struct DeckPass {
  double solve_ms = 0;  // engine solves only
  uint64_t checked = 0;
  uint64_t disagreed = 0;
};
DeckPass SolveDeckOnce(const SolveDeck& deck, ResilienceEngine* engine,
                       SpanRecorder* rec, ExactTotals* totals) {
  DeckPass pass;
  for (size_t i = 0; i < deck.instances.size(); ++i) {
    const DeckInstance& d = deck.instances[i];
    ScopedSpan cell(rec, "bench.cell", nullptr, i);
    Clock::time_point start = Clock::now();
    SolveOutcome outcome;
    {
      ScopedSpan span(rec, "ResilienceEngine::Solve", nullptr, i);
      outcome = engine->Solve(d.query, d.db);
      span.SetDetail(SolverKindName(outcome.result.solver));
    }
    pass.solve_ms += MsSince(start);
    if (totals == nullptr) continue;
    int exact = ExactPath(d.query, d.db, rec, i, totals);
    ++pass.checked;
    int served = outcome.result.unbreakable ? -1 : outcome.result.resilience;
    if (!outcome.error.empty() || served != exact) ++pass.disagreed;
  }
  return pass;
}

}  // namespace

std::vector<int> ReplayScripts(const ServedInputs& in, int sessions) {
  std::vector<int> out;
  for (int w = 0; w < in.spec.writers; ++w) {
    for (int i = 0; i < sessions; ++i) {
      out.push_back(w * in.spec.scripts_per_writer + i % in.spec.scripts_per_writer);
    }
  }
  return out;
}

void MeasureObsCount(Metrics* m) {
  constexpr int kCalls = 200000;
  auto per_call_ns = [](bool armed) {
    obs::SetMetricsEnabled(armed);
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kCalls; ++i) obs::Count("perfbench.count_probe");
    return MsSince(start) * 1e6 / kCalls;
  };
  std::vector<double> armed, dark;
  for (int rep = 0; rep < 5; ++rep) {
    armed.push_back(per_call_ns(true));
    dark.push_back(per_call_ns(false));
  }
  obs::SetMetricsEnabled(true);
  m->Set("obs.count_armed_ns", Median(armed), "ns");
  m->Set("obs.count_dark_ns", Median(dark), "ns");
}

void MeasureQueryLayers(const std::vector<std::string>& queries,
                        SpanRecorder* rec, Metrics* m) {
  uint64_t request = 0;
  for (int rep = 0; rep < 200; ++rep) {
    for (const std::string& text : queries) {
      ParseResult parsed;
      {
        ScopedSpan span(rec, "ParseQuery", nullptr, ++request);
        parsed = ParseQuery(text);
      }
      ScopedSpan span(rec, "ClassifyResilience", nullptr, request);
      ClassifyResilience(parsed.query);
    }
  }
  for (int rep = 0; rep < 30; ++rep) {
    ResilienceEngine engine;  // cold plan cache
    for (const std::string& text : queries) {
      Query q = MustParseQuery(text);
      ScopedSpan span(rec, "ResilienceEngine::Plan", nullptr, ++request);
      engine.Plan(q);
    }
  }
  std::vector<const SpanRecorder*> r = {rec};
  m->Set("cq.parse_us", P50(SpanDurationsMs(r, "ParseQuery")) * 1e3, "us");
  m->Set("complexity.classify_us",
         P50(SpanDurationsMs(r, "ClassifyResilience")) * 1e3, "us");
  m->Set("resilience.engine.plan_ms",
         P50(SpanDurationsMs(r, "ResilienceEngine::Plan")), "ms");
}

uint64_t MeasureHandle(const ServedInputs& in, int sessions,
                       SpanRecorder* rec, Metrics* m, double* trace_overhead) {
  obs::GlobalRegistry().Reset();
  HandleReplay kept = ReplayHandle(in, sessions, true, rec);
  for (int v = 0; v < kVerbCount; ++v) {
    if (v == kPing) continue;
    std::string verb = kVerbNames[v];
    const obs::Counter* c =
        obs::GlobalRegistry().FindCounter("server.requests." + verb);
    m->Set("server.requests." + verb, c == nullptr ? 0 : static_cast<double>(c->Value()),
           "count");
    std::vector<double> ms = SpanDurationsMs({rec}, "ProtocolHandler::Handle", kVerbNames[v]);
    if (!ms.empty()) m->Set("server.handle_us." + verb, P50(ms) * 1e3, "us");
  }
  m->Set("resilience.engine.plan_hit_ratio",
         RatioOrZero(static_cast<double>(kept.plan.hits),
                     static_cast<double>(kept.plan.hits + kept.plan.misses)),
         "ratio");
  // Alternate armed, dark and traced replays; compare medians.
  std::vector<double> armed, dark, traced;
  uint64_t errors = kept.errors;
  for (int rep = 0; rep < 2; ++rep) {
    HandleReplay a = ReplayHandle(in, sessions, true, nullptr);
    HandleReplay d = ReplayHandle(in, sessions, false, nullptr);
    SpanRecorder throwaway(0);
    HandleReplay t = ReplayHandle(in, sessions, true, &throwaway);
    armed.push_back(a.total_ms);
    dark.push_back(d.total_ms);
    traced.push_back(t.total_ms);
    errors += a.errors + d.errors + t.errors;
  }
  m->Set("obs.handle_armed_ratio", Median(armed) / Median(dark), "ratio");
  *trace_overhead = Median(traced) / Median(armed) - 1;
  return errors;
}

void MeasureSessions(const ServedInputs& in, int sessions, SpanRecorder* rec,
                     Metrics* m) {
  uint64_t epochs = 0, resolved = 0, delta = 0, family = 0;
  std::vector<double> bytes, bytes_per_set;
  for (int s : ReplayScripts(in, sessions)) {
    const SessionScript& script = in.scripts[static_cast<size_t>(s)];
    Database base = script.base;
    std::unique_ptr<IncrementalSession> session;
    {
      ScopedSpan span(rec, "IncrementalSession::IncrementalSession", nullptr,
                      static_cast<uint64_t>(s));
      session = std::make_unique<IncrementalSession>(script.query, std::move(base));
    }
    for (const Epoch& epoch : script.log.epochs) {
      EpochOutcome out;
      {
        ScopedSpan span(rec, "IncrementalSession::Apply", nullptr,
                        static_cast<uint64_t>(s));
        out = session->Apply(epoch);
      }
      ++epochs;
      resolved += out.resolved ? 1 : 0;
      delta += out.delta_witnesses;
      family += out.family_sets;
    }
    obs::MemBreakdown mem = session->ApproxMemory();
    bytes.push_back(static_cast<double>(mem.TotalBytes()));
    bytes_per_set.push_back(mem.BytesPerWitness());
  }
  std::vector<const SpanRecorder*> r = {rec};
  std::vector<double> apply = SpanDurationsMs(r, "IncrementalSession::Apply");
  double e = static_cast<double>(epochs);
  m->Set("resilience.session.build_ms",
         P50(SpanDurationsMs(r, "IncrementalSession::IncrementalSession")), "ms");
  m->Set("resilience.session.apply_ms.p50", Quantile(&apply, 0.5), "ms",
         "n=" + std::to_string(apply.size()));
  m->SetTail("resilience.session.apply_ms.p99", apply, "ms", 0.99, "p99");
  m->Set("resilience.session.resolved_frac", RatioOrZero(static_cast<double>(resolved), e), "frac");
  m->Set("resilience.session.delta_witnesses", RatioOrZero(static_cast<double>(delta), e), "count");
  m->Set("resilience.session.family_sets", RatioOrZero(static_cast<double>(family), e), "count");
  m->Set("resilience.session.bytes", Mean(bytes), "bytes");
  m->Set("resilience.session.bytes_per_witness", Mean(bytes_per_set), "bytes/set");
}

void MeasureParse(const ServedInputs& in, int sessions, SpanRecorder* rec,
                  Metrics* m) {
  uint64_t request = 0, failures = 0;
  std::string relation, error;
  std::vector<std::string> constants;
  Update update;
  for (int s : ReplayScripts(in, sessions)) {
    const SessionScript& script = in.scripts[static_cast<size_t>(s)];
    for (const std::string& line : script.push_lines) {
      std::string_view fact = std::string_view(line).substr(5);  // after "push "
      ScopedSpan span(rec, "ParseFactLine", nullptr, ++request);
      if (!ParseFactLine(fact, &relation, &constants, &error)) ++failures;
    }
    for (const std::vector<std::string>& epoch : script.update_lines) {
      for (const std::string& line : epoch) {
        ScopedSpan span(rec, "ParseUpdateLine", nullptr, ++request);
        if (!ParseUpdateLine(line, &update, &error)) ++failures;
      }
    }
  }
  RESCQ_CHECK_EQ(failures, 0u);
  std::vector<double> ms = SpanDurationsMs({rec}, "ParseFactLine");
  std::vector<double> updates = SpanDurationsMs({rec}, "ParseUpdateLine");
  ms.insert(ms.end(), updates.begin(), updates.end());
  m->Set("db.tuple_io.parse_us", P50(ms) * 1e3, "us");
}

int ExactPath(const Query& q, const Database& db, SpanRecorder* rec,
              uint64_t request, ExactTotals* totals) {
  ScopedSpan path(rec, "bench.exact_path", nullptr, request);
  WitnessFamily family;
  {
    ScopedSpan span(rec, "CollectWitnessFamily", nullptr, request);
    family = CollectWitnessFamily(q, db, kNoWitnessLimit);
  }
  totals->witnesses += family.witnesses;
  totals->sets += family.size();
  if (family.unbreakable) return -1;
  if (family.sets.empty()) return 0;
  // Dense element ids, as ComputeResilienceExact maps them.
  std::map<TupleId, int> ids;
  HittingSetFamily hs;
  for (size_t i = 0; i < family.size(); ++i) {
    std::vector<int> set;
    for (const TupleId* t = family.begin(i); t != family.end(i); ++t) {
      set.push_back(ids.emplace(*t, static_cast<int>(ids.size())).first->second);
    }
    hs.Add(set);
  }
  ExactStats stats;
  HittingSetResult result;
  {
    ScopedSpan span(rec, "SolveMinHittingSet", nullptr, request);
    result = SolveMinHittingSet(hs, ExactOptions{}, &stats);
  }
  totals->nodes += stats.nodes;
  totals->packing_prunes += stats.packing_prunes;
  totals->flow_prunes += stats.flow_prunes;
  totals->components += static_cast<uint64_t>(stats.components);
  return result.size;
}

void ReportExact(const ExactTotals& t, SpanRecorder* rec, Metrics* m) {
  std::vector<const SpanRecorder*> r = {rec};
  m->Set("db.witness.collect_ms", Mean(SpanDurationsMs(r, "CollectWitnessFamily")), "ms");
  m->Set("db.witness.witnesses", static_cast<double>(t.witnesses), "count");
  m->Set("db.witness.sets", static_cast<double>(t.sets), "count");
  m->Set("db.witness.dedup_ratio",
         RatioOrZero(static_cast<double>(t.witnesses), static_cast<double>(t.sets)),
         "ratio");
  m->Set("resilience.exact.solve_ms", Mean(SpanDurationsMs(r, "SolveMinHittingSet")), "ms");
  m->Set("resilience.exact.nodes", static_cast<double>(t.nodes), "count");
  m->Set("resilience.exact.packing_prunes", static_cast<double>(t.packing_prunes), "count");
  m->Set("resilience.exact.flow_prunes", static_cast<double>(t.flow_prunes), "count");
  m->Set("resilience.exact.components", static_cast<double>(t.components), "count");
}

uint64_t MeasureDeck(const SolveDeck& deck, SpanRecorder* rec, Metrics* m,
                     double* trace_overhead, uint64_t* checked,
                     std::vector<double>* solve_ms) {
  // Plain and traced passes for the overhead; their traced solves, with
  // the kept pass's, make a sample large enough for a p99.
  constexpr int kOverheadPasses = 4;
  ResilienceEngine engine;
  for (const DeckInstance& d : deck.instances) engine.Plan(d.query);  // warm
  ExactTotals totals;
  DeckPass kept = SolveDeckOnce(deck, &engine, rec, &totals);
  *checked = kept.checked;
  ReportExact(totals, rec, m);
  std::vector<const SpanRecorder*> r = {rec};
  for (const char* kind : {"exact", "linear-flow", "perm-count", "perm-bipartite",
                           "exact-fallback"}) {
    std::vector<double> ms = SpanDurationsMs(r, "ResilienceEngine::Solve", kind);
    if (!ms.empty()) {
      m->Set(std::string("resilience.engine.solve_ms.") + kind, P50(ms), "ms");
    }
  }
  PlanCacheStats plan = engine.plan_cache_stats();
  m->Set("resilience.engine.plan_hit_ratio",
         RatioOrZero(static_cast<double>(plan.hits),
                     static_cast<double>(plan.hits + plan.misses)),
         "ratio");
  *solve_ms = SpanDurationsMs(r, "ResilienceEngine::Solve");
  std::vector<double> plain, traced;
  for (int rep = 0; rep < kOverheadPasses; ++rep) {
    plain.push_back(SolveDeckOnce(deck, &engine, nullptr, nullptr).solve_ms);
    SpanRecorder throwaway(0);
    traced.push_back(SolveDeckOnce(deck, &engine, &throwaway, nullptr).solve_ms);
    std::vector<double> more = SpanDurationsMs({&throwaway}, "ResilienceEngine::Solve");
    solve_ms->insert(solve_ms->end(), more.begin(), more.end());
  }
  *trace_overhead = Median(traced) / Median(plain) - 1;
  return kept.disagreed;
}

}  // namespace perfbench
