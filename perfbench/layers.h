#ifndef RESCQ_PERFBENCH_LAYERS_H_
#define RESCQ_PERFBENCH_LAYERS_H_

// The traced run's in-process replays: the same generated inputs, fed
// layer by layer into each module's public functions, every call inside
// a span. Each Measure* fills the per-layer metrics of its layer.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "inputs.h"
#include "resilience/engine.h"
#include "spans.h"

namespace perfbench {

/// The scripts a counted replay covers: writer w's first `sessions`
/// scripts (cycling its pool), writer-major — the same sessions the
/// traced socket phase runs.
std::vector<int> ReplayScripts(const ServedInputs& in, int sessions);

/// obs.count_armed_ns / obs.count_dark_ns: one obs::Count call.
void MeasureObsCount(Metrics* m);

/// cq.parse_us, complexity.classify_us and the cold
/// resilience.engine.plan_ms, per distinct query.
void MeasureQueryLayers(const std::vector<std::string>& queries,
                        SpanRecorder* rec, Metrics* m);

/// server.handle_us.<verb>, server.requests.<verb>,
/// resilience.engine.plan_hit_ratio and obs.handle_armed_ratio from
/// ProtocolHandler::Handle on the workload's script (no socket), plus
/// the replay's tracing overhead. Returns the replay's `err` replies.
uint64_t MeasureHandle(const ServedInputs& in, int sessions,
                       SpanRecorder* rec, Metrics* m, double* trace_overhead);

/// resilience.session.*: the IncrementalSession constructor and Apply
/// on the same bases and epochs.
void MeasureSessions(const ServedInputs& in, int sessions, SpanRecorder* rec,
                     Metrics* m);

/// db.tuple_io.parse_us: ParseFactLine / ParseUpdateLine on the
/// request lines.
void MeasureParse(const ServedInputs& in, int sessions, SpanRecorder* rec,
                  Metrics* m);

/// Totals of the exact path (CollectWitnessFamily, then
/// SolveMinHittingSet on the collected family).
struct ExactTotals {
  uint64_t witnesses = 0;
  uint64_t sets = 0;
  uint64_t nodes = 0;
  uint64_t packing_prunes = 0;
  uint64_t flow_prunes = 0;
  uint64_t components = 0;
};

/// One exact-path replay of (q, db); returns its value (-1 =
/// unbreakable), the exact answer.
int ExactPath(const rescq::Query& q, const rescq::Database& db,
              SpanRecorder* rec, uint64_t request, ExactTotals* totals);

/// db.witness.* and resilience.exact.* from the exact-path spans.
void ReportExact(const ExactTotals& totals, SpanRecorder* rec, Metrics* m);

/// solve_mix's traced pass: ResilienceEngine::Solve per deck instance
/// (resilience.engine.solve_ms.<solver>, plan_hit_ratio) and the exact
/// path on the same instance, which doubles as the oracle. Returns the
/// number of engine answers that disagreed with the exact path;
/// *checked counts the comparisons. *solve_ms gets the latency of every
/// traced Solve, over this pass and the overhead passes.
uint64_t MeasureDeck(const SolveDeck& deck, SpanRecorder* rec, Metrics* m,
                     double* trace_overhead, uint64_t* checked,
                     std::vector<double>* solve_ms);

}  // namespace perfbench

#endif  // RESCQ_PERFBENCH_LAYERS_H_
