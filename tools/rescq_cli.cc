// rescq — command-line driver for the resilience library.
//
// The first end-to-end scenario a user can run without writing C++:
// parse a Boolean conjunctive query, decide the complexity of RES(q)
// following the paper's dichotomy, and (given a tuple file) compute the
// resilience with the matching solver.
//
//   rescq classify "R(x,y), S(y,z), T(z,x)"
//   rescq classify --name q_chain
//   rescq resilience "R(x,y), R(y,z)" data/section2_chain.tuples
//   rescq explain --name q_Aperm
//   rescq catalog
//   rescq catalog q_AC3conf
//   rescq gen --scenario vc_er --size 12 --seed 1 --out er.tuples
//   rescq batch --scenarios all --max-size 8 --threads 4 --check-oracle

#include <algorithm>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "complexity/catalog.h"
#include "complexity/classifier.h"
#include "cq/parser.h"
#include "db/database.h"
#include "db/delta.h"
#include "db/tuple_io.h"
#include "db/witness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/engine.h"
#include "resilience/result.h"
#include "resilience/solver.h"
#include "server/loadgen.h"
#include "server/router.h"
#include "server/server.h"
#include "util/string_util.h"
#include "workload/batch.h"
#include "workload/churn.h"
#include "workload/generators.h"
#include "workload/report.h"
#include "workload/stream.h"

namespace rescq {
namespace {

int Usage(std::FILE* out) {
  std::fprintf(out,
               "rescq — resilience of binary conjunctive queries with "
               "self-joins (PODS 2020)\n"
               "\n"
               "usage:\n"
               "  rescq classify (<query> | --name <catalog-name>)\n"
               "      Decide the complexity of RES(q) and cite the paper "
               "pattern.\n"
               "  rescq resilience (<query> | --name <catalog-name>) "
               "<tuples-file> [--exact]\n"
               "                   [--witness-limit N] "
               "[--exact-node-budget N] [--solver-threads N]\n"
               "                   [--stats] [--metrics-json <file>] "
               "[--trace-out <file>]\n"
               "      Compute rho(q, D) over the tuple file; --exact forces "
               "the reference solver.\n"
               "      --stats prints plan/solve timings and the "
               "(deterministic) search counters;\n"
               "      --metrics-json snapshots the metrics registry "
               "(rescq-metrics/v1) and\n"
               "      --trace-out records a Chrome trace_event file for "
               "chrome://tracing / Perfetto.\n"
               "      --witness-limit caps the streamed witness enumeration "
               "(exceeding it is a\n"
               "      reported outcome, not a truncated answer); "
               "--exact-node-budget caps the\n"
               "      branch-and-bound search (the incumbent is returned as "
               "an upper bound);\n"
               "      --solver-threads fans independent hitting-set "
               "components out to workers\n"
               "      (the resilience value is identical for any count).\n"
               "  rescq explain (<query> | --name <catalog-name>)\n"
               "      Print the reusable resilience plan: pipeline stages, "
               "per-component\n"
               "      classification, and the registered solver (with paper "
               "citation)\n"
               "      the engine will dispatch to.\n"
               "  rescq catalog [<name>]\n"
               "      List every named query of the paper with its published\n"
               "      verdict and the classifier's verdict (or detail one).\n"
               "  rescq gen --scenario <name> [--size N] [--density D] "
               "[--seed S]\n"
               "            [--name <catalog-query>] [--out <file>] | --list\n"
               "      Write a generated instance as a tuple file (stdout by "
               "default);\n"
               "      --list shows the scenario catalog.\n"
               "  rescq batch [--scenarios <a,b|all>] [--names <q1,q2>] "
               "[--plan <file>]\n"
               "              [--sizes 4,6,8 | --max-size N] [--seeds 1,2] "
               "[--density D]\n"
               "              [--threads N] [--solver-threads N] "
               "[--check-oracle] [--oracle-cutoff N]\n"
               "              [--no-memoize] [--witness-limit N] "
               "[--exact-node-budget N]\n"
               "              [--csv <file>] [--json <file>] "
               "[--metrics-json <file>] [--trace-out <file>]\n"
               "      Sweep (query x scenario x size x seed) across a worker "
               "pool and\n"
               "      report per-cell resilience, solver, timing, and oracle "
               "checks.\n"
               "  rescq stream (<query> | --name <catalog-name>) "
               "<tuples-file>\n"
               "              (--updates <file> | --churn "
               "<insert|delete|mixed|hub>)\n"
               "              [--epochs N] [--rate R] [--seed S] "
               "[--emit-updates <file>]\n"
               "              [--check-oracle] [--witness-limit N] "
               "[--exact-node-budget N]\n"
               "              [--solver-threads N] [--csv <file>] "
               "[--json <file>]\n"
               "              [--metrics-json <file>] [--trace-out <file>]\n"
               "      Maintain the resilience incrementally under an update "
               "stream and\n"
               "      report one row per epoch (bounds, re-solves, timings); "
               "--updates\n"
               "      replays an update file, --churn generates one "
               "deterministically\n"
               "      (--emit-updates saves it), --check-oracle diffs every "
               "epoch against\n"
               "      a from-scratch exact solve.\n"
               "  rescq serve [--host H] [--port P] [--threads N] "
               "[--solver-threads N]\n"
               "              [--max-sessions N] [--max-base-tuples N] "
               "[--max-epoch-updates N]\n"
               "              [--default-witness-limit N] "
               "[--max-witness-limit N]\n"
               "              [--default-node-budget N] "
               "[--max-node-budget N]\n"
               "              [--max-resident-mb N] [--evict-idle-ms N]\n"
               "              [--no-load] [--no-shutdown] "
               "[--metrics-json <file>]\n"
               "      Run the resilience daemon: named incremental sessions "
               "over a\n"
               "      line-based TCP protocol (docs/SERVER.md). --port 0 "
               "picks an\n"
               "      ephemeral port (announced on stdout); SIGINT/SIGTERM "
               "stop it\n"
               "      gracefully and --metrics-json snapshots the registry "
               "on shutdown.\n"
               "  rescq route (--shard host:port ... | --shards N) [--host H] "
               "[--port P]\n"
               "              [--threads N] [--connect-timeout-ms N] "
               "[--request-timeout-ms N]\n"
               "              [--retries N] [--backoff-ms N] "
               "[--down-cooldown-ms N]\n"
               "              [--no-shutdown] [--metrics-json <file>]\n"
               "      Run the consistent-hash sharding front-end: speaks the "
               "same line\n"
               "      protocol, places each named session on one backend "
               "`rescq serve`\n"
               "      shard and forwards its verbs there; `stats`/`sessions` "
               "aggregate\n"
               "      across all shards. --shard (repeatable) lists external "
               "backends;\n"
               "      --shards N spawns N in-process serve instances on "
               "ephemeral ports.\n"
               "  rescq loadgen --port P [--host H] [--connections M] "
               "[--scenario <name>]\n"
               "               [--query <q>] [--size N] [--density D] "
               "[--churn <kind>]\n"
               "               [--epochs N] [--rate R] [--seed S] "
               "[--check-oracle]\n"
               "               [--witness-limit N] [--node-budget N] "
               "[--session-prefix P]\n"
               "               [--timeout-ms N] [--csv <file>] "
               "[--json <file>]\n"
               "      Drive a live server: M concurrent connections each "
               "open a session,\n"
               "      push a generated base, and loop churn epochs + "
               "queries; reports\n"
               "      throughput and p50/p99/p999 latency "
               "(rescq-loadgen-report/v1);\n"
               "      --check-oracle diffs every served answer against a "
               "from-scratch\n"
               "      exact solve on a local mirror.\n"
               "  rescq help\n"
               "\n"
               "query syntax:   \"q :- R(x,y), S^x(y,z), A(x)\"   (head "
               "optional; ^x = exogenous)\n"
               "tuple file:     one fact per line, e.g. \"R(a,b)\"; '#' "
               "starts a comment\n");
  return out == stdout ? 0 : 2;
}

// --- flags -------------------------------------------------------------------

/// One row of a subcommand's flag table: the flag, what its value must
/// be (`needs`; empty for a switch, which takes no value), and the
/// setter that writes the target field. A setter returns false when the
/// value is outside `needs`; ApplyFlags owns every message.
struct Flag {
  const char* name;
  std::string needs;
  std::function<bool(const std::string&)> set;
  /// The flag ends the parse: later arguments are ignored (gen --list).
  bool last = false;
};

Flag SwitchFlag(const char* name, bool* dst, bool value = true) {
  return {name, "", [=](const std::string&) {
            *dst = value;
            return true;
          }};
}

Flag StringFlag(const char* name, std::string* dst) {
  return {name, "a value", [=](const std::string& v) {
            *dst = v;
            return true;
          }};
}

Flag PositiveIntFlag(const char* name, int* dst) {
  return {name, "a positive integer",
          [=](const std::string& v) { return ParsePositiveInt(v, dst); }};
}

Flag ProbabilityFlag(const char* name, double* dst) {
  return {name, "a number in [0,1]",
          [=](const std::string& v) { return ParseProbability(v, dst); }};
}

/// A decimal integer in [lo, hi], stored times `scale`. The default
/// bounds are T's own range, so no accepted value wraps or turns
/// negative in the target field.
template <typename T>
Flag UintFlag(const char* name, T* dst, uint64_t lo = 0,
              uint64_t hi = std::numeric_limits<T>::max(), uint64_t scale = 1) {
  std::string needs = lo == 0 && hi == UINT64_MAX
                          ? "an unsigned integer"
                          : StrFormat("%llu..%llu",
                                      static_cast<unsigned long long>(lo),
                                      static_cast<unsigned long long>(hi));
  return {name, needs, [=](const std::string& v) {
            uint64_t u = 0;
            if (!ParseUint64(v, &u) || u < lo || u > hi) return false;
            *dst = static_cast<T>(u * scale);
            return true;
          }};
}

Flag PortFlag(const char* name, int* dst, uint64_t lo) {
  return UintFlag(name, dst, lo, 65535);
}

/// Applies `args` to the flag table in order. A non-flag argument goes
/// to *positional, or counts as an unknown flag when the command takes
/// no positionals. Returns false, with the message printed, on an
/// unknown flag, a missing value or a value outside its flag's range.
bool ApplyFlags(const char* cmd, const std::vector<Flag>& flags,
                const std::vector<std::string>& args,
                std::vector<std::string>* positional = nullptr) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto flag = std::find_if(flags.begin(), flags.end(),
                             [&](const Flag& f) { return a == f.name; });
    if (flag == flags.end()) {
      if (positional == nullptr || a.rfind("--", 0) == 0) {
        std::fprintf(stderr, "error: unknown %s flag '%s'\n", cmd, a.c_str());
        return false;
      }
      positional->push_back(a);
    } else if (flag->needs.empty()) {
      flag->set(a);
      if (flag->last) return true;
    } else if (i + 1 >= args.size()) {
      std::fprintf(stderr, "error: %s needs a value\n", a.c_str());
      return false;
    } else if (!flag->set(args[++i])) {
      std::fprintf(stderr, "error: %s needs %s, got '%s'\n", a.c_str(),
                   flag->needs.c_str(), args[i].c_str());
      return false;
    }
  }
  return true;
}

/// Shared `--metrics-json` / `--trace-out` handling for the solving
/// commands (resilience | batch | stream): either path arms its sink
/// before the run (Arm) and writes the file after it (Flush). With
/// neither flag the instrumentation stays disabled and costs one
/// relaxed load per call site. serve and route flush only the metrics
/// snapshot, at shutdown.
struct ObsSinks {
  std::string metrics_path;
  std::string trace_path;

  void Arm() const {
    if (!metrics_path.empty()) obs::SetMetricsEnabled(true);
    if (!trace_path.empty()) obs::StartTrace();
  }

  /// 0 on success, 2 on I/O failure (with a message printed).
  int Flush() const {
    if (!trace_path.empty()) {
      obs::StopTrace();
      if (!obs::WriteTraceJson(trace_path)) {
        std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                     trace_path.c_str());
        return 2;
      }
    }
    if (!metrics_path.empty() &&
        !obs::WriteMetricsJson(obs::GlobalRegistry(), metrics_path)) {
      std::fprintf(stderr, "error: cannot write metrics file '%s'\n",
                   metrics_path.c_str());
      return 2;
    }
    return 0;
  }
};

/// Resolves the query: the PaperCatalog() entry named by `--name` when
/// one is given, else the first positional argument (taken off
/// *positional) parsed as a query. Returns nullopt (with a message
/// printed) on failure.
std::optional<Query> ResolveQuery(const std::string& catalog_name,
                                  std::vector<std::string>* positional) {
  if (!catalog_name.empty()) {
    std::optional<CatalogEntry> entry = FindCatalogEntry(catalog_name);
    if (!entry) {
      std::fprintf(stderr,
                   "error: no catalog query named '%s' (try `rescq "
                   "catalog`)\n",
                   catalog_name.c_str());
      return std::nullopt;
    }
    return MustParseQuery(entry->text);
  }
  if (positional->empty()) {
    std::fprintf(stderr, "error: missing query argument\n");
    return std::nullopt;
  }
  ParseResult parsed = ParseQuery(positional->front());
  if (!parsed.ok) {
    std::fprintf(stderr, "error: cannot parse query: %s\n",
                 parsed.error.c_str());
    return std::nullopt;
  }
  positional->erase(positional->begin());
  return parsed.query;
}

/// The whole command line of classify / explain: one query and nothing
/// else.
std::optional<Query> QueryOnly(const char* cmd,
                               const std::vector<std::string>& args) {
  std::string catalog_name;
  std::vector<std::string> positional;
  if (!ApplyFlags(cmd, {StringFlag("--name", &catalog_name)}, args,
                  &positional)) {
    return std::nullopt;
  }
  std::optional<Query> q = ResolveQuery(catalog_name, &positional);
  if (q && !positional.empty()) {
    std::fprintf(stderr, "error: unexpected argument '%s'\n",
                 positional[0].c_str());
    return std::nullopt;
  }
  return q;
}

/// Loads a tuple file into db via db/tuple_io, reporting errors on
/// stderr.
bool LoadTuples(const std::string& path, Database* db) {
  std::string error;
  if (!LoadTupleFile(path, db, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  return true;
}

void PrintClassification(const Query& q, const Classification& c) {
  std::printf("query:       %s\n", q.ToString().c_str());
  if (!(c.minimized == q)) {
    std::printf("minimized:   %s\n", c.minimized.ToString().c_str());
  }
  if (!(c.normalized == c.minimized)) {
    std::printf("normalized:  %s\n", c.normalized.ToString().c_str());
  }
  std::printf("complexity:  RES(q) is %s\n", ComplexityName(c.complexity));
  std::printf("pattern:     %s\n", c.pattern.c_str());
  std::printf("reason:      %s\n", c.reason.c_str());
}

int CmdClassify(const std::vector<std::string>& args) {
  std::optional<Query> q = QueryOnly("classify", args);
  if (!q) return 2;
  PrintClassification(*q, ClassifyResilience(*q));
  return 0;
}

int CmdResilience(const std::vector<std::string>& args) {
  std::string catalog_name;
  std::vector<std::string> positional;
  bool exact = false;
  bool stats = false;
  size_t witness_limit = 0;
  uint64_t node_budget = 0;
  int solver_threads = 1;
  ObsSinks sinks;
  const std::vector<Flag> flags = {
      StringFlag("--name", &catalog_name),
      SwitchFlag("--exact", &exact),
      SwitchFlag("--stats", &stats),
      UintFlag("--witness-limit", &witness_limit),
      UintFlag("--exact-node-budget", &node_budget),
      PositiveIntFlag("--solver-threads", &solver_threads),
      StringFlag("--metrics-json", &sinks.metrics_path),
      StringFlag("--trace-out", &sinks.trace_path),
  };
  if (!ApplyFlags("resilience", flags, args, &positional)) return 2;
  std::optional<Query> q = ResolveQuery(catalog_name, &positional);
  if (!q) return 2;
  if (positional.size() != 1) {
    std::fprintf(stderr, "error: expected exactly one tuple file argument\n");
    return 2;
  }
  const std::string& tuples_path = positional[0];

  Database db;
  if (!LoadTuples(tuples_path, &db)) return 2;
  for (const std::string& rel : q->RelationNames()) {
    int id = db.RelationId(rel);
    if (id < 0) {
      std::fprintf(stderr, "warning: relation '%s' has no tuples in '%s'\n",
                   rel.c_str(), tuples_path.c_str());
    } else if (db.relation_arity(id) != q->RelationArity(rel)) {
      std::fprintf(stderr,
                   "warning: relation '%s' has arity %d in the query but "
                   "arity %d in '%s'; no fact can match\n",
                   rel.c_str(), q->RelationArity(rel), db.relation_arity(id),
                   tuples_path.c_str());
    }
  }

  Classification c = ClassifyResilience(*q);
  std::printf("query:       %s\n", q->ToString().c_str());
  std::printf("complexity:  RES(q) is %s (%s)\n", ComplexityName(c.complexity),
              c.reason.c_str());
  std::printf("database:    %d tuples over %d constants\n",
              db.NumActiveTuples(), db.domain_size());
  // Stream-count witnesses (nothing is materialized); a witness limit
  // also caps this display pass. "Capped" only when a witness beyond
  // the limit actually exists — an instance with exactly `witness_limit`
  // witnesses is complete.
  size_t witness_count = 0;
  bool witness_count_capped = false;
  ForEachWitness(*q, db, [&](const Witness&) {
    if (witness_limit != 0 && witness_count >= witness_limit) {
      witness_count_capped = true;
      return false;
    }
    ++witness_count;
    return true;
  });
  std::printf("witnesses:   %zu%s\n", witness_count,
              witness_count_capped ? "+ (capped by --witness-limit)" : "");

  EngineOptions options;
  options.force_exact = exact;
  options.witness_limit = witness_limit;
  options.exact_node_budget = node_budget;
  options.solver_threads = solver_threads;
  sinks.Arm();
  ResilienceEngine engine(options);
  SolveOutcome outcome = engine.Solve(*q, db);
  if (stats) {
    // Timings go through %.3f so golden tests can normalize every
    // decimal number to <t>; the counters are deterministic (satellite
    // of the per-component search: thread-count invariant).
    std::printf("stats:\n");
    std::printf("  plan:        %.3f ms (%s)\n", outcome.plan_ms,
                exact              ? "skipped: --exact"
                : outcome.plan_cache_hit ? "cache hit"
                                         : "cache miss");
    std::printf("  solve:       %.3f ms\n", outcome.solve_ms);
    std::printf("  witnesses:   %zu streamed, %zu distinct sets\n",
                outcome.exact.witnesses, outcome.exact.witness_sets);
    std::printf("  search:      %d component(s), %llu node(s), "
                "%llu packing / %llu flow prune(s)\n",
                outcome.exact.components,
                static_cast<unsigned long long>(outcome.exact.nodes),
                static_cast<unsigned long long>(outcome.exact.packing_prunes),
                static_cast<unsigned long long>(outcome.exact.flow_prunes));
  }
  if (outcome.exact.witnesses > 0) {
    std::printf(
        "exact search: %zu witnesses -> %zu sets, %d component(s), "
        "%llu node(s), %llu packing / %llu flow prune(s)%s\n",
        outcome.exact.witnesses, outcome.exact.witness_sets,
        outcome.exact.components,
        static_cast<unsigned long long>(outcome.exact.nodes),
        static_cast<unsigned long long>(outcome.exact.packing_prunes),
        static_cast<unsigned long long>(outcome.exact.flow_prunes),
        outcome.exact.node_budget_exceeded
            ? "  [node budget exhausted: upper bound]"
            : "");
  }
  if (!outcome.error.empty()) {
    std::printf("resilience:  not computed — %s\n", outcome.error.c_str());
    sinks.Flush();
    return 1;
  }
  const ResilienceResult& r = outcome.result;
  if (r.unbreakable) {
    std::printf(
        "resilience:  undefined — some witness uses only exogenous "
        "tuples, so no endogenous deletion can falsify q\n");
    return sinks.Flush();
  }
  std::printf("resilience:  rho(q, D) = %d  [solver: %s]\n", r.resilience,
              SolverKindName(r.solver));
  if (!r.contingency.empty()) {
    std::printf("contingency: delete");
    for (TupleId t : r.contingency) {
      std::printf(" %s", db.TupleToString(t).c_str());
    }
    std::printf("\n");
  }
  bool broken = VerifyContingency(*q, db, r.contingency);
  std::printf("verified:    query %s after deleting the contingency set\n",
              broken ? "is false" : "IS STILL TRUE (solver bug!)");
  int sink_rc = sinks.Flush();
  if (sink_rc != 0) return sink_rc;
  return broken ? 0 : 1;
}

int CmdExplain(const std::vector<std::string>& args) {
  std::optional<Query> q = QueryOnly("explain", args);
  if (!q) return 2;
  ResilienceEngine engine;
  std::shared_ptr<const ResiliencePlan> plan = engine.Plan(*q);
  std::fputs(plan->Explain(engine.registry()).c_str(), stdout);
  return 0;
}

int CmdCatalog(const std::vector<std::string>& args) {
  std::vector<std::string> names;
  if (!ApplyFlags("catalog", {}, args, &names)) return 2;
  if (names.size() > 1) {
    std::fprintf(stderr, "error: catalog takes at most one name\n");
    return 2;
  }
  if (names.size() == 1) {
    std::optional<CatalogEntry> entry = FindCatalogEntry(names[0]);
    if (!entry) {
      std::fprintf(stderr, "error: no catalog query named '%s'\n",
                   names[0].c_str());
      return 2;
    }
    std::printf("name:        %s\n", entry->name.c_str());
    std::printf("published:   %s (%s)\n", ComplexityName(entry->expected),
                entry->reference.c_str());
    Query q = MustParseQuery(entry->text);
    PrintClassification(q, ClassifyResilience(q));
    return 0;
  }

  int mismatches = 0;
  std::printf("%-18s %-13s %-13s %s\n", "name", "published", "classifier",
              "reference");
  for (const CatalogEntry& entry : PaperCatalog()) {
    Classification c = ClassifyResilience(MustParseQuery(entry.text));
    bool match = c.complexity == entry.expected;
    if (!match) ++mismatches;
    std::printf("%-18s %-13s %-13s %s%s\n", entry.name.c_str(),
                ComplexityName(entry.expected), ComplexityName(c.complexity),
                entry.reference.c_str(), match ? "" : "   << MISMATCH");
  }
  std::printf("\n%zu catalog queries; classifier agrees on %zu.\n",
              PaperCatalog().size(), PaperCatalog().size() - mismatches);
  return mismatches == 0 ? 0 : 1;
}

// --- gen / batch: the workload subsystem ------------------------------------

int CmdGen(const std::vector<std::string>& args) {
  std::string scenario_name, out_path, catalog_name;
  ScenarioParams params;
  bool list = false;
  Flag list_flag = SwitchFlag("--list", &list);
  list_flag.last = true;
  const std::vector<Flag> flags = {
      list_flag,
      StringFlag("--scenario", &scenario_name),
      PositiveIntFlag("--size", &params.size),
      ProbabilityFlag("--density", &params.density),
      UintFlag("--seed", &params.seed),
      StringFlag("--out", &out_path),
      StringFlag("--name", &catalog_name),
  };
  if (!ApplyFlags("gen", flags, args)) return 2;
  if (list) {
    std::printf("%-15s %-28s %s\n", "scenario", "default query",
                "description");
    for (const Scenario& s : ScenarioCatalog()) {
      std::printf("%-15s %-28s %s\n", s.name.c_str(), s.query.c_str(),
                  s.description.c_str());
    }
    return 0;
  }
  if (scenario_name.empty()) {
    std::fprintf(stderr, "error: gen needs --scenario <name> (or --list)\n");
    return 2;
  }
  const Scenario* scenario = FindScenario(scenario_name);
  if (scenario == nullptr) {
    std::fprintf(stderr,
                 "error: unknown scenario '%s' (try `rescq gen --list`)\n",
                 scenario_name.c_str());
    return 2;
  }
  std::string query_text = scenario->query;
  std::function<Database(const ScenarioParams&)> generate = scenario->generate;
  if (!catalog_name.empty()) {
    // Only the generic filler can honor an arbitrary query; the shaped
    // generators produce data for their own family.
    if (scenario_name != "uniform") {
      std::fprintf(stderr,
                   "error: --name only combines with --scenario uniform\n");
      return 2;
    }
    std::optional<CatalogEntry> entry = FindCatalogEntry(catalog_name);
    if (!entry) {
      std::fprintf(stderr, "error: no catalog query named '%s'\n",
                   catalog_name.c_str());
      return 2;
    }
    query_text = entry->text;
    Query q = MustParseQuery(entry->text);
    generate = [q](const ScenarioParams& p) { return GenerateUniform(q, p); };
  }

  Database db = generate(params);
  std::string header = StrFormat(
      "generated by: rescq gen --scenario %s --size %d --density %g "
      "--seed %llu%s%s\nquery: %s\n%d tuples over %d constants",
      scenario_name.c_str(), params.size, params.density,
      static_cast<unsigned long long>(params.seed),
      catalog_name.empty() ? "" : " --name ", catalog_name.c_str(),
      query_text.c_str(), db.NumActiveTuples(), db.domain_size());
  if (out_path.empty()) {
    WriteTuples(db, std::cout, header);
    return 0;
  }
  std::string error;
  if (!SaveTupleFile(db, out_path, header, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  std::printf("wrote %d tuples (%s scenario, seed %llu) to %s\n",
              db.NumActiveTuples(), scenario_name.c_str(),
              static_cast<unsigned long long>(params.seed), out_path.c_str());
  return 0;
}

int CmdBatch(const std::vector<std::string>& args) {
  BatchPlan plan;
  plan.scenarios.clear();
  BatchOptions options;
  std::string csv_path, json_path;
  ObsSinks sinks;
  int max_size = 0;
  bool sizes_set = false;
  std::vector<std::string> plan_files;
  const std::vector<Flag> flags = {
      {"--plan", "a value",
       [&](const std::string& v) {
         plan_files.push_back(v);
         return true;
       }},
      {"--scenarios", "a comma list or 'all'",
       [&](const std::string& v) {
         plan.scenarios =
             v == "all" ? AllScenarioNames() : SplitTrimmed(v, ',');
         return true;
       }},
      {"--names", "a comma list",
       [&](const std::string& v) {
         plan.query_names = SplitTrimmed(v, ',');
         return true;
       }},
      {"--sizes", "a comma list of positive integers",
       [&](const std::string& v) {
         sizes_set = true;
         return ParseIntList(v, &plan.sizes);
       }},
      PositiveIntFlag("--max-size", &max_size),
      {"--seeds", "a comma list of unsigned integers",
       [&](const std::string& v) { return ParseSeedList(v, &plan.seeds); }},
      ProbabilityFlag("--density", &plan.density),
      PositiveIntFlag("--threads", &options.threads),
      PositiveIntFlag("--solver-threads", &options.solver_threads),
      SwitchFlag("--check-oracle", &options.check_oracle),
      PositiveIntFlag("--oracle-cutoff", &options.oracle_cutoff),
      SwitchFlag("--no-memoize", &options.memoize, false),
      UintFlag("--witness-limit", &options.witness_limit),
      UintFlag("--exact-node-budget", &options.exact_node_budget),
      StringFlag("--csv", &csv_path),
      StringFlag("--json", &json_path),
      StringFlag("--metrics-json", &sinks.metrics_path),
      StringFlag("--trace-out", &sinks.trace_path),
  };
  if (!ApplyFlags("batch", flags, args)) return 2;
  if (!plan_files.empty()) {
    // A plan file gives the baseline and explicit flags override it, so
    // the flags apply once more on top of the loaded files.
    for (const std::string& path : plan_files) {
      std::string error;
      if (!ParsePlanFile(path, &plan, &options, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
      }
    }
    ApplyFlags("batch", flags, args);
  }
  if (max_size > 0) {
    if (sizes_set) {
      std::fprintf(stderr,
                   "error: --sizes and --max-size are mutually exclusive\n");
      return 2;
    }
    plan.sizes.clear();
    for (int s = 2; s <= max_size; s += 2) plan.sizes.push_back(s);
    // An odd --max-size is still swept: the grid is 2,4,...,N-1,N.
    if (plan.sizes.empty() || plan.sizes.back() != max_size) {
      plan.sizes.push_back(max_size);
    }
  }
  if (plan.scenarios.empty() && plan.query_names.empty()) {
    plan.scenarios = AllScenarioNames();
  }

  std::vector<BatchJob> jobs;
  std::string error;
  if (!ExpandPlan(plan, &jobs, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  sinks.Arm();
  BatchReport report = RunBatch(jobs, options);
  PrintReportTable(report, stdout);
  if (!csv_path.empty() && !SaveReportCsv(report, csv_path, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (!json_path.empty() && !SaveReportJson(report, json_path, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  int sink_rc = sinks.Flush();
  if (sink_rc != 0) return sink_rc;
  return report.mismatches == 0 ? 0 : 1;
}

int CmdStream(const std::vector<std::string>& args) {
  std::string catalog_name;
  std::vector<std::string> positional;
  std::string updates_path, churn_kind, emit_path, csv_path, json_path;
  ChurnParams churn;
  StreamOptions options;
  ObsSinks sinks;
  const std::vector<Flag> flags = {
      StringFlag("--name", &catalog_name),
      StringFlag("--updates", &updates_path),
      StringFlag("--churn", &churn_kind),
      PositiveIntFlag("--epochs", &churn.epochs),
      ProbabilityFlag("--rate", &churn.rate),
      UintFlag("--seed", &churn.seed),
      StringFlag("--emit-updates", &emit_path),
      SwitchFlag("--check-oracle", &options.check_oracle),
      PositiveIntFlag("--solver-threads", &options.solver_threads),
      UintFlag("--witness-limit", &options.witness_limit),
      UintFlag("--exact-node-budget", &options.exact_node_budget),
      StringFlag("--csv", &csv_path),
      StringFlag("--json", &json_path),
      StringFlag("--metrics-json", &sinks.metrics_path),
      StringFlag("--trace-out", &sinks.trace_path),
  };
  if (!ApplyFlags("stream", flags, args, &positional)) return 2;
  std::optional<Query> q = ResolveQuery(catalog_name, &positional);
  if (!q) return 2;
  if (positional.size() != 1) {
    std::fprintf(stderr, "error: expected exactly one tuple file argument\n");
    return 2;
  }
  const std::string& base_path = positional[0];
  if (updates_path.empty() == churn_kind.empty()) {
    std::fprintf(stderr,
                 "error: stream needs exactly one of --updates <file> or "
                 "--churn <kind>\n");
    return 2;
  }
  if (!churn_kind.empty() && !IsChurnKind(churn_kind)) {
    std::fprintf(stderr, "error: unknown churn kind '%s' (one of:",
                 churn_kind.c_str());
    for (const ChurnKind& k : ChurnCatalog()) {
      std::fprintf(stderr, " %s", k.name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }

  Database db;
  if (!LoadTuples(base_path, &db)) return 2;

  UpdateLog log;
  std::string error;
  if (!updates_path.empty()) {
    if (!LoadUpdateFile(updates_path, &log, &error) ||
        !ValidateUpdateLog(log, db, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
  } else {
    log = GenerateChurn(db, churn_kind, churn);
  }
  if (!emit_path.empty()) {
    std::string header = StrFormat(
        "generated by: rescq stream --churn %s --epochs %d --rate %g "
        "--seed %llu\nbase: %s (%d tuples)\n%zu update(s) in %zu epoch(s)",
        churn_kind.c_str(), churn.epochs, churn.rate,
        static_cast<unsigned long long>(churn.seed),
        base_path.c_str(), db.NumActiveTuples(), log.size(),
        log.epochs.size());
    if (churn_kind.empty()) header = "replayed from: " + updates_path;
    if (!SaveUpdateFile(log, emit_path, header, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
  }

  std::string query_name = catalog_name.empty() ? "query" : catalog_name;
  sinks.Arm();
  StreamReport report = RunStream(*q, query_name, db, log, options);
  PrintStreamTable(report, stdout);
  if (!csv_path.empty() && !SaveStreamCsv(report, csv_path, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (!json_path.empty() && !SaveStreamJson(report, json_path, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  int sink_rc = sinks.Flush();
  if (sink_rc != 0) return sink_rc;
  return report.mismatches == 0 ? 0 : 1;
}

// The serving process's one server (or router) instance, for the
// signal handlers. SignalStop is async-signal-safe (a single pipe
// write).
ResilienceServer* g_server = nullptr;
ShardRouter* g_router = nullptr;

extern "C" void HandleStopSignal(int) {
  if (g_server != nullptr) g_server->SignalStop();
  if (g_router != nullptr) g_router->SignalStop();
}

int CmdServe(const std::vector<std::string>& args) {
  ServerOptions options;
  options.threads = 4;
  ServerLimits& limits = options.limits;
  ObsSinks sinks;
  const std::vector<Flag> flags = {
      StringFlag("--host", &options.host),
      PortFlag("--port", &options.port, 0),
      PositiveIntFlag("--threads", &options.threads),
      PositiveIntFlag("--solver-threads", &limits.solver_threads),
      UintFlag("--max-sessions", &limits.max_sessions),
      UintFlag("--max-base-tuples", &limits.max_base_tuples),
      UintFlag("--max-epoch-updates", &limits.max_epoch_updates),
      UintFlag("--default-witness-limit", &limits.default_witness_limit),
      UintFlag("--max-witness-limit", &limits.max_witness_limit),
      UintFlag("--default-node-budget", &limits.default_node_budget),
      UintFlag("--max-node-budget", &limits.max_node_budget),
      // Mebibytes, stored as bytes: the bound keeps the product in range.
      UintFlag("--max-resident-mb", &limits.max_resident_bytes, 0,
               UINT64_MAX >> 20, uint64_t{1} << 20),
      UintFlag("--evict-idle-ms", &limits.evict_idle_ms),
      SwitchFlag("--no-load", &limits.allow_load, false),
      SwitchFlag("--no-shutdown", &limits.allow_shutdown, false),
      StringFlag("--metrics-json", &sinks.metrics_path),
  };
  if (!ApplyFlags("serve", flags, args)) return 2;
  // server.* counters and latency histograms are the daemon's whole
  // observability story, so serving always collects them.
  obs::SetMetricsEnabled(true);

  EngineOptions engine_options;
  engine_options.witness_limit = limits.max_witness_limit;
  engine_options.exact_node_budget = limits.max_node_budget;
  ResilienceEngine engine(engine_options);
  ResilienceServer server(options, &engine);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  // The announced line is the startup contract: tests and the smoke
  // harness parse the resolved port out of it.
  std::printf("listening on %s:%d\n", options.host.c_str(), server.port());
  std::fflush(stdout);
  g_server = &server;
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  server.Wait();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_server = nullptr;
  std::printf("server stopped\n");
  return sinks.Flush();
}

int CmdRoute(const std::vector<std::string>& args) {
  RouterOptions options;
  size_t spawn_shards = 0;
  int spawn_solver_threads = 1;
  ObsSinks sinks;
  const std::vector<Flag> flags = {
      StringFlag("--host", &options.host),
      PortFlag("--port", &options.port, 0),
      PositiveIntFlag("--threads", &options.threads),
      {"--shard", "host:port with port 1..65535",
       [&](const std::string& v) {
         ShardSpec spec;
         std::string error;
         if (!ParseShardSpec(v, &spec, &error)) return false;
         options.shards.push_back(spec);
         return true;
       }},
      UintFlag("--shards", &spawn_shards, 1, 64),
      PositiveIntFlag("--solver-threads", &spawn_solver_threads),
      PositiveIntFlag("--connect-timeout-ms", &options.connect_timeout_ms),
      PositiveIntFlag("--request-timeout-ms", &options.request_timeout_ms),
      PositiveIntFlag("--retries", &options.retries),
      PositiveIntFlag("--backoff-ms", &options.backoff_ms),
      PositiveIntFlag("--down-cooldown-ms", &options.down_cooldown_ms),
      SwitchFlag("--no-shutdown", &options.allow_shutdown, false),
      StringFlag("--metrics-json", &sinks.metrics_path),
  };
  if (!ApplyFlags("route", flags, args)) return 2;
  if (spawn_shards > 0 && !options.shards.empty()) {
    std::fprintf(stderr, "error: --shards and --shard are exclusive\n");
    return 2;
  }
  if (spawn_shards == 0 && options.shards.empty()) {
    std::fprintf(stderr,
                 "error: route needs backends (--shard host:port ... or "
                 "--shards N)\n");
    return 2;
  }
  obs::SetMetricsEnabled(true);

  InProcessShards spawned;
  if (spawn_shards > 0) {
    ServerOptions base;
    base.threads = 2;
    base.limits.solver_threads = spawn_solver_threads;
    std::string error;
    if (!spawned.Start(spawn_shards, base, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    options.shards = spawned.specs();
    for (size_t i = 0; i < options.shards.size(); ++i) {
      std::printf("shard %zu: %s\n", i, options.shards[i].Label().c_str());
    }
  }

  ShardRouter router(options);
  std::string error;
  if (!router.Start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  // The announced line is the startup contract, like serve's
  // "listening on ..." — harnesses parse the resolved port out of it.
  std::printf("routing on %s:%d across %zu shards\n", options.host.c_str(),
              router.port(), options.shards.size());
  std::fflush(stdout);
  g_router = &router;
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  router.Wait();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_router = nullptr;
  spawned.Stop();
  std::printf("router stopped\n");
  return sinks.Flush();
}

int CmdLoadgen(const std::vector<std::string>& args) {
  LoadgenOptions options;
  std::string csv_path, json_path;
  const std::vector<Flag> flags = {
      StringFlag("--host", &options.host),
      // loadgen dials the port, so 0 (ephemeral) is no address here.
      PortFlag("--port", &options.port, 1),
      PositiveIntFlag("--connections", &options.connections),
      StringFlag("--scenario", &options.scenario),
      StringFlag("--query", &options.query),
      PositiveIntFlag("--size", &options.size),
      ProbabilityFlag("--density", &options.density),
      StringFlag("--churn", &options.churn),
      PositiveIntFlag("--epochs", &options.epochs),
      ProbabilityFlag("--rate", &options.rate),
      UintFlag("--seed", &options.seed),
      SwitchFlag("--check-oracle", &options.check_oracle),
      UintFlag("--witness-limit", &options.witness_limit),
      UintFlag("--node-budget", &options.node_budget),
      StringFlag("--session-prefix", &options.session_prefix),
      PositiveIntFlag("--timeout-ms", &options.timeout_ms),
      StringFlag("--csv", &csv_path),
      StringFlag("--json", &json_path),
  };
  if (!ApplyFlags("loadgen", flags, args)) return 2;
  if (options.port <= 0) {
    std::fprintf(stderr,
                 "error: loadgen needs --port (the port `rescq serve` "
                 "announced)\n");
    return 2;
  }

  LoadgenReport report = RunLoadgen(options);
  PrintLoadgenTable(report, stdout);
  std::string error;
  if (!csv_path.empty() && !SaveLoadgenCsv(report, csv_path, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (!json_path.empty() && !SaveLoadgenJson(report, json_path, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (!report.error.empty()) return 2;
  return (report.oracle_mismatches == 0 && report.err_replies == 0) ? 0 : 1;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage(stderr);
  std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "help" || cmd == "--help" || cmd == "-h") return Usage(stdout);
  if (cmd == "classify") return CmdClassify(args);
  if (cmd == "resilience") return CmdResilience(args);
  if (cmd == "explain") return CmdExplain(args);
  if (cmd == "catalog") return CmdCatalog(args);
  if (cmd == "gen") return CmdGen(args);
  if (cmd == "batch") return CmdBatch(args);
  if (cmd == "stream") return CmdStream(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "route") return CmdRoute(args);
  if (cmd == "loadgen") return CmdLoadgen(args);
  std::fprintf(stderr, "error: unknown command '%s'\n\n", cmd.c_str());
  return Usage(stderr);
}

}  // namespace
}  // namespace rescq

int main(int argc, char** argv) { return rescq::Run(argc, argv); }
