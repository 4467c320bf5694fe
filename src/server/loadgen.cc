#include "server/loadgen.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "cq/parser.h"
#include "db/delta.h"
#include "db/tuple_io.h"
#include "resilience/exact_solver.h"
#include "server/client.h"
#include "util/clock.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "workload/churn.h"
#include "workload/scenario.h"

namespace rescq {

namespace {

/// What one connection's worker measured and concluded.
struct ConnResult {
  std::vector<double> latencies_ms;
  std::vector<double> epoch_latencies_ms;
  uint64_t requests = 0;
  uint64_t err_replies = 0;
  uint64_t epochs_applied = 0;
  uint64_t oracle_checks = 0;
  uint64_t oracle_mismatches = 0;
  std::string error;  // first fatal problem; empty = clean run
};

std::string FormatUpdateLine(const Update& u) {
  std::string line = u.kind == UpdateKind::kInsert ? "+ " : "- ";
  line += u.relation + "(" + Join(u.constants, ", ") + ")";
  return line;
}

/// The base facts as push-able lines, via the canonical writer.
std::vector<std::string> FactLines(const Database& db) {
  std::ostringstream text;
  WriteTuples(db, text);
  std::vector<std::string> lines;
  for (const std::string& line : Split(text.str(), '\n')) {
    std::string_view t = Trim(line);
    if (t.empty() || t[0] == '#') continue;
    lines.push_back(std::string(t));
  }
  return lines;
}

/// One timed request; counts it, records its latency, and treats a
/// transport failure as fatal for the connection.
bool TimedRequest(LineClient* client, const std::string& line,
                  ConnResult* result, std::string* reply) {
  Clock::time_point start = Clock::now();
  std::string error;
  if (!client->Request(line, reply, &error)) {
    result->error = "request '" + line + "': " + error;
    return false;
  }
  result->latencies_ms.push_back(MsSince(start));
  ++result->requests;
  if (StartsWith(*reply, "err ")) ++result->err_replies;
  return true;
}

void RunConnection(const LoadgenOptions& options, size_t index,
                   ConnResult* result) {
  const Scenario* scenario = FindScenario(options.scenario);
  if (scenario == nullptr) {
    result->error = "unknown scenario '" + options.scenario + "'";
    return;
  }
  ScenarioParams sparams;
  sparams.size = options.size;
  sparams.density = options.density;
  sparams.seed = options.seed + index;
  Database base = scenario->generate(sparams);

  std::string query_text =
      options.query.empty() ? scenario->query : options.query;
  ParseResult parsed = ParseQuery(query_text);
  if (!parsed.ok) {
    result->error = "query: " + parsed.error;
    return;
  }

  ChurnParams cparams;
  cparams.epochs = options.epochs;
  cparams.rate = options.rate;
  cparams.seed = options.seed * 1000003 + index;
  UpdateLog log = GenerateChurn(base, options.churn, cparams);

  LineClient client;
  client.set_timeout_ms(options.timeout_ms);
  std::string error;
  if (!client.Connect(options.host, options.port, &error)) {
    result->error = error;
    return;
  }
  std::string session =
      options.session_prefix + "-" + std::to_string(index);
  std::string reply;
  if (!TimedRequest(&client, "open " + session + " " + query_text, result,
                    &reply)) {
    return;
  }
  if (!StartsWith(reply, "ok ")) {
    result->error = "open rejected: " + reply;
    return;
  }
  for (const std::string& fact : FactLines(base)) {
    if (!TimedRequest(&client, "push " + fact, result, &reply)) return;
  }
  std::string begin = "begin";
  if (options.witness_limit != 0) {
    begin += StrFormat(" witness_limit=%llu",
                       static_cast<unsigned long long>(options.witness_limit));
  }
  if (options.node_budget != 0) {
    begin += StrFormat(" node_budget=%llu",
                       static_cast<unsigned long long>(options.node_budget));
  }
  if (!TimedRequest(&client, begin, result, &reply)) return;
  if (!StartsWith(reply, "ok begin ")) {
    result->error = "begin rejected: " + reply;
    return;
  }

  Database mirror = base;  // the oracle's from-scratch view
  for (const Epoch& epoch : log.epochs) {
    for (const Update& update : epoch.updates) {
      if (!TimedRequest(&client, FormatUpdateLine(update), result, &reply)) {
        return;
      }
    }
    Clock::time_point epoch_start = Clock::now();
    if (!TimedRequest(&client, "epoch", result, &reply)) return;
    result->epoch_latencies_ms.push_back(MsSince(epoch_start));
    if (!StartsWith(reply, "ok epoch ")) {
      result->error = "epoch rejected: " + reply;
      return;
    }
    ++result->epochs_applied;

    std::string res_reply;
    if (!TimedRequest(&client, "resilience", result, &res_reply)) return;
    if (!TimedRequest(&client, "stats", result, &reply)) return;

    if (options.check_oracle) {
      ApplyEpoch(epoch, &mirror);
      // Only a proven answer is comparable; an exhausted node budget
      // legitimately leaves an upper bound.
      if (res_reply == "ok resilience unbreakable" ||
          (StartsWith(res_reply, "ok resilience ") &&
           res_reply.find("unproven") == std::string::npos)) {
        ResilienceResult oracle =
            ComputeResilienceExact(parsed.query, mirror);
        ++result->oracle_checks;
        std::string expect =
            oracle.unbreakable
                ? "ok resilience unbreakable"
                : StrFormat("ok resilience %d", oracle.resilience);
        if (res_reply != expect) {
          ++result->oracle_mismatches;
          if (result->error.empty()) {
            result->error = "oracle mismatch at session " + session +
                            " epoch " + std::to_string(result->epochs_applied) +
                            ": served '" + res_reply + "', oracle '" + expect +
                            "'";
          }
        }
      }
    }
  }
  TimedRequest(&client, "close", result, &reply);
  TimedRequest(&client, "quit", result, &reply);
}

LatencyStats Summarize(std::vector<double>* samples) {
  LatencyStats stats;
  stats.count = samples->size();
  if (samples->empty()) return stats;
  std::sort(samples->begin(), samples->end());
  double sum = 0;
  for (double v : *samples) sum += v;
  stats.mean_ms = sum / static_cast<double>(samples->size());
  auto rank = [&](double p) {
    size_t n = samples->size();
    size_t idx = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
    if (idx > 0) --idx;
    if (idx >= n) idx = n - 1;
    return (*samples)[idx];
  };
  stats.p50_ms = rank(0.50);
  stats.p99_ms = rank(0.99);
  stats.p999_ms = rank(0.999);
  stats.max_ms = samples->back();
  return stats;
}

void WriteLatencyJson(const LatencyStats& s, std::ostream& out) {
  out << "{\"count\": " << s.count << ", \"mean_ms\": " << s.mean_ms
      << ", \"p50_ms\": " << s.p50_ms << ", \"p99_ms\": " << s.p99_ms
      << ", \"p999_ms\": " << s.p999_ms << ", \"max_ms\": " << s.max_ms
      << "}";
}

}  // namespace

LoadgenReport RunLoadgen(const LoadgenOptions& options) {
  LoadgenReport report;
  report.options = options;
  if (!IsChurnKind(options.churn)) {
    report.error = "unknown churn kind '" + options.churn + "'";
    return report;
  }
  if (options.connections < 1) {
    report.error = "need at least one connection";
    return report;
  }

  size_t n = static_cast<size_t>(options.connections);
  std::vector<ConnResult> results(n);
  Clock::time_point start = Clock::now();
  // One worker per connection — loadgen's whole point is concurrent
  // client pressure, so every connection runs on its own thread.
  ParallelFor(options.connections, n, [&](size_t i) {
    RunConnection(options, i, &results[i]);
  });
  report.wall_ms = MsSince(start);

  std::vector<double> all, epochs;
  for (ConnResult& r : results) {
    report.requests += r.requests;
    report.err_replies += r.err_replies;
    report.epochs_applied += r.epochs_applied;
    report.oracle_checks += r.oracle_checks;
    report.oracle_mismatches += r.oracle_mismatches;
    all.insert(all.end(), r.latencies_ms.begin(), r.latencies_ms.end());
    epochs.insert(epochs.end(), r.epoch_latencies_ms.begin(),
                  r.epoch_latencies_ms.end());
    if (report.error.empty() && !r.error.empty()) report.error = r.error;
  }
  report.latency = Summarize(&all);
  report.epoch_latency = Summarize(&epochs);
  if (report.wall_ms > 0) {
    report.requests_per_sec =
        static_cast<double>(report.requests) * 1000.0 / report.wall_ms;
  }
  return report;
}

void PrintLoadgenTable(const LoadgenReport& report, std::FILE* out) {
  std::fprintf(out,
               "loadgen: %d connections, scenario=%s churn=%s size=%d "
               "epochs=%d seed=%llu\n",
               report.options.connections, report.options.scenario.c_str(),
               report.options.churn.c_str(), report.options.size,
               report.options.epochs,
               static_cast<unsigned long long>(report.options.seed));
  std::fprintf(out,
               "  %llu requests in %.1f ms  (%.1f req/s), %llu err replies\n",
               static_cast<unsigned long long>(report.requests),
               report.wall_ms, report.requests_per_sec,
               static_cast<unsigned long long>(report.err_replies));
  std::fprintf(out, "  %-8s %8s %9s %9s %9s %9s %9s\n", "class", "count",
               "mean_ms", "p50_ms", "p99_ms", "p999_ms", "max_ms");
  const LatencyStats* rows[2] = {&report.latency, &report.epoch_latency};
  const char* names[2] = {"all", "epoch"};
  for (int i = 0; i < 2; ++i) {
    std::fprintf(out, "  %-8s %8llu %9.3f %9.3f %9.3f %9.3f %9.3f\n",
                 names[i], static_cast<unsigned long long>(rows[i]->count),
                 rows[i]->mean_ms, rows[i]->p50_ms, rows[i]->p99_ms,
                 rows[i]->p999_ms, rows[i]->max_ms);
  }
  if (report.options.check_oracle) {
    std::fprintf(out, "  oracle: %llu checks, %llu mismatches\n",
                 static_cast<unsigned long long>(report.oracle_checks),
                 static_cast<unsigned long long>(report.oracle_mismatches));
  }
  if (!report.error.empty()) {
    std::fprintf(out, "  ERROR: %s\n", report.error.c_str());
  }
}

void WriteLoadgenCsv(const LoadgenReport& report, std::ostream& out) {
  out << "class,count,mean_ms,p50_ms,p99_ms,p999_ms,max_ms,"
         "requests_per_sec\n";
  const LatencyStats* rows[2] = {&report.latency, &report.epoch_latency};
  const char* names[2] = {"all", "epoch"};
  for (int i = 0; i < 2; ++i) {
    out << names[i] << "," << rows[i]->count << "," << rows[i]->mean_ms << ","
        << rows[i]->p50_ms << "," << rows[i]->p99_ms << ","
        << rows[i]->p999_ms << "," << rows[i]->max_ms << ",";
    if (i == 0) out << report.requests_per_sec;
    out << "\n";
  }
}

void WriteLoadgenJson(const LoadgenReport& report, std::ostream& out) {
  const LoadgenOptions& o = report.options;
  out << "{\n  \"schema\": \"rescq-loadgen-report/v1\",\n";
  out << "  \"options\": {\"host\": \"" << JsonEscape(o.host)
      << "\", \"port\": " << o.port << ", \"connections\": " << o.connections
      << ", \"scenario\": \"" << JsonEscape(o.scenario) << "\", \"query\": \""
      << JsonEscape(o.query) << "\", \"size\": " << o.size
      << ", \"density\": " << o.density << ", \"churn\": \""
      << JsonEscape(o.churn) << "\", \"epochs\": " << o.epochs
      << ", \"rate\": " << o.rate << ", \"seed\": " << o.seed
      << ", \"check_oracle\": " << BoolName(o.check_oracle)
      << ", \"witness_limit\": " << o.witness_limit
      << ", \"node_budget\": " << o.node_budget << "},\n";
  out << "  \"summary\": {\"requests\": " << report.requests
      << ", \"err_replies\": " << report.err_replies
      << ", \"epochs_applied\": " << report.epochs_applied
      << ", \"oracle_checks\": " << report.oracle_checks
      << ", \"oracle_mismatches\": " << report.oracle_mismatches
      << ", \"wall_ms\": " << report.wall_ms
      << ", \"requests_per_sec\": " << report.requests_per_sec
      << ", \"error\": \"" << JsonEscape(report.error) << "\"},\n";
  out << "  \"latency\": {\"all\": ";
  WriteLatencyJson(report.latency, out);
  out << ", \"epoch\": ";
  WriteLatencyJson(report.epoch_latency, out);
  out << "}\n}\n";
}

bool SaveLoadgenCsv(const LoadgenReport& report, const std::string& path,
                    std::string* error) {
  return SaveFile(
      path, path, [&](std::ostream& out) { WriteLoadgenCsv(report, out); },
      error);
}

bool SaveLoadgenJson(const LoadgenReport& report, const std::string& path,
                     std::string* error) {
  return SaveFile(
      path, path, [&](std::ostream& out) { WriteLoadgenJson(report, out); },
      error);
}

}  // namespace rescq
