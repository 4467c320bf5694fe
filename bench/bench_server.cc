// E-server: throughput and request latency of the rescq daemon, over
// one hop (client -> serve) and two (client -> route -> shard). The
// artifact table drives an in-process daemon with the loadgen harness
// — concurrent sessions doing the open -> churn -> query loop — and
// reports sustained requests/sec and p50/p99 request latency: `direct`
// rows dial one `rescq serve` at 1, 2 and 4 handler threads, `router`
// rows dial a `rescq route` over 1, 2 and 4 in-process serve shards.
// Set RESCQ_BENCH_SNAPSHOT=<path> to also write the machine-readable
// JSON snapshot (BENCH_server.json in the repo root is a checked-in
// run; host.cores says how many cores it was taken on).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "server/client.h"
#include "server/loadgen.h"
#include "server/router.h"
#include "server/server.h"
#include "util/parallel.h"

namespace rescq {
namespace {

// The daemon under test: one `rescq serve` dialled directly (shards ==
// 0) or a `rescq route` over `shards` in-process serve backends, each
// backend with `threads` handler threads. Members are destroyed in
// reverse order, so the client closes before the router stops and the
// router stops before its backends.
struct Fleet {
  InProcessShards backends;
  std::unique_ptr<ShardRouter> router;
  LineClient client;  // connected only by the timing series
  int port = 0;

  bool Start(int threads, size_t shards, std::string* error) {
    ServerOptions base;
    base.threads = threads;
    if (!backends.Start(shards == 0 ? 1 : shards, base, error)) return false;
    port = backends.server(0)->port();
    if (shards == 0) return true;
    RouterOptions roptions;
    roptions.shards = backends.specs();
    router = std::make_unique<ShardRouter>(roptions);
    if (!router->Start(error)) return false;
    port = router->port();
    return true;
  }
};

struct ServerRow {
  const char* hops = "";  // "direct" or "router"
  int threads = 0;        // handler threads per serve instance
  size_t shards = 0;      // serve backends behind the router (0 = direct)
  uint64_t requests = 0;
  double requests_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double epoch_p50_ms = 0;
  double epoch_p99_ms = 0;
  bool clean = true;  // no err replies, no transport errors
};

const ServerRow kConfigs[] = {
    {"direct", 1, 0}, {"direct", 2, 0}, {"direct", 4, 0},
    {"router", 4, 1}, {"router", 4, 2}, {"router", 4, 4},
};

LoadgenOptions BaseLoadgen() {
  LoadgenOptions options;
  options.host = "127.0.0.1";
  options.connections = 8;
  options.scenario = "vc_er";
  options.size = 10;
  options.churn = "mixed";
  options.epochs = 6;
  options.rate = 0.15;
  options.seed = 11;
  options.timeout_ms = 60000;
  return options;
}

// Start the fleet, warm it (plan caches, allocator, TCP stack), then
// measure one loadgen run; the fleet stops when it goes out of scope.
bool Measure(ServerRow* row) {
  Fleet fleet;
  std::string error;
  if (!fleet.Start(row->threads, row->shards, &error)) {
    std::fprintf(stderr, "bench_server: %s\n", error.c_str());
    return false;
  }
  LoadgenOptions loptions = BaseLoadgen();
  loptions.port = fleet.port;
  loptions.session_prefix = "warm";
  RunLoadgen(loptions);
  loptions.session_prefix = "bench";
  LoadgenReport report = RunLoadgen(loptions);
  row->requests = report.requests;
  row->requests_per_sec = report.requests_per_sec;
  row->p50_ms = report.latency.p50_ms;
  row->p99_ms = report.latency.p99_ms;
  row->epoch_p50_ms = report.epoch_latency.p50_ms;
  row->epoch_p99_ms = report.epoch_latency.p99_ms;
  row->clean = report.error.empty() && report.err_replies == 0;
  return true;
}

void PrintRow(const ServerRow& r) {
  std::printf("%-7s %7d %6zu %9llu %12.1f | %8.3f %8.3f | %9.3f %9.3f%s\n",
              r.hops, r.threads, r.shards,
              static_cast<unsigned long long>(r.requests), r.requests_per_sec,
              r.p50_ms, r.p99_ms, r.epoch_p50_ms, r.epoch_p99_ms,
              r.clean ? "" : "  UNCLEAN");
}

std::vector<ServerRow> RunThroughputTable() {
  std::printf(
      "\n==== E-server: daemon throughput vs handler threads and hops ====\n"
      "The loadgen harness on 8 concurrent connections, each one session "
      "of open ->\npush -> begin -> 6 churn epochs (with resilience + stats "
      "queries per epoch).\n`direct` dials one in-process `rescq serve`: "
      "handler threads bound how many\nrequests make progress "
      "concurrently. `router` dials an in-process `rescq\nroute` over N "
      "serve shards (4 handler threads each), so every reply crosses\ntwo "
      "hops: 1 shard prices the forwarding overhead, 2/4 shards price how "
      "much\nindependent backends buy back.\n");
  std::vector<ServerRow> rows;
  for (const ServerRow& config : kConfigs) {
    if (rows.empty() || std::strcmp(rows.back().hops, config.hops) != 0) {
      std::printf("\n%-7s %7s %6s %9s %12s | %8s %8s | %9s %9s\n", "hops",
                  "threads", "shards", "requests", "req_per_s", "p50_ms",
                  "p99_ms", "ep_p50", "ep_p99");
    }
    ServerRow row = config;
    if (!Measure(&row)) break;
    PrintRow(row);
    rows.push_back(row);
  }
  return rows;
}

void WriteSnapshot(const char* path, const std::vector<ServerRow>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_server: cannot write snapshot %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"rescq-bench-server/v2\",\n");
  std::fprintf(f, "  \"host\": { \"cores\": %d },\n", HardwareThreads());
  std::fprintf(f, "  \"workload\": { \"connections\": 8, \"scenario\": "
                  "\"vc_er\", \"size\": 10, \"churn\": \"mixed\", "
                  "\"epochs\": 6 },\n");
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ServerRow& r = rows[i];
    std::fprintf(f,
                 "    { \"hops\": \"%s\", \"threads\": %d, \"shards\": %zu, "
                 "\"requests\": %llu, \"requests_per_sec\": %.1f, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"epoch_p50_ms\": "
                 "%.3f, \"epoch_p99_ms\": %.3f, \"clean\": %s }%s\n",
                 r.hops, r.threads, r.shards,
                 static_cast<unsigned long long>(r.requests),
                 r.requests_per_sec, r.p50_ms, r.p99_ms, r.epoch_p50_ms,
                 r.epoch_p99_ms, r.clean ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nsnapshot written: %s\n", path);
}

// --- Timing series ----------------------------------------------------------

// Starts `fleet` and connects its client; false skips the benchmark.
bool StartAndConnect(benchmark::State& state, int threads, size_t shards,
                     Fleet* fleet) {
  std::string error;
  if (!fleet->Start(threads, shards, &error) ||
      !fleet->client.Connect("127.0.0.1", fleet->port, &error)) {
    state.SkipWithError(error.c_str());
    return false;
  }
  return true;
}

// Sends every request in `lines` in order; false skips the benchmark.
bool Requests(benchmark::State& state, LineClient* client,
              std::initializer_list<std::string> lines) {
  std::string reply, error;
  for (const std::string& line : lines) {
    if (!client->Request(line, &reply, &error)) {
      state.SkipWithError(error.c_str());
      return false;
    }
  }
  benchmark::DoNotOptimize(reply);
  return true;
}

// Round-trip floor of the wire protocol: one connection, ping/pong.
void BM_PingRoundTrip(benchmark::State& state) {
  Fleet fleet;
  if (!StartAndConnect(state, static_cast<int>(state.range(0)), 0, &fleet)) {
    return;
  }
  for (auto _ : state) {
    if (!Requests(state, &fleet.client, {"ping"})) break;
  }
}
BENCHMARK(BM_PingRoundTrip)->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// One full served session per iteration: open, base, begin, one epoch,
// resilience — the protocol cost on top of the incremental engine.
void BM_ServedSession(benchmark::State& state) {
  Fleet fleet;
  if (!StartAndConnect(state, static_cast<int>(state.range(0)), 0, &fleet)) {
    return;
  }
  int i = 0;
  for (auto _ : state) {
    std::string name = "b" + std::to_string(i++);
    if (!Requests(state, &fleet.client,
                  {"open " + name + " R(x,y), S(y)", "push R(a, b)",
                   "push S(b)", "begin", "+ S(c)", "+ R(b, c)", "epoch",
                   "resilience", "close"})) {
      break;
    }
  }
}
BENCHMARK(BM_ServedSession)->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// Round-trip floor through the router: client -> router -> shard and
// back for a session verb (resilience on a tiny live session), vs the
// one-hop cost BM_PingRoundTrip prices. The ping verb itself is
// answered by the router locally, so a session verb is the honest
// two-hop number.
void BM_RoutedResilience(benchmark::State& state) {
  Fleet fleet;
  if (!StartAndConnect(state, 2, static_cast<size_t>(state.range(0)),
                       &fleet) ||
      !Requests(state, &fleet.client,
                {"open hot R(x,y), S(y)", "push R(a, b)", "push S(b)",
                 "begin"})) {
    return;
  }
  for (auto _ : state) {
    if (!Requests(state, &fleet.client, {"resilience"})) break;
  }
}
BENCHMARK(BM_RoutedResilience)->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// Scatter-gather cost: one aggregated `stats` across the whole fleet.
void BM_ScatterGatherStats(benchmark::State& state) {
  Fleet fleet;
  if (!StartAndConnect(state, 2, static_cast<size_t>(state.range(0)),
                       &fleet)) {
    return;
  }
  for (auto _ : state) {
    if (!Requests(state, &fleet.client, {"stats"})) break;
  }
}
BENCHMARK(BM_ScatterGatherStats)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace
}  // namespace rescq

int main(int argc, char** argv) {
  std::vector<rescq::ServerRow> rows = rescq::RunThroughputTable();
  if (const char* path = std::getenv("RESCQ_BENCH_SNAPSHOT")) {
    rescq::WriteSnapshot(path, rows);
  }
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
